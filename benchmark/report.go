package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"pythia/internal/flight"
	"pythia/internal/stats"
)

// metricDef names one metric of the contract. BENCHMARK.json carries the
// same tables; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEndDefs are what a user of the system sees. Every workload reports
// every one of them; "operation" and "work" are per workload:
//
//	serve_*       operation = one ingest request; work = collector operations acknowledged
//	recover_tail  operation = one crash recovery; work = journaled operations replayed
//	sim_k8        operation = one simulated trial; work = shuffle flows simulated
//
// The bounds are what this shared 2-core box supports, not what one would
// like: over twelve minutes of back-to-back runs the same code drifts by
// 10-15 % in throughput and latency (and the journaled workload follows the
// disk), so anything tighter than 25 % would reject unchanged code.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerDefs are the traced run's metrics, one group per layer. A layer
// that does no work on a workload reads 0 there.
var perLayerDefs = []metricDef{
	{Name: "serve.requests", Unit: "count", Better: "higher"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.ops_per_batch", Unit: "ops", Better: "higher"},
	{Name: "serve.commit_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "serve.decode_us_per_op", Unit: "us", Better: "lower"},
	{Name: "serve.body_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "serve.recovery_replay_s", Unit: "s", Better: "lower"},

	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wal.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower"},
	{Name: "wal.snapshot_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_read_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "core.apply_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.novelops_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "core.placements", Unit: "count", Better: "higher"},
	{Name: "core.outstanding_peak", Unit: "count", Better: "lower"},
	{Name: "core.dedup_hits", Unit: "count", Better: "lower"},
	{Name: "core.deferred_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.shard_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.run_until_us_per_batch", Unit: "us", Better: "lower"},

	{Name: "netsim.flows", Unit: "count", Better: "higher"},
	{Name: "netsim.ecmp_trial_wall_s", Unit: "s", Better: "lower"},
	{Name: "netsim.flows_per_s", Unit: "1/s", Better: "higher"},

	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.ksp_cold_us_per_pair", Unit: "us", Better: "lower"},
	{Name: "topology.ksp_warm_ns_per_pair", Unit: "ns", Better: "lower"},

	{Name: "predict.plane_wall_s", Unit: "s", Better: "lower"},
	{Name: "openflow.rules_installed", Unit: "count", Better: "lower"},
	{Name: "flight.late_fraction", Unit: "ratio", Better: "lower"},
	{Name: "flight.lead_p50_s", Unit: "s", Better: "higher"},
	{Name: "flight.byte_err_pct", Unit: "%", Better: "lower"},
	{Name: "sim.job_s", Unit: "s", Better: "lower"},
	{Name: "sim.ecmp_job_s", Unit: "s", Better: "lower"},
	{Name: "sim.speedup_vs_ecmp", Unit: "ratio", Better: "higher"},

	{Name: "host.canary_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// quietCanaryMS is canaryMS on the reference box (2-core Xeon 2.1 GHz) with
// nothing else running; the interference guard compares against it.
const quietCanaryMS = 18.2

// report accumulates one run's observations and renders them.
type report struct {
	workload string
	traced   bool

	failures  []string // tripped correctness gates
	attempted int
	failed    int
	notes     []string

	setupSec                  []float64
	canaryBefore, canaryAfter float64

	values  map[string]float64
	samples map[string]int // sample count behind a value, where it is a statistic
	spans   []span
}

func newReport(workload string, o options) *report {
	return &report{workload: workload, traced: o.trace, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// addLoad folds a closed-loop phase's totals and gates into the report.
func (r *report) addLoad(res *loadResult) {
	r.attempted += res.requests
	r.failed += res.non200
	r.failures = append(r.failures, res.drainGates()...)
	if res.poolExhausted {
		r.notes = append(r.notes, "pool_exhausted=1")
	}
}

// serveEndToEnd sets a serving workload's throughput and request-latency
// metrics: the median of the window's one-second throughputs, the median
// latency, and the median of its two-second slices' p99s. A window too
// short to hold a whole slice (tests) falls back to the whole-window figure.
func (r *report) serveEndToEnd(res *loadResult) {
	if len(res.bucketRates) > 0 {
		r.setN("work_per_s", median(res.bucketRates), len(res.bucketRates))
	} else {
		r.set("work_per_s", float64(res.opsInWindow)/res.window.Seconds())
	}
	r.setN("op_p50_ms", median(res.latMS), len(res.latMS))
	if len(res.bucketP99MS) > 0 {
		r.setN("op_p99_ms", median(res.bucketP99MS), len(res.bucketP99MS))
	} else {
		r.setN("op_p99_ms", percentile(sortedCopy(res.latMS), 0.99), len(res.latMS))
	}
}

// fewOpsEndToEnd sets the metrics of a workload that finishes fewer than
// twenty operations (recoveries, trials) in a window: work per second from
// the median operation time, and — no percentile above the median has ten
// samples beyond it — the median again where the serving workloads report a
// p99, rather than an unsupported maximum.
func (r *report) fewOpsEndToEnd(workPerOp float64, opMS []float64) {
	p50 := median(opMS)
	r.setN("work_per_s", ratio(workPerOp, p50/1e3), len(opMS))
	r.setN("op_p50_ms", p50, len(opMS))
	r.setN("op_p99_ms", p50, len(opMS))
}

func expoValue(e *flight.Exposition, name string, kv ...string) float64 {
	if s := e.Sample(name, kv...); s != nil {
		return s.Value
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// expoLayers fills the serve and wal rows that come straight off an
// instrumented server's /metrics page.
func (r *report) expoLayers(e *flight.Exposition) {
	ops := expoValue(e, "pythia_serve_ops_total")
	batches := expoValue(e, "pythia_serve_batches_total")
	r.set("serve.requests", expoValue(e, "pythia_serve_requests_total", "route", "/v1/ingest", "code", "200"))
	r.set("serve.batches", batches)
	r.set("serve.ops_per_batch", ratio(ops, batches))
	r.setN("serve.commit_ms_mean", 1e3*ratio(expoValue(e, "pythia_serve_commit_seconds_sum"), expoValue(e, "pythia_serve_commit_seconds_count")), int(batches))
	r.set("serve.body_bytes_per_op", ratio(expoValue(e, "pythia_serve_request_body_bytes_sum"), ops))
	r.set("wal.appends", expoValue(e, "pythia_wal_appends_total"))
	r.set("wal.fsyncs", expoValue(e, "pythia_wal_fsync_seconds_count"))
	r.set("wal.bytes_per_op", ratio(expoValue(e, "pythia_wal_appended_bytes_total"), ops))
	r.set("wal.snapshots", expoValue(e, "pythia_wal_snapshots_total"))
}

// serveLayers reads the instrumented server's public outputs into the
// serve, wal and core rows. bareOpsPerSec is the untraced reference phase's
// throughput, for the tracing overhead.
func (r *report) serveLayers(res *loadResult, bareOpsPerSec float64) {
	st := res.final
	r.expoLayers(res.expo)
	r.setN("serve.overhead_ms_mean", stats.Mean(res.latMS)-r.values["serve.commit_ms_mean"], len(res.latMS))
	r.set("serve.queue_depth_max", float64(res.queueDepthMax))
	r.set("serve.rejected_429", float64(st.RejectedTotal))
	r.set("serve.recovery_replay_s", st.RecoverySec)
	snapMS := snapshotPausesMS(res.events)
	r.setN("wal.snapshot_ms_mean", stats.Mean(snapMS), len(snapMS))

	r.set("core.placements", float64(st.Placements))
	r.set("core.outstanding_peak", float64(res.outstandingPeak))
	r.set("core.dedup_hits", float64(st.DedupHits))
	r.set("core.deferred_ratio", ratio(float64(st.IntentsDeferred), float64(st.IntentsReceived)))

	traced := float64(res.opsInWindow) / res.window.Seconds()
	r.set("trace.overhead_pct", 100*(1-ratio(traced, bareOpsPerSec)))
}

// snapshotPausesMS recovers snapshot durations from the server's flight
// ring. The server stamps serve-plane events with the batch's start instant
// (wall seconds since Start) and BatchCommitted with the commit's duration,
// and cuts the snapshot right after; the gap from commit end to the next
// batch's start is therefore the snapshot, plus the reply fan-out — which a
// closed loop with a waiting second client keeps to microseconds.
func snapshotPausesMS(events []flight.Event) []float64 {
	var out []float64
	commitEnd := math.NaN()
	pending := false
	for _, ev := range events {
		if ev.Plane != flight.PlaneServe {
			continue
		}
		switch ev.Kind {
		case flight.BatchCommitted:
			commitEnd = float64(ev.T) + ev.DelaySec
		case flight.SnapshotTaken:
			pending = !math.IsNaN(commitEnd)
		case flight.BatchIngested:
			if pending {
				out = append(out, 1e3*(float64(ev.T)-commitEnd))
				pending = false
			}
		}
	}
	return out
}

// noisy reports whether the interference guard tripped: the canary moved by
// more than 15 % across the run, or ran 1.5x slower than on a quiet box.
func (r *report) noisy() bool {
	lo, hi := r.canaryBefore, r.canaryAfter
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo > 0 && (hi > 1.15*lo || hi > 1.5*quietCanaryMS)
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish completes the always-present metrics and returns the contract
// object: the end-to-end metrics for an untraced run, the per-layer metrics
// for a traced one.
func (r *report) finish() result {
	defs := endToEndDefs
	if r.traced {
		defs = perLayerDefs
		r.set("host.canary_ms", math.Max(r.canaryBefore, r.canaryAfter))
	} else {
		r.setN("setup_s", median(r.setupSec), len(r.setupSec))
		r.set("peak_rss_mb", peakRSSMB())
	}
	if r.noisy() {
		r.notes = append(r.notes, "noisy=1")
	}
	if len(r.failures) > 0 && r.failed == 0 {
		r.failed = 1 // a tripped gate fails the run even when every reply was 200
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]resultValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = resultValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return res
}

// print writes the human-readable lines and then the contract's JSON object
// as the last line.
func (r *report) print(w io.Writer, res result, wall time.Duration) error {
	defs := endToEndDefs
	if r.traced {
		defs = perLayerDefs
	}
	fmt.Fprintf(w, "workload=%s traced=%v wall_s=%.2f canary_ms=%.2f/%.2f failed_ratio=%g %s\n",
		r.workload, r.traced, wall.Seconds(), r.canaryBefore, r.canaryAfter,
		float64(res.Failed)/float64(res.Attempted), strings.Join(r.notes, " "))
	for _, d := range defs {
		line := fmt.Sprintf("  %-30s %14.6g %s", d.Name, r.values[d.Name], d.Unit)
		if n, ok := r.samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	sort.Strings(r.failures)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
