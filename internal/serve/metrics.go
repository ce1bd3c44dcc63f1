package serve

import (
	"strconv"
	"strings"
	"sync"

	"pythia/internal/core"
	"pythia/internal/flight"
	"pythia/internal/wal"
)

// This file is the serving plane's one book of numbers: a flight.Registry
// that every server constructs, behind typed observation methods. The request
// path and batch loop observe through pre-registered handles; /v1/stats reads
// its totals and latency quantiles from the same handles; a /metrics scrape
// stores the polled collector and journal values (one view, see observe.go)
// into the same registry and renders it.

// Histogram bucket edges, chosen for the serving plane's ranges.
var (
	// latencyEdges spans sub-millisecond in-process handling through
	// multi-second saturation backlogs.
	latencyEdges = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// bodyEdges spans one-op requests through the 8 MiB body cap.
	bodyEdges = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}
	// batchEdges spans singleton batches through BatchMax-scale coalescing.
	batchEdges = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// phaseEdges spans one leg of a collector commit: microseconds for a
	// placement pass with nothing to place through a stalled shard phase.
	phaseEdges = []float64{0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1}
	// fsyncEdges spans page-cache syncs through slow-disk stalls.
	fsyncEdges = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
		0.005, 0.01, 0.025, 0.05, 0.1, 0.25}
)

// Rejection reasons for pythia_serve_rejected_total.
const (
	rejectQueueFull  = "queue_full"
	rejectTooLarge   = "body_too_large"
	rejectBadRequest = "bad_request"
	rejectDraining   = "draining"
	rejectCrashed    = "crashed"
	rejectRecovering = "recovering"
)

type routeCode struct {
	route string
	code  int
}

// serveMetrics owns the registry and the pre-registered handles the request
// path and batch loop observe through.
type serveMetrics struct {
	reg *flight.Registry

	ingestRequests *flight.Counter   // /v1/stats requests_total
	queueFull      *flight.Counter   // /v1/stats rejected_total
	enqueueCommit  *flight.Histogram // /v1/stats latency_p50/p99_micros
	commitRate     *flight.Gauge     // Retry-After estimate
	bodyBytes      *flight.Histogram
	batchOps       *flight.Histogram
	commitSeconds  *flight.Histogram
	batchesTotal   *flight.Counter
	opsTotal       *flight.Counter
	// The collector's share of commitSeconds, leg by leg, and what the
	// placement pass left without a path (core.CommitStats).
	phaseShard, phaseMerge, phasePlace *flight.Histogram
	unplaced                           *flight.Gauge

	walAppends     *flight.Counter
	walAppendBytes *flight.Counter
	walFsync       *flight.Histogram
	walRotations   *flight.Counter
	walSnapshots   *flight.Counter
	walSnapBytes   *flight.Counter
	walSnapErrors  *flight.Counter
	walSnapPause   *flight.Histogram // batch loop stopped to capture
	walSnapWrite   *flight.Histogram // background write + fsync + rename
	walCompacted   *flight.Counter

	// Label-fanned families, materialized on first use under mu. The hot
	// path is one mutex and a struct-keyed map lookup — no allocation.
	mu        sync.Mutex
	requests  map[routeCode]*flight.Counter
	latencies map[string]*flight.Histogram
	rejects   map[string]*flight.Counter

	// scrapeMu serializes /metrics scrapes: each stores a polled view into
	// the registry and renders it, and a slower scrape must not overwrite a
	// newer one's collector counters with older values.
	scrapeMu sync.Mutex
}

func newServeMetrics() *serveMetrics {
	reg := flight.NewRegistry()
	m := &serveMetrics{
		reg: reg,
		ingestRequests: reg.Counter("pythia_serve_ingest_requests_total",
			"Ingest requests admitted past the drain, crash and readiness checks."),
		enqueueCommit: reg.Histogram("pythia_serve_enqueue_commit_seconds",
			"Wall seconds from a request entering the ingest queue to its batch committing.", latencyEdges),
		commitRate: reg.Gauge("pythia_serve_commit_requests_per_second",
			"EWMA of the request commit rate; the 429 Retry-After hint divides queue depth by it."),
		bodyBytes: reg.Histogram("pythia_serve_request_body_bytes",
			"Ingest request body sizes in bytes.", bodyEdges),
		batchOps: reg.Histogram("pythia_serve_batch_ops",
			"Operations per committed collector batch.", batchEdges),
		commitSeconds: reg.Histogram("pythia_serve_commit_seconds",
			"Wall seconds per batch commit (journal append through collector apply).", latencyEdges),
		batchesTotal: reg.Counter("pythia_serve_batches_total",
			"Collector batches committed."),
		opsTotal: reg.Counter("pythia_serve_ops_total",
			"Collector operations committed."),
		unplaced: reg.Gauge("pythia_collector_unplaced_aggregates",
			"Pair aggregates the latest placement pass left without a path (degraded or unroutable); persistently non-zero means pairs Pythia cannot steer."),
		walAppends: reg.Counter("pythia_wal_appends_total",
			"Journal records appended."),
		walAppendBytes: reg.Counter("pythia_wal_appended_bytes_total",
			"Journal payload bytes appended."),
		walFsync: reg.Histogram("pythia_wal_fsync_seconds",
			"Journal fsync wall time in seconds.", fsyncEdges),
		walRotations: reg.Counter("pythia_wal_rotations_total",
			"Journal segment rotations (including the first segment)."),
		walSnapshots: reg.Counter("pythia_wal_snapshots_total",
			"Durable snapshots written."),
		walSnapBytes: reg.Counter("pythia_wal_snapshot_bytes_total",
			"Snapshot payload bytes written."),
		walSnapErrors: reg.Counter("pythia_wal_snapshot_errors_total",
			"Snapshots whose write or compaction failed; the journal keeps growing until one succeeds."),
		walSnapPause: reg.Histogram("pythia_wal_snapshot_pause_seconds",
			"Wall seconds the batch loop held the collector lock to capture a snapshot.", latencyEdges),
		walSnapWrite: reg.Histogram("pythia_wal_snapshot_write_seconds",
			"Wall seconds a snapshot's background write, fsync and rename took.", latencyEdges),
		walCompacted: reg.Counter("pythia_wal_compacted_segments_total",
			"Journal segments removed by compaction."),
		requests:  map[routeCode]*flight.Counter{},
		latencies: map[string]*flight.Histogram{},
		rejects:   map[string]*flight.Counter{},
	}
	m.queueFull = m.reject(rejectQueueFull)
	phase := func(name string) *flight.Histogram {
		return reg.Histogram(flight.SeriesName("pythia_collector_commit_phase_seconds", "phase", name),
			"Wall seconds per collector batch, by commit leg: shard-local ingest, delta merge into the pair aggregates, placement pass.", phaseEdges)
	}
	m.phaseShard, m.phaseMerge, m.phasePlace = phase("shard"), phase("merge"), phase("place")
	return m
}

// request records one completed HTTP request: the per-route/per-code counter
// and the per-route latency histogram.
func (m *serveMetrics) request(route string, code int, seconds float64) {
	m.mu.Lock()
	c, ok := m.requests[routeCode{route, code}]
	if !ok {
		c = m.reg.Counter(
			flight.SeriesName("pythia_serve_requests_total", "route", route, "code", strconv.Itoa(code)),
			"HTTP requests served, by route and status code.")
		m.requests[routeCode{route, code}] = c
	}
	h, ok := m.latencies[route]
	if !ok {
		h = m.reg.Histogram(
			flight.SeriesName("pythia_serve_request_seconds", "route", route),
			"HTTP request latency in seconds, by route.", latencyEdges)
		m.latencies[route] = h
	}
	m.mu.Unlock()
	c.Inc()
	h.Observe(seconds)
}

// reject returns the refused-request counter for reason (429 queue_full, 413
// body_too_large, 400 bad_request, 503 draining/crashed/recovering).
func (m *serveMetrics) reject(reason string) *flight.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.rejects[reason]
	if !ok {
		c = m.reg.Counter(
			flight.SeriesName("pythia_serve_rejected_total", "reason", reason),
			"Requests refused, by reason.")
		m.rejects[reason] = c
	}
	return c
}

// batch records one committed batch: size, commit wall time, op throughput,
// and the collector's account of its own three legs.
func (m *serveMetrics) batch(ops int, commitSeconds float64, cs core.CommitStats) {
	m.batchesTotal.Inc()
	m.opsTotal.Add(float64(ops))
	m.batchOps.Observe(float64(ops))
	m.commitSeconds.Observe(commitSeconds)
	m.phaseShard.Observe(cs.Shard.Seconds())
	m.phaseMerge.Observe(cs.Merge.Seconds())
	m.phasePlace.Observe(cs.Place.Seconds())
	m.unplaced.Set(float64(cs.Unplaced))
}

// walObserver bridges the journal's lifecycle hooks into the registry.
func (m *serveMetrics) walObserver() *wal.Observer {
	return &wal.Observer{
		Append: func(bytes int) {
			m.walAppends.Inc()
			m.walAppendBytes.Add(float64(bytes))
		},
		Fsync:    func(sec float64) { m.walFsync.Observe(sec) },
		Rotate:   func() { m.walRotations.Inc() },
		Snapshot: func(bytes int) { m.walSnapshots.Inc(); m.walSnapBytes.Add(float64(bytes)) },
		Compact:  func(segments int) { m.walCompacted.Add(float64(segments)) },
	}
}

// normalizeRoute maps a request path onto the bounded route-label set, so
// arbitrary client paths cannot mint unbounded series.
func normalizeRoute(path string) string {
	switch path {
	case "/v1/ingest", "/v1/stats", "/v1/healthz", "/v1/readyz", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "other"
}
