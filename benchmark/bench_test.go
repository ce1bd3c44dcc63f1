package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"pythia/internal/flight"
	"pythia/internal/serve"
	"pythia/internal/sim"
)

// TestBenchmarkJSONMatchesTables keeps the contract file and the tables
// the driver prints from in step: same workloads, same metrics, same
// units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, driver has %v", names, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\n json  %+v\n table %+v", doc.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\n json  %+v\n table %+v", doc.PerLayer, perLayerDefs)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestServeSmoke runs each serving workload end to end on a 1-second
// window with every gate on; the journaled one and one unjournaled one also
// traced, which covers both sides of every wal.* row.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of closed-loop load")
	}
	for name := range serveSpecs {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			if traced && name == "serve_fabric" {
				continue
			}
			t.Run(name+map[bool]string{false: "", true: "_traced"}[traced], func(t *testing.T) {
				t.Parallel()
				o := options{seed: 5, warmup: 100 * time.Millisecond, window: time.Second, trace: traced, probeOps: 3000, scratch: t.TempDir()}
				rep, err := runServe(name, o)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.finish()
				if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
					t.Fatalf("result %+v, gates %v", res, rep.failures)
				}
				defs := endToEndDefs
				if traced {
					defs = perLayerDefs
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics reported, contract has %d", len(res.Metrics), len(defs))
				}
				if !traced {
					for _, d := range defs {
						if v := res.Metrics[d.Name].Value; !(v > 0) {
							t.Errorf("%s = %v, an end-to-end metric must never be 0", d.Name, v)
						}
					}
					return
				}
				journaled := serveSpecs[name].journal
				for _, m := range []string{"wal.appends", "wal.fsyncs", "wal.snapshots", "wal.bytes_per_op", "wal.append_ms_p50"} {
					if v := res.Metrics[m].Value; (v > 0) != journaled {
						t.Errorf("%s = %v on a workload with journal=%v", m, v, journaled)
					}
				}
				for _, m := range []string{"serve.requests", "serve.ops_per_batch", "serve.decode_us_per_op", "core.apply_ns_per_op", "core.placements", "core.outstanding_peak", "topology.ksp_cold_us_per_pair", "sim.ns_per_event"} {
					if v := res.Metrics[m].Value; !(v > 0) {
						t.Errorf("%s = %v, want > 0", m, v)
					}
				}
				if len(rep.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

// TestDrainGatesTrip doctors a clean result one way per gate and expects
// each to fail the run.
func TestDrainGatesTrip(t *testing.T) {
	clean := func() *loadResult {
		st := &serve.StatsResponse{}
		st.IntentsReceived = 90
		return &loadResult{totals: totals{requests: 2, opsAcked: 128, intentsAcked: 90, accepted: 120, deferred: 8}, final: st}
	}
	if bad := clean().drainGates(); len(bad) != 0 {
		t.Fatalf("clean result tripped %v", bad)
	}
	for name, doctor := range map[string]func(*loadResult){
		"non-200":     func(r *loadResult) { r.non200 = 1 },
		"lost intent": func(r *loadResult) { r.final.IntentsReceived-- },
		"dedup":       func(r *loadResult) { r.final.DedupHits = 1 },
		"duplicate":   func(r *loadResult) { r.duplics = 1; r.accepted-- },
		"lost op":     func(r *loadResult) { r.accepted-- },
		"leak":        func(r *loadResult) { r.final.OutstandingBookings = 3 },
		"unseen 429":  func(r *loadResult) { r.final.RejectedTotal = 1 },
	} {
		r := clean()
		doctor(r)
		if bad := r.drainGates(); len(bad) == 0 {
			t.Errorf("%s: no gate tripped", name)
		}
		rep := newReport("serve_mem", options{})
		rep.addLoad(r)
		if res := rep.finish(); res.Correct || res.Failed == 0 {
			t.Errorf("%s: run reported correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

func TestReplyInt(t *testing.T) {
	reply := []byte(`{"accepted":61,"deferred":3,"duplicates":0,"results":["accepted"],"queue_depth":12}` + "\n")
	for key, want := range map[string]int{"accepted": 61, "deferred": 3, "duplicates": 0, "queue_depth": 12, "missing": -1} {
		if got := replyInt(reply, key); got != want {
			t.Errorf("%s: got %d, want %d", key, got, want)
		}
	}
}

func TestSnapshotPauses(t *testing.T) {
	ev := func(kind flight.Kind, at, delay float64) flight.Event {
		e := flight.Ev(kind, flight.PlaneServe)
		e.T, e.DelaySec = sim.Time(at), delay
		return e
	}
	collector := flight.Ev(flight.Placement, flight.PlaneCollector)
	got := snapshotPausesMS([]flight.Event{
		ev(flight.SnapshotTaken, 0.5, 0), // ring starts mid-batch: no commit seen, dropped
		ev(flight.BatchIngested, 1.0, 0),
		ev(flight.BatchCommitted, 1.0, 0.002),
		ev(flight.BatchIngested, 1.003, 0), // no snapshot between: not a pause
		ev(flight.BatchCommitted, 1.003, 0.001),
		ev(flight.SnapshotTaken, 1.003, 0),
		collector,
		ev(flight.BatchIngested, 1.054, 0),
	})
	if len(got) != 1 || got[0] < 49.9 || got[0] > 50.1 {
		t.Fatalf("pauses %v, want one of 50 ms", got)
	}
}

func TestNoisyGuard(t *testing.T) {
	for _, c := range []struct {
		before, after float64
		want          bool
	}{
		{quietCanaryMS, quietCanaryMS * 1.05, false},
		{quietCanaryMS, quietCanaryMS * 1.2, true},
		{quietCanaryMS * 1.2, quietCanaryMS, true},
		{quietCanaryMS * 1.6, quietCanaryMS * 1.6, true},
	} {
		r := &report{canaryBefore: c.before, canaryAfter: c.after}
		if got := r.noisy(); got != c.want {
			t.Errorf("canary %.1f -> %.1f: noisy=%v, want %v", c.before, c.after, got, c.want)
		}
	}
}
