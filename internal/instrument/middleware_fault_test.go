package instrument

import (
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/hadoop"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Tests for the prediction-plane fault layer: monitor crash/restart with
// spill-directory recovery, the in-flight drop guard on job completion, and
// seeded prediction-error noise.

// faultRig builds a cluster with a configurable middleware.
func faultRig(cfg Config) (*sim.Engine, *hadoop.Cluster, *recordingSink, *Middleware, []topology.NodeID) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cl := hadoop.NewCluster(eng, net, hosts, ecmp.New(g, 1), hadoop.Config{})
	sink := &recordingSink{}
	mw := Attach(eng, cl, sink, cfg)
	return eng, cl, sink, mw, hosts
}

func TestMonitorCrashRecoversLateIntents(t *testing.T) {
	eng, cl, sink, mw, hosts := faultRig(Config{})
	// Kill every monitor up front: the first wave of spills lands on disk
	// unwatched. Restart everything at t=3 — after the 2 s maps finish,
	// well before the shuffle completes — so the re-scan recovers the
	// backlog as late intents.
	for _, h := range hosts {
		mw.CrashMonitor(h)
	}
	if !mw.down[hosts[0]] {
		t.Fatal("monitor not down after CrashMonitor")
	}
	eng.At(3, func() {
		for _, h := range hosts {
			mw.RestartMonitor(h)
		}
	})
	cl.Submit(spec(8, 3, 5e6))
	eng.Run()
	if mw.MonitorCrashes != len(hosts) {
		t.Fatalf("MonitorCrashes = %d, want %d", mw.MonitorCrashes, len(hosts))
	}
	if mw.MissedSpills != 8 {
		t.Fatalf("MissedSpills = %d, want 8", mw.MissedSpills)
	}
	if mw.LateIntents != 8 {
		t.Fatalf("LateIntents = %d, want 8", mw.LateIntents)
	}
	// Recovery is complete: every map's prediction eventually arrived,
	// flagged late, and every reducer start was re-detected.
	if len(sink.intents) != 8 {
		t.Fatalf("recovered intents = %d, want 8", len(sink.intents))
	}
	for _, in := range sink.intents {
		if !in.Late {
			t.Fatalf("map %d intent not flagged late", in.Map)
		}
		if in.EmittedAt.Sub(in.MapFinishedAt) <= 0 {
			t.Fatal("late intent emitted before its spill")
		}
	}
	if len(sink.ups) != 3 {
		t.Fatalf("recovered reducer-ups = %d, want 3", len(sink.ups))
	}
}

func TestRestartSkipsFinishedJobsSpills(t *testing.T) {
	eng, cl, sink, mw, hosts := faultRig(Config{})
	for _, h := range hosts {
		mw.CrashMonitor(h)
	}
	cl.Submit(spec(4, 2, 1e6))
	eng.Run() // job completes with all monitors dark
	if len(sink.intents) != 0 {
		t.Fatalf("intents emitted by dead monitors: %d", len(sink.intents))
	}
	// The finished job's spill files were cleaned up with the job; a later
	// restart must find an empty directory.
	for _, h := range hosts {
		mw.RestartMonitor(h)
	}
	eng.Run()
	if len(sink.intents) != 0 || mw.LateIntents != 0 {
		t.Fatalf("restart resurrected a finished job: intents=%d late=%d",
			len(sink.intents), mw.LateIntents)
	}
}

// TestInFlightDroppedOnJobDone is the satellite regression: control messages
// still on the management wire when their job completes must be discarded at
// delivery, never handed to the sink.
func TestInFlightDroppedOnJobDone(t *testing.T) {
	// A management latency far beyond the job duration puts every message
	// "in flight" when the job ends.
	eng, cl, sink, mw, _ := faultRig(Config{MgmtLatency: 1000 * sim.Second})
	cl.Submit(spec(8, 3, 1e6))
	eng.Run()
	if len(sink.intents) != 0 || len(sink.ups) != 0 {
		t.Fatalf("stale deliveries reached the sink: %d intents, %d ups",
			len(sink.intents), len(sink.ups))
	}
	if mw.InFlightDropped != 8+3 {
		t.Fatalf("InFlightDropped = %d, want %d", mw.InFlightDropped, 8+3)
	}
}

func TestSeededMonitorCrashesDeterministic(t *testing.T) {
	run := func() (*recordingSink, *Middleware) {
		eng, cl, sink, mw, _ := faultRig(Config{
			MonitorFaults: &MonitorFaultConfig{CrashProb: 0.4, Downtime: 3 * sim.Second, Seed: 42},
		})
		js := spec(20, 3, 5e6)
		cl.Submit(js)
		eng.Run()
		return sink, mw
	}
	s1, m1 := run()
	s2, m2 := run()
	if m1.MonitorCrashes == 0 || m1.MissedSpills == 0 {
		t.Fatalf("crash probability 0.4 produced no faults: %+v", m1)
	}
	if m1.MonitorCrashes != m2.MonitorCrashes || m1.MissedSpills != m2.MissedSpills ||
		m1.LateIntents != m2.LateIntents || m1.IntentsSent != m2.IntentsSent {
		t.Fatalf("same seed diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			m1.MonitorCrashes, m1.MissedSpills, m1.LateIntents, m1.IntentsSent,
			m2.MonitorCrashes, m2.MissedSpills, m2.LateIntents, m2.IntentsSent)
	}
	if len(s1.intents) != len(s2.intents) {
		t.Fatalf("same seed, different intent counts: %d vs %d", len(s1.intents), len(s2.intents))
	}
}

func TestPredictionErrorBoundedAndSeeded(t *testing.T) {
	const factor = 0.5
	run := func(cfg Config) []Intent {
		eng, cl, sink, _, _ := faultRig(cfg)
		cl.Submit(spec(6, 4, 5e6))
		eng.Run()
		return sink.intents
	}
	exact := run(Config{})
	noisy := run(Config{PredictionErrorFactor: factor, PredictionErrorSeed: 7})
	again := run(Config{PredictionErrorFactor: factor, PredictionErrorSeed: 7})
	if len(noisy) != len(exact) {
		t.Fatalf("noise changed intent count: %d vs %d", len(noisy), len(exact))
	}
	byMap := make(map[int][]float64)
	for _, in := range exact {
		byMap[in.Map] = in.PredictedWireBytes
	}
	changed := false
	for _, in := range noisy {
		want := byMap[in.Map]
		for r, p := range in.PredictedWireBytes {
			if want[r] <= 0 {
				if p != want[r] {
					t.Fatalf("noise touched a zero prediction: map %d r %d", in.Map, r)
				}
				continue
			}
			lo, hi := want[r]*(1-factor), want[r]*(1+factor)
			if p < lo || p > hi {
				t.Fatalf("map %d r %d: noisy %v outside [%v, %v]", in.Map, r, p, lo, hi)
			}
			if p != want[r] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("50% error factor changed no prediction")
	}
	for i := range noisy {
		for r := range noisy[i].PredictedWireBytes {
			if noisy[i].PredictedWireBytes[r] != again[i].PredictedWireBytes[r] {
				t.Fatal("same seed, different noise")
			}
		}
	}
}
