package core

import (
	"testing"

	"pythia/internal/hadoop"
	"pythia/internal/instrument"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Tests for the §VI flow-priority criterion: aggregates feeding the reducer
// with the largest outstanding barrier backlog get first pick of paths.

// intent builds a hand-made shuffle intent for direct sink injection.
func intent(job, mapID int, src topology.NodeID, perReducer []float64) instrument.Intent {
	return instrument.Intent{
		Job: job, Map: mapID, SrcHost: src,
		PredictedWireBytes: perReducer,
	}
}

func up(job, reduce int, host topology.NodeID) instrument.ReducerUp {
	return instrument.ReducerUp{Job: job, Reduce: reduce, Host: host}
}

// critRig builds a Pythia over the testbed with one trunk visibly better
// than the other, so placement order decides who gets the good path.
func critRig(useCrit bool) (*stack, topology.LinkID, topology.LinkID) {
	s := newStack(Config{Aggregate: true, UseCriticality: useCrit}, hadoop.Config{})
	// trunk0 heavily loaded, trunk1 light: first-placed aggregate takes
	// trunk1.
	s.net.SetBackground(s.trunks[0], 0.9*topology.Gbps)
	if r, ok := s.net.Graph().Reverse(s.trunks[0]); ok {
		s.net.SetBackground(r, 0.9*topology.Gbps)
	}
	// Let the link-load poller observe the background before intents.
	s.eng.At(1.5, func() {})
	s.eng.RunUntil(1.5)
	return s, s.trunks[0], s.trunks[1]
}

func pathUsesTrunk(s *stack, a *aggregate, trunk topology.LinkID) bool {
	for _, l := range a.path.Links {
		if l == trunk {
			return true
		}
	}
	return false
}

func injectScenario(s *stack) (critical, casual *aggregate) {
	py := s.py
	// Reducer 0 on rack1-host0 carries a huge backlog from rack0-host2;
	// reducer 1 on rack1-host1 a small one.
	py.ReducerUp(up(0, 0, s.hosts[5]))
	py.ReducerUp(up(0, 1, s.hosts[6]))
	// Backlog builder: 200 MB to reducer 0 from host2.
	py.ShuffleIntent(intent(0, 0, s.hosts[2], []float64{200e6, 0}))
	// Two equal-demand aggregates; demand tie-break (src ID asc) would
	// place host0's first. host0 feeds the *casual* reducer 1, host1
	// feeds the *critical* reducer 0.
	py.ShuffleIntent(intent(0, 1, s.hosts[0], []float64{0, 50e6}))
	py.ShuffleIntent(intent(0, 2, s.hosts[1], []float64{50e6, 0}))

	casual = py.aggregates[pairKey{s.hosts[0], s.hosts[6]}]
	critical = py.aggregates[pairKey{s.hosts[1], s.hosts[5]}]
	return critical, casual
}

func TestCriticalityPrefersBarrierGatingAggregate(t *testing.T) {
	s, _, clean := critRig(true)
	critical, casual := injectScenario(s)
	if critical == nil || casual == nil {
		t.Fatal("aggregates not created")
	}
	if !critical.placed || !casual.placed {
		t.Fatal("aggregates not placed")
	}
	// The backlog-building aggregate (host2→host5, 200 MB) placed first
	// and took the clean trunk; with criticality on, the 50 MB aggregate
	// feeding the same overloaded reducer sorts *before* the equal-sized
	// casual one, which matters for the remaining capacity split.
	if !pathUsesTrunk(s, critical, clean) && pathUsesTrunk(s, casual, clean) {
		t.Fatal("critical aggregate lost the better trunk to the casual one")
	}
}

func TestCriticalityOrderingFlips(t *testing.T) {
	// Directly verify the sort key: with criticality off, the casual
	// host0 aggregate is placed first (src tie-break); with it on, the
	// critical one is. Observe via AggregatesPlaced order proxy: place()
	// count is equal, so instead compare the paths chosen under both
	// configurations — they must differ in at least one run when the
	// ordering flips matters.
	pathsOf := func(useCrit bool) (critClean, casClean bool) {
		s, _, clean := critRig(useCrit)
		critical, casual := injectScenario(s)
		return pathUsesTrunk(s, critical, clean), pathUsesTrunk(s, casual, clean)
	}
	onCrit, onCas := pathsOf(true)
	offCrit, offCas := pathsOf(false)
	t.Logf("crit-on: critical-on-clean=%v casual-on-clean=%v; crit-off: %v %v",
		onCrit, onCas, offCrit, offCas)
	// Invariant: with criticality on, the critical aggregate is never
	// worse off than the casual one.
	if !onCrit && onCas {
		t.Fatal("criticality on, but casual aggregate got the clean trunk exclusively")
	}
}

func TestBacklogDrainsOnFlowCompletion(t *testing.T) {
	s := newStack(Config{Aggregate: true, UseCriticality: true}, hadoop.Config{})
	spec := uniformSpec(6, 3, 2, 10e6)
	j, _ := s.clus.Submit(spec)
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	if s.py.totalBacklog() != 0 {
		t.Fatalf("reducer backlog not drained: %v", s.py.backlogSnapshot())
	}
	if len(s.py.aggregates) != 0 {
		t.Fatalf("aggregates not drained: %d", len(s.py.aggregates))
	}
}

func TestCriticalityEndToEndNoRegression(t *testing.T) {
	// Criticality ordering must never materially hurt: same workload, on
	// vs off, within 10%.
	run := func(useCrit bool) float64 {
		s := newStack(Config{Aggregate: true, UseCriticality: useCrit}, hadoop.Config{})
		s.net.SetBackground(s.trunks[0], 0.9*topology.Gbps)
		if r, ok := s.net.Graph().Reverse(s.trunks[0]); ok {
			s.net.SetBackground(r, 0.9*topology.Gbps)
		}
		spec := uniformSpec(16, 8, 2, 25e6)
		j, _ := s.clus.Submit(spec)
		s.eng.Run()
		return float64(j.Duration())
	}
	off, on := run(false), run(true)
	if on > off*1.10 {
		t.Fatalf("criticality regressed: on=%.1fs off=%.1fs", on, off)
	}
}

func TestDirectDuplicateIntentReplaced(t *testing.T) {
	// Inject a cross-attempt duplicate by hand: same (job, map, reducer)
	// from two different attempts on two different source hosts — the
	// speculative-backup shape. Booking must move, not double.
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	s.py.ReducerUp(up(0, 0, s.hosts[5]))
	first := intent(0, 0, s.hosts[0], []float64{100e6})
	first.Attempt = 1
	s.py.ShuffleIntent(first)
	if got := s.py.OutstandingDemandBits(); got != 100e6*8 {
		t.Fatalf("first booking = %v bits", got)
	}
	second := intent(0, 0, s.hosts[1], []float64{100e6})
	second.Attempt = 2
	s.py.ShuffleIntent(second)
	if got := s.py.OutstandingDemandBits(); got != 100e6*8 {
		t.Fatalf("after duplicate = %v bits, want unchanged total", got)
	}
	if s.py.DuplicateIntents() != 1 {
		t.Fatalf("DuplicateIntents = %d, want 1", s.py.DuplicateIntents())
	}
	// The booking must now live on the host1 aggregate.
	if agg := s.py.aggregates[pairKey{s.hosts[1], s.hosts[5]}]; agg == nil || agg.demandBits != 100e6*8 {
		t.Fatal("booking did not move to the new attempt's host")
	}
	if agg := s.py.aggregates[pairKey{s.hosts[0], s.hosts[5]}]; agg != nil {
		t.Fatal("stale booking left on the old attempt's host")
	}
}

// TestExactDuplicateIntentDropped pins the idempotence key: an identical
// (job, map, attempt) message — a management-network duplication or a
// restart re-scan re-emission — is dropped before any bookkeeping, while a
// different attempt goes through the replace path.
func TestExactDuplicateIntentDropped(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	s.py.ReducerUp(up(0, 0, s.hosts[5]))
	in := intent(0, 0, s.hosts[0], []float64{100e6})
	in.Attempt = 1
	s.py.ShuffleIntent(in)
	s.py.ShuffleIntent(in) // exact duplicate: same attempt
	if s.py.DedupHits() != 1 {
		t.Fatalf("DedupHits = %d, want 1", s.py.DedupHits())
	}
	if s.py.DuplicateIntents() != 0 {
		t.Fatalf("exact duplicate took the replace path: DuplicateIntents = %d", s.py.DuplicateIntents())
	}
	if s.py.IntentsReceived() != 1 {
		t.Fatalf("IntentsReceived = %d, want 1", s.py.IntentsReceived())
	}
	if got := s.py.OutstandingDemandBits(); got != 100e6*8 {
		t.Fatalf("demand after exact duplicate = %v bits, want single booking", got)
	}
	// The booking stays on the original attempt's host.
	if agg := s.py.aggregates[pairKey{s.hosts[0], s.hosts[5]}]; agg == nil || agg.demandBits != 100e6*8 {
		t.Fatal("original booking disturbed by the duplicate")
	}
}

// TestBookkeepingInvariant: at every sampled instant during a busy run, the
// sum of per-(job,map,reducer) bookings equals the sum of aggregate demands
// and the sum of reducer backlogs — no demand is lost or double-counted.
func TestBookkeepingInvariant(t *testing.T) {
	s := newStack(Config{Aggregate: true, UseCriticality: true}, hadoop.Config{})
	spec := uniformSpec(20, 6, 2, 15e6)
	j, _ := s.clus.Submit(spec)
	check := func() {
		var booked, agg, backlog float64
		for _, b := range s.py.bookedSnapshot() {
			booked += b.bits
		}
		for _, a := range s.py.aggregates {
			agg += a.demandBits
		}
		for _, b := range s.py.backlogSnapshot() {
			backlog += b
		}
		// Local bookings (src==dst) are skipped, so booked may exceed agg
		// only by... no: local fetches are never booked. All three must
		// match within float dust.
		if diff := booked - agg; diff > 10 || diff < -10 {
			t.Fatalf("t=%v: booked %v != aggregates %v", s.eng.Now(), booked, agg)
		}
		if diff := booked - backlog; diff > 10 || diff < -10 {
			t.Fatalf("t=%v: booked %v != backlog %v", s.eng.Now(), booked, backlog)
		}
	}
	for i := 1; i <= 40; i++ {
		s.eng.At(sim.Time(float64(i)), check)
	}
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	check()
}
