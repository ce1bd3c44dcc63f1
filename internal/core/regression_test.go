package core

import (
	"math"
	"testing"

	"pythia/internal/hadoop"
	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
)

// accessLinkOf finds the switch→host link serving a host.
func accessLinkOf(t *testing.T, g *topology.Graph, h topology.NodeID) topology.LinkID {
	t.Helper()
	for _, l := range g.Links() {
		if l.To == h && g.Node(l.From).Kind == topology.Switch {
			return l.ID
		}
	}
	t.Fatalf("no access link for host %d", h)
	return -1
}

// A topology change that leaves an aggregate's best path unchanged must be
// counted as a re-affirmation, not a placement: no switch state moves. The
// counter used to inflate on every re-placement pass.
func TestReaffirmationNotCountedAsPlacement(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	s.eng.At(1, func() {
		s.py.ReducerUp(instrument.ReducerUp{Job: 1, Reduce: 0, Host: s.hosts[5]})
		s.py.ShuffleIntent(instrument.Intent{Job: 1, Map: 0, SrcHost: s.hosts[0],
			PredictedWireBytes: []float64{50e6}})
	})
	s.eng.At(2.5, func() {
		if s.py.AggregatesPlaced != 1 {
			t.Fatalf("placements before failure = %d, want 1", s.py.AggregatesPlaced)
		}
		// Fail an uninvolved host's access link: the graph version bumps, so
		// the next poll re-places every aggregate, but the (hosts[0] →
		// hosts[5]) candidate paths are untouched.
		setLinkUp(s.net, accessLinkOf(t, s.net.Graph(), s.hosts[9]), false)
	})
	// Keep the engine alive past the poll that notices the change.
	s.eng.At(4, func() {})
	s.eng.Run()
	if s.py.AggregatesPlaced != 1 {
		t.Fatalf("AggregatesPlaced = %d after unchanged-path re-placement, want 1",
			s.py.AggregatesPlaced)
	}
	if s.py.Reaffirmations != 1 {
		t.Fatalf("Reaffirmations = %d, want 1", s.py.Reaffirmations)
	}
	if s.py.Reallocations != 0 {
		t.Fatalf("Reallocations = %d for an unchanged path, want 0", s.py.Reallocations)
	}
}

// Jobs whose reducers never start must not pin controller state forever:
// JobDone purges pending intents, bookings, backlog, reducer locations and
// drained aggregates, and releases the aggregates' rules.
func TestJobDonePurgesDeadJobState(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	s.eng.At(1, func() {
		// Reducer 1 never comes up, so the intent stays pending and the
		// reducer-0 booking's flow never runs.
		s.py.ShuffleIntent(instrument.Intent{Job: 3, Map: 0, SrcHost: s.hosts[0],
			PredictedWireBytes: []float64{10e6, 20e6}})
		s.py.ReducerUp(instrument.ReducerUp{Job: 3, Reduce: 0, Host: s.hosts[5]})
	})
	s.eng.At(2, func() {
		if s.py.totalPending() != 1 || s.py.totalBooked() != 1 || s.py.liveAggregates() != 1 {
			t.Fatalf("setup: pending=%d booked=%d aggregates=%d, want 1 each",
				s.py.totalPending(), s.py.totalBooked(), s.py.liveAggregates())
		}
		s.py.JobDone(3)
		if n := s.py.totalPending(); n != 0 {
			t.Errorf("pending intents leaked: %d", n)
		}
		if n := s.py.totalBooked(); n != 0 {
			t.Errorf("bookings leaked: %d", n)
		}
		if n := s.py.totalBacklog(); n != 0 {
			t.Errorf("reducer backlog leaked: %d", n)
		}
		if n := s.py.liveAggregates(); n != 0 {
			t.Errorf("aggregates leaked: %d", n)
		}
		if n := s.py.totalReducerLoc(); n != 0 {
			t.Errorf("reducer locations leaked: %d", n)
		}
		if n := s.py.usedLinkSlots(); n != 0 {
			t.Errorf("placement index leaked: %d links", n)
		}
	})
	s.eng.Run()
	if n := tableRules(s.ofc); n != 0 {
		t.Fatalf("flow tables still hold %d rules after JobDone", n)
	}
}

// The middleware must deliver job-completion notifications to sinks that
// implement instrument.JobDoneSink, so a full job run leaves no residual
// per-job state in the controller.
func TestJobDoneWiredThroughMiddleware(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	s.clus.Submit(uniformSpec(8, 2, 2, 5e6))
	s.eng.Run()
	if s.py.totalReducerLoc() != 0 {
		t.Fatalf("reducer locations retained after job completion: %d", s.py.totalReducerLoc())
	}
	if s.py.totalPending() != 0 || s.py.totalBooked() != 0 || s.py.totalBacklog() != 0 {
		t.Fatalf("per-job state retained: pending=%d booked=%d backlog=%d",
			s.py.totalPending(), s.py.totalBooked(), s.py.totalBacklog())
	}
}

// OutstandingDemandBits used to add the aggregates' demands in Go map order,
// so two reads of the same state could differ in the last bits. It must be a
// function of the state alone.
func TestOutstandingDemandBitsReproducible(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(15, 2, topology.Gbps)
	net := netsim.New(eng, g)
	py := New(eng, net, openflow.NewController(eng, net, 0), Config{Aggregate: true})
	rng := stats.NewRNG(3)
	const maps, reducers = 25, 25
	var ops []Op
	for r := 0; r < reducers; r++ {
		ops = append(ops, Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: 1, Reduce: r, Host: hosts[r]}})
	}
	for m := 0; m < maps; m++ {
		bytes := make([]float64, reducers)
		for r := range bytes {
			bytes[r] = 1e6 * (1 + rng.Float64())
		}
		ops = append(ops, Op{Kind: OpIntent, Intent: instrument.Intent{Job: 1, Map: m,
			SrcHost: hosts[(m+5)%len(hosts)], PredictedWireBytes: bytes}})
	}
	py.ApplyBatch(ops, 1)
	if n := py.liveAggregates(); n < 500 {
		t.Fatalf("only %d aggregates; the test needs 500", n)
	}
	want := math.Float64bits(py.OutstandingDemandBits())
	for i := 1; i < 20; i++ {
		if got := math.Float64bits(py.OutstandingDemandBits()); got != want {
			t.Fatalf("call %d returned bits %#x, first call %#x", i, got, want)
		}
	}
}
