package core

import (
	"testing"

	"pythia/internal/hadoop"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/topology"
)

// These tests cover Pythia's §IV fault-tolerance path with the strict
// failure semantics: a downed link carries nothing, so in-flight flows must
// be actively rescued.

// setLinkUp flips one direction of a cable in the graph and tells the network,
// bypassing the fault plane: control-plane listeners hear about it at the next
// poll, as with LLDP-driven discovery.
func setLinkUp(net *netsim.Network, l topology.LinkID, up bool) {
	net.Graph().SetLinkUp(l, up)
	net.NotifyTopology()
}

func failTrunk(s *stack, idx int) {
	setLinkUp(s.net, s.trunks[idx], false)
	if r, ok := s.net.Graph().Reverse(s.trunks[idx]); ok {
		setLinkUp(s.net, r, false)
	}
}

func TestInFlightFlowsRescuedAfterTrunkFailure(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	watchWorklist(t, s)
	// Big flows so plenty are in flight when the trunk dies.
	spec := uniformSpec(10, 4, 3, 120e6)
	j, _ := s.clus.Submit(spec)
	s.eng.At(10, func() {
		// Only rescue matters if flows actually cross trunk0 now.
		if len(s.net.FlowsOn(s.trunks[0])) == 0 {
			rev, _ := s.net.Graph().Reverse(s.trunks[0])
			if len(s.net.FlowsOn(rev)) == 0 {
				t.Log("no flows on trunk0 at failure time; rescue count may be zero")
			}
		}
		failTrunk(s, 0)
	})
	s.eng.Run()
	if !j.Done {
		t.Fatal("job stranded after trunk failure (flows not rescued)")
	}
	// After the poll detects the change, the recomputed paths must avoid
	// the dead trunk — verified implicitly by completion, and explicitly:
	for _, f := range s.net.History() {
		if f.Finished() < 11 {
			continue // may legitimately have used trunk0 before failure
		}
		for _, l := range f.Path.Links {
			if l == s.trunks[0] && f.Started() > 12 {
				t.Fatalf("flow started at %v routed over dead trunk", f.Started())
			}
		}
	}
}

func TestRescueCounterIncrements(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	watchWorklist(t, s)
	spec := uniformSpec(10, 4, 2, 200e6)
	j, _ := s.clus.Submit(spec)
	// Fail whichever trunk carries flows at t=9 (after shuffle has begun).
	s.eng.At(9, func() {
		for idx := range s.trunks {
			rev, _ := s.net.Graph().Reverse(s.trunks[idx])
			if len(s.net.FlowsOn(s.trunks[idx]))+len(s.net.FlowsOn(rev)) > 0 {
				failTrunk(s, idx)
				return
			}
		}
	})
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	// The topology notification arrives at the next controller poll; if
	// flows were crossing the dead trunk, they must have been rescued.
	if s.py.FlowsRescued == 0 {
		t.Log("no flows were mid-trunk at failure time; acceptable but unusual")
	}
}

func TestBothTrunksFailThenRecover(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	watchWorklist(t, s)
	spec := uniformSpec(8, 2, 2, 100e6)
	j, _ := s.clus.Submit(spec)
	g := s.net.Graph()
	all := func(up bool) {
		for _, tr := range s.trunks {
			g.SetLinkUp(tr, up)
			if r, ok := g.Reverse(tr); ok {
				g.SetLinkUp(r, up)
			}
		}
		s.net.NotifyTopology()
	}
	s.eng.At(6, func() { all(false) })
	s.eng.At(30, func() { all(true) })
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not recover after full partition healed")
	}
	if float64(j.Finished) < 30 {
		// Only fails if no shuffle data ever needed to cross racks.
		remote := false
		for _, f := range s.net.History() {
			if len(f.Path.Links) > 2 {
				remote = true
			}
		}
		if remote {
			t.Fatalf("job finished at %v during a full partition", j.Finished)
		}
	}
}

func TestRescuedFlowPathsValid(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	watchWorklist(t, s)
	spec := uniformSpec(12, 4, 2, 150e6)
	j, _ := s.clus.Submit(spec)
	s.eng.At(8, func() { failTrunk(s, 1) })
	var bad []netsim.FlowID
	s.eng.At(15, func() {
		for _, f := range s.net.ActiveList() {
			if len(f.Path.Links) == 0 {
				continue
			}
			if err := f.Path.Valid(s.net.Graph()); err != nil {
				bad = append(bad, f.ID)
			}
		}
	})
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	if len(bad) > 0 {
		t.Fatalf("flows %v still on invalid paths 7s after failure (poll is 1s)", bad)
	}
}

func TestDisconnectedPairStaysStarvedUntilRepair(t *testing.T) {
	// With every trunk down, inter-rack aggregates are unroutable: Pythia
	// must not panic, and flows resume on repair.
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	watchWorklist(t, s)
	g := s.net.Graph()
	var done bool
	p := g.EqualCostPaths(s.hosts[0], s.hosts[5], 2)[0]
	f := s.net.StartFlow(netsim.FiveTuple{SrcHost: s.hosts[0], DstHost: s.hosts[5], SrcPort: 1, DstPort: 1, Protocol: 6},
		p, 1e9, 0, 0, 0, func(*netsim.Flow) { done = true })
	s.eng.At(0.5, func() {
		for _, tr := range s.trunks {
			g.SetLinkUp(tr, false)
			if r, ok := g.Reverse(tr); ok {
				g.SetLinkUp(r, false)
			}
		}
		s.net.NotifyTopology()
	})
	s.eng.At(10, func() {
		for _, tr := range s.trunks {
			g.SetLinkUp(tr, true)
			if r, ok := g.Reverse(tr); ok {
				g.SetLinkUp(r, true)
			}
		}
		s.net.NotifyTopology()
	})
	s.eng.Run()
	if !done {
		t.Fatalf("flow never completed after repair (remaining %v)", f.Remaining())
	}
	_ = topology.Gbps
}

// TestControlPlaneOutageDegradesAndReconciles: with the controller dark,
// installs exhaust their retry budget and the aggregates degrade — each one
// re-entering the worklist from place's own callback chain — and the pass
// that follows recovery takes them back off it.
func TestControlPlaneOutageDegradesAndReconciles(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	watchWorklist(t, s)
	s.ofc.SetFaults(openflow.FaultConfig{InstallTimeout: 0.05, MaxRetries: 2, RetryBackoff: 0.1})
	j, _ := s.clus.Submit(uniformSpec(12, 4, 3, 150e6))
	var degradedQueued int
	s.eng.At(2, s.ofc.FailController)
	s.eng.At(12, func() {
		checkWorklist(t, s.py)
		for _, a := range s.py.unplaced {
			if a.degraded && s.py.live(a) {
				degradedQueued++
			}
		}
		s.ofc.RecoverController()
		checkWorklist(t, s.py)
		for _, a := range s.py.sortedAggregates() {
			if a.degraded || !a.placed {
				t.Errorf("pair %d->%d not re-placed by reconciliation: %+v", a.key.src, a.key.dst, a)
			}
		}
	})
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not survive the controller outage")
	}
	if s.py.AggregatesDegraded == 0 || degradedQueued == 0 || s.py.Reconciliations != degradedQueued {
		t.Fatalf("degraded %d, on the worklist at recovery %d, reconciled %d",
			s.py.AggregatesDegraded, degradedQueued, s.py.Reconciliations)
	}
}
