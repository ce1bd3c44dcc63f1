package netsim

import (
	"math"
	"testing"

	"pythia/internal/sim"
)

// These tests cover the failure-injection semantics: a flow whose path
// crosses a downed link starves immediately (once NotifyTopology runs) and
// resumes when the link recovers or the flow is rerouted.

func TestFlowStarvesOnLinkFailure(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	var done sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), p, 2e9, 0, 0, 0,
		func(f *Flow) { done = f.Finished() })
	// Fail the trunk at t=1 (half transferred), restore at t=5.
	trunk := p.Links[1]
	eng.At(1, func() {
		n.Graph().SetLinkUp(trunk, false)
		n.NotifyTopology()
	})
	eng.At(5, func() {
		n.Graph().SetLinkUp(trunk, true)
		n.NotifyTopology()
	})
	eng.Run()
	// 1 s at 1 Gbps + 4 s starved + 1 s to finish = 6 s.
	if math.Abs(float64(done)-6) > 1e-6 {
		t.Fatalf("flow finished at %v, want 6s (starve window honored)", done)
	}
}

func TestFailureOnlyAffectsCrossingFlows(t *testing.T) {
	eng, n, hosts, _ := testbed()
	pA := pathOf(t, n, hosts[0], hosts[5], 0)
	pB := pathOf(t, n, hosts[1], hosts[6], 1) // other trunk
	var tA, tB sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), pA, 2e9, 0, 0, 0, func(f *Flow) { tA = f.Finished() })
	n.StartFlow(tup(hosts[1], hosts[6], 2, 2), pB, 2e9, 0, 1, 1, func(f *Flow) { tB = f.Finished() })
	eng.At(0.5, func() {
		n.Graph().SetLinkUp(pA.Links[1], false)
		n.NotifyTopology()
	})
	eng.At(4, func() {
		n.Graph().SetLinkUp(pA.Links[1], true)
		n.NotifyTopology()
	})
	eng.Run()
	if math.Abs(float64(tB)-2) > 1e-6 {
		t.Fatalf("unaffected flow finished at %v, want 2s", tB)
	}
	if math.Abs(float64(tA)-5.5) > 1e-6 {
		t.Fatalf("affected flow finished at %v, want 5.5s", tA)
	}
}

func TestRerouteRescuesStarvedFlow(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p0 := pathOf(t, n, hosts[0], hosts[5], 0)
	p1 := pathOf(t, n, hosts[0], hosts[5], 1)
	var done sim.Time
	f := n.StartFlow(tup(hosts[0], hosts[5], 1, 1), p0, 2e9, 0, 0, 0,
		func(fl *Flow) { done = fl.Finished() })
	eng.At(1, func() {
		n.Graph().SetLinkUp(p0.Links[1], false)
		n.NotifyTopology()
	})
	eng.At(3, func() { n.Reroute(f, p1) })
	eng.Run()
	// 1 s transferred, 2 s starved, 1 s on the new trunk.
	if math.Abs(float64(done)-4) > 1e-6 {
		t.Fatalf("rescued flow finished at %v, want 4s", done)
	}
}

func TestActiveList(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), p, 1e12, 0, 0, 0, nil)
	n.StartFlow(tup(hosts[1], hosts[6], 2, 2), pathOf(t, n, hosts[1], hosts[6], 1), 1e12, 0, 1, 1, nil)
	eng.RunUntil(0.01)
	var fs []*Flow
	n.ForEachActive(func(f *Flow) { fs = append(fs, f) })
	if len(fs) != 2 {
		t.Fatalf("active = %d", len(fs))
	}
	if fs[0].ID > fs[1].ID {
		t.Fatal("not ordered by ID")
	}
}

func TestNotifyTopologyPreservesProgress(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	f := n.StartFlow(tup(hosts[0], hosts[5], 1, 1), p, 4e9, 0, 0, 0, nil)
	eng.At(1, func() {
		n.NotifyTopology() // no actual change: must be a harmless no-op
		if moved := f.SizeBits - f.Remaining(); math.Abs(moved-1e9) > 1e3 {
			t.Errorf("progress after 1s = %v, want 1e9", moved)
		}
	})
	eng.Run()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
}
