package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Analytic cross-checks of the max-min fluid model against closed-form
// completion times.

func TestStaggeredFlowsAnalytic(t *testing.T) {
	// Flow A (2 Gbit) starts at t=0 alone on the path: runs at 1 Gbps.
	// Flow B (1 Gbit) joins at t=1 on the same path: both drop to 0.5.
	// A has 1 Gbit left at t=1 → A and B finish together at t=3.
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	var tA, tB sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), p, 2e9, 0, 0, 0, func(f *Flow) { tA = f.Finished() })
	eng.At(1, func() {
		n.StartFlow(tup(hosts[0], hosts[5], 2, 2), p, 1e9, 0, 1, 0, func(f *Flow) { tB = f.Finished() })
	})
	eng.Run()
	if math.Abs(float64(tA)-3) > 1e-6 || math.Abs(float64(tB)-3) > 1e-6 {
		t.Fatalf("tA=%v tB=%v, want both 3s", tA, tB)
	}
}

func TestShortFlowDepartureSpeedsUpSurvivor(t *testing.T) {
	// A (3 Gbit) and B (0.5 Gbit) share a 1 Gbps path from t=0.
	// Both at 0.5 Gbps: B done at t=1 (0.5 Gbit), A has 2.5 Gbit left,
	// then runs at 1 Gbps → done at t=3.5.
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	var tA sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), p, 3e9, 0, 0, 0, func(f *Flow) { tA = f.Finished() })
	n.StartFlow(tup(hosts[0], hosts[5], 2, 2), p, 0.5e9, 0, 1, 0, nil)
	eng.Run()
	if math.Abs(float64(tA)-3.5) > 1e-6 {
		t.Fatalf("survivor finished at %v, want 3.5s", tA)
	}
}

func TestMultiBottleneckMaxMin(t *testing.T) {
	// Case 1: all three flows share a trunk -> global bottleneck, 1/3
	// each even though two also share a source edge.
	eng, n, hosts, _ := testbed()
	pA := pathOf(t, n, hosts[0], hosts[5], 0)
	pB := pathOf(t, n, hosts[0], hosts[6], 0)
	pC := pathOf(t, n, hosts[1], hosts[7], 0) // same trunk (index 0)
	f1 := n.StartFlow(tup(hosts[0], hosts[5], 1, 1), pA, 1e12, 0, 0, 0, nil)
	f2 := n.StartFlow(tup(hosts[0], hosts[6], 2, 2), pB, 1e12, 0, 1, 0, nil)
	f3 := n.StartFlow(tup(hosts[1], hosts[7], 3, 3), pC, 1e12, 0, 2, 0, nil)
	eng.RunUntil(0.001)
	third := 1e9 / 3
	for i, f := range []*Flow{f1, f2, f3} {
		if math.Abs(f.Rate()-third) > 1 {
			t.Fatalf("flow %d rate %v, want 1/3 Gbps (shared trunk)", i, f.Rate())
		}
	}

	// Case 2: move f3 to the other trunk -> f1/f2 limited by their shared
	// source edge (0.5 each), f3 alone at full rate. This is where
	// max-min differs from proportional fairness.
	n.Reroute(f3, pathOf(t, n, hosts[1], hosts[7], 1))
	eng.RunUntil(0.002)
	if math.Abs(f1.Rate()-0.5e9) > 1 || math.Abs(f2.Rate()-0.5e9) > 1 {
		t.Fatalf("edge-shared flows at %v/%v, want 0.5G", f1.Rate(), f2.Rate())
	}
	if math.Abs(f3.Rate()-1e9) > 1 {
		t.Fatalf("isolated flow at %v, want 1G", f3.Rate())
	}
}

// Property: a single flow's duration equals size/(capacity - background)
// for any background level strictly below capacity.
func TestPropertySingleFlowDuration(t *testing.T) {
	f := func(bgRaw uint8, sizeRaw uint16) bool {
		bg := float64(bgRaw%90) / 100 * 1e9 // 0..89% background
		size := (float64(sizeRaw%1000) + 1) * 1e6
		eng := sim.NewEngine()
		g, hosts, trunks := topology.TwoRack(2, 1, topology.Gbps)
		n := New(eng, g)
		p := g.EqualCostPaths(hosts[0], hosts[2], 1)[0]
		var crosses topology.LinkID = -1
		for _, l := range p.Links {
			if l == trunks[0] {
				crosses = l
			}
		}
		if crosses == -1 {
			return false
		}
		n.SetBackground(crosses, bg)
		var done sim.Time
		n.StartFlow(tup(hosts[0], hosts[2], 1, 1), p, size, 0, 0, 0,
			func(fl *Flow) { done = fl.Finished() })
		eng.Run()
		want := size / (1e9 - bg)
		return math.Abs(float64(done)-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinIsJainFair(t *testing.T) {
	// Identical flows through one bottleneck must have fairness 1.0.
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	for i := 0; i < 6; i++ {
		n.StartFlow(tup(hosts[0], hosts[5], uint16(i), 1), p, 1e12, 0, i, 0, nil)
	}
	eng.RunUntil(0.001)
	var rates []float64
	for _, f := range n.active {
		rates = append(rates, f.Rate())
	}
	if f := jainFairness(rates); math.Abs(f-1) > 1e-9 {
		t.Fatalf("max-min fairness index = %v, want 1.0", f)
	}
}

// jainFairness is Jain's index (Σx)²/(n·Σx²): 1 when every share is equal,
// 1/n when one flow takes everything.
func jainFairness(xs []float64) float64 {
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
