package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pythia/internal/sim"
	"pythia/internal/topology"
)

// testbed returns the paper topology: 2 racks x 5 hosts, 2 trunks, 1 Gbps.
func testbed() (*sim.Engine, *Network, []topology.NodeID, []topology.LinkID) {
	eng := sim.NewEngine()
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	return eng, New(eng, g), hosts, trunks
}

func pathOf(t *testing.T, n *Network, src, dst topology.NodeID, idx int) topology.Path {
	t.Helper()
	paths := n.Graph().EqualCostPaths(src, dst, 4)
	if len(paths) <= idx {
		t.Fatalf("only %d paths from %d to %d", len(paths), src, dst)
	}
	return paths[idx]
}

func tup(src, dst topology.NodeID, sp, dp uint16) FiveTuple {
	return FiveTuple{SrcHost: src, DstHost: dst, SrcPort: sp, DstPort: dp, Protocol: 6}
}

func TestSingleFlowFullRate(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	var done *Flow
	n.StartFlow(tup(hosts[0], hosts[5], 1000, 2000), Shuffle, p, 1e9, 0, 0, 0, func(f *Flow) { done = f })
	eng.Run()
	if done == nil {
		t.Fatal("flow did not complete")
	}
	// 1 Gbit over an uncontended 1 Gbps path = 1 second.
	if d := float64(done.Duration()); math.Abs(d-1.0) > 1e-6 {
		t.Fatalf("duration = %v, want 1s", d)
	}
	if !done.Done() || done.Remaining() != 0 {
		t.Fatal("completion state inconsistent")
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	p2 := pathOf(t, n, hosts[1], hosts[5], 0)
	// Both use trunk0? Ensure same trunk: path index 0 for both should pick
	// lowest link IDs; they share the host5 edge link anyway (dst edge).
	var t1, t2 sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 1e9, 0, 0, 0, func(f *Flow) { t1 = f.Finished() })
	n.StartFlow(tup(hosts[1], hosts[5], 2, 2), Shuffle, p2, 1e9, 0, 1, 0, func(f *Flow) { t2 = f.Finished() })
	eng.Run()
	// Shared destination edge link: each gets 500 Mbps, so 2 s each.
	if math.Abs(float64(t1)-2) > 1e-6 || math.Abs(float64(t2)-2) > 1e-6 {
		t.Fatalf("finish times = %v, %v, want 2s both", t1, t2)
	}
}

func TestDisjointPathsNoInterference(t *testing.T) {
	eng, n, hosts, _ := testbed()
	pA := pathOf(t, n, hosts[0], hosts[5], 0) // trunk 0
	pB := pathOf(t, n, hosts[1], hosts[6], 1) // trunk 1
	var tA, tB sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, pA, 1e9, 0, 0, 0, func(f *Flow) { tA = f.Finished() })
	n.StartFlow(tup(hosts[1], hosts[6], 2, 2), Shuffle, pB, 1e9, 0, 1, 1, func(f *Flow) { tB = f.Finished() })
	eng.Run()
	if math.Abs(float64(tA)-1) > 1e-6 || math.Abs(float64(tB)-1) > 1e-6 {
		t.Fatalf("disjoint flows = %v, %v, want 1s both", tA, tB)
	}
}

func TestCollidingTrunkHalvesRate(t *testing.T) {
	eng, n, hosts, _ := testbed()
	pA := pathOf(t, n, hosts[0], hosts[5], 0)
	pB := pathOf(t, n, hosts[1], hosts[6], 0) // same trunk as pA
	var tA, tB sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, pA, 1e9, 0, 0, 0, func(f *Flow) { tA = f.Finished() })
	n.StartFlow(tup(hosts[1], hosts[6], 2, 2), Shuffle, pB, 1e9, 0, 1, 1, func(f *Flow) { tB = f.Finished() })
	eng.Run()
	if math.Abs(float64(tA)-2) > 1e-6 || math.Abs(float64(tB)-2) > 1e-6 {
		t.Fatalf("colliding flows = %v, %v, want 2s both", tA, tB)
	}
}

func TestBackgroundReducesRate(t *testing.T) {
	eng, n, hosts, trunks := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	// Identify which trunk p uses and load it to 50%.
	var used topology.LinkID = -1
	for _, l := range p.Links {
		for _, tr := range trunks {
			if l == tr {
				used = l
			}
		}
	}
	if used == -1 {
		t.Fatal("path does not cross a trunk")
	}
	n.SetBackground(used, 0.5*topology.Gbps)
	var done sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 1e9, 0, 0, 0, func(f *Flow) { done = f.Finished() })
	eng.Run()
	if math.Abs(float64(done)-2) > 1e-6 {
		t.Fatalf("flow with 50%% background = %v, want 2s", done)
	}
}

func TestBackgroundClamping(t *testing.T) {
	_, n, _, trunks := testbed()
	n.SetBackground(trunks[0], 5*topology.Gbps)
	if got := n.BackgroundOn(trunks[0]); got != topology.Gbps {
		t.Fatalf("background clamped to %v, want capacity", got)
	}
	n.SetBackground(trunks[0], -1)
	if got := n.BackgroundOn(trunks[0]); got != 0 {
		t.Fatalf("negative background = %v, want 0", got)
	}
}

func TestStarvedFlowResumesWhenBackgroundDrops(t *testing.T) {
	eng, n, hosts, trunks := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	var used topology.LinkID = -1
	for _, l := range p.Links {
		for _, tr := range trunks {
			if l == tr {
				used = l
			}
		}
	}
	n.SetBackground(used, topology.Gbps) // fully saturated: flow starves
	var done sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 1e9, 0, 0, 0, func(f *Flow) { done = f.Finished() })
	eng.At(10, func() { n.SetBackground(used, 0) })
	eng.Run()
	// Starved for 10 s, then 1 s at full rate.
	if math.Abs(float64(done)-11) > 1e-6 {
		t.Fatalf("resumed flow finished at %v, want 11s", done)
	}
}

func TestLocalZeroHopFlow(t *testing.T) {
	eng, n, hosts, _ := testbed()
	local := topology.Path{Src: hosts[0], Dst: hosts[0]}
	var done *Flow
	n.StartFlow(tup(hosts[0], hosts[0], 1, 1), Shuffle, local, 8e9, 0, 0, 0, func(f *Flow) { done = f })
	eng.Run()
	if done == nil {
		t.Fatal("local flow did not complete")
	}
	if d := float64(done.Duration()); math.Abs(d-1) > 1e-6 {
		t.Fatalf("local 8 Gbit at default 8 Gbps = %v, want 1s", d)
	}
	if n.HostTxBits(hosts[0]) != 0 {
		t.Fatal("local flow counted as network TX")
	}
}

func TestSetLocalBps(t *testing.T) {
	eng, n, hosts, _ := testbed()
	n.SetLocalBps(1e9)
	local := topology.Path{Src: hosts[0], Dst: hosts[0]}
	var done *Flow
	n.StartFlow(tup(hosts[0], hosts[0], 1, 1), Shuffle, local, 1e9, 0, 0, 0, func(f *Flow) { done = f })
	eng.Run()
	if d := float64(done.Duration()); math.Abs(d-1) > 1e-6 {
		t.Fatalf("duration = %v, want 1s", d)
	}
}

func TestStartFlowValidation(t *testing.T) {
	_, n, hosts, _ := testbed()
	p := topology.Path{Src: hosts[0], Dst: hosts[0]}
	for _, fn := range []func(){
		func() { n.StartFlow(tup(hosts[0], hosts[0], 1, 1), Shuffle, p, 0, 0, 0, 0, nil) },
		func() { n.StartFlow(tup(hosts[1], hosts[0], 1, 1), Shuffle, p, 1, 0, 0, 0, nil) },
		func() { n.SetLocalBps(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid call did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestUtilizationAndAvailable(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 1e12, 0, 0, 0, nil)
	eng.RunUntil(0.1)
	for _, l := range p.Links {
		if u := n.Utilization(l); math.Abs(u-1.0) > 1e-9 {
			t.Fatalf("utilization on path link = %v, want 1.0", u)
		}
		if a := n.AvailableBps(l); a != 0 {
			t.Fatalf("available on saturated link = %v, want 0", a)
		}
	}
	// An unused link is idle.
	other := pathOf(t, n, hosts[1], hosts[6], 1)
	idle := other.Links[1] // trunk of the other path
	if u := n.Utilization(idle); u != 0 {
		t.Fatalf("idle link utilization = %v", u)
	}
	if a := n.AvailableBps(idle); a != topology.Gbps {
		t.Fatalf("idle link available = %v", a)
	}
}

func TestHostTxAccounting(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 1e9, 0, 0, 0, nil)
	eng.RunUntil(0.5)
	got := n.HostTxBits(hosts[0])
	if math.Abs(got-0.5e9) > 1e3 {
		t.Fatalf("TX after 0.5s = %v, want 5e8", got)
	}
	eng.Run()
	if got := n.HostTxBits(hosts[0]); math.Abs(got-1e9) > 1e3 {
		t.Fatalf("final TX = %v, want 1e9", got)
	}
}

func TestLinkBitsAccounting(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 2e9, 0, 0, 0, nil)
	eng.Run()
	for _, l := range p.Links {
		if got := n.LinkBits(l); math.Abs(got-2e9) > 1e3 {
			t.Fatalf("link %d carried %v bits, want 2e9", l, got)
		}
	}
}

func TestBackgroundDoesNotCountAsData(t *testing.T) {
	eng, n, _, trunks := testbed()
	n.SetBackground(trunks[0], 0.9*topology.Gbps)
	eng.RunUntil(10)
	if got := n.LinkBits(trunks[0]); got != 0 {
		t.Fatalf("background counted as data: %v bits", got)
	}
}

func TestFlowsOn(t *testing.T) {
	eng, n, hosts, _ := testbed()
	pA := pathOf(t, n, hosts[0], hosts[5], 0)
	pB := pathOf(t, n, hosts[1], hosts[6], 0)
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, pA, 1e12, 0, 0, 0, nil)
	n.StartFlow(tup(hosts[1], hosts[6], 2, 2), Shuffle, pB, 1e12, 0, 1, 1, nil)
	eng.RunUntil(0.01)
	trunk := pA.Links[1]
	fs := n.FlowsOn(trunk)
	if len(fs) != 2 {
		t.Fatalf("FlowsOn trunk = %d flows, want 2", len(fs))
	}
	if fs[0].ID > fs[1].ID {
		t.Fatal("FlowsOn not ordered by ID")
	}
	edge := pA.Links[0]
	if fs := n.FlowsOn(edge); len(fs) != 1 {
		t.Fatalf("FlowsOn src edge = %d, want 1", len(fs))
	}
}

func TestReroute(t *testing.T) {
	eng, n, hosts, trunks := testbed()
	p0 := pathOf(t, n, hosts[0], hosts[5], 0)
	p1 := pathOf(t, n, hosts[0], hosts[5], 1)
	// Saturate trunk0 with background; flow starts there, then is rerouted.
	var onP0 topology.LinkID = -1
	for _, l := range p0.Links {
		for _, tr := range trunks {
			if l == tr {
				onP0 = l
			}
		}
	}
	n.SetBackground(onP0, topology.Gbps)
	var done sim.Time
	f := n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p0, 1e9, 0, 0, 0, func(f *Flow) { done = f.Finished() })
	eng.At(5, func() { n.Reroute(f, p1) })
	eng.Run()
	// Starved 5 s on trunk0, then 1 s on trunk1.
	if math.Abs(float64(done)-6) > 1e-6 {
		t.Fatalf("rerouted flow finished at %v, want 6s", done)
	}
}

func TestRerouteValidation(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	f := n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 1e6, 0, 0, 0, nil)
	wrong := pathOf(t, n, hosts[1], hosts[6], 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reroute with mismatched endpoints did not panic")
			}
		}()
		n.Reroute(f, wrong)
	}()
	eng.Run()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reroute of done flow did not panic")
			}
		}()
		n.Reroute(f, p)
	}()
}

func TestHistoryOrder(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 2e9, 0, 0, 0, nil)
	n.StartFlow(tup(hosts[1], hosts[6], 2, 2), Shuffle, pathOf(t, n, hosts[1], hosts[6], 1), 1e9, 0, 1, 1, nil)
	eng.Run()
	h := n.History()
	if len(h) != 2 {
		t.Fatalf("history = %d, want 2", len(h))
	}
	if h[0].Finished() > h[1].Finished() {
		t.Fatal("history not in completion order")
	}
}

func TestOnFlowCompleteGlobalHook(t *testing.T) {
	eng, n, hosts, _ := testbed()
	count := 0
	n.OnFlowComplete(func(f *Flow) { count++ })
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 1e6, 0, 0, 0, nil)
	n.StartFlow(tup(hosts[0], hosts[5], 1, 2), Shuffle, p, 1e6, 0, 0, 1, nil)
	eng.Run()
	if count != 2 {
		t.Fatalf("global hook fired %d times, want 2", count)
	}
}

func TestFlowKindString(t *testing.T) {
	if Shuffle.String() != "shuffle" || Background.String() != "background" || Control.String() != "control" {
		t.Fatal("FlowKind strings wrong")
	}
	if FlowKind(42).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

// Property: conservation — total bits delivered equals flow size for any
// random set of flows on the testbed, and the sum of rates on any link never
// exceeds its residual capacity.
func TestPropertyConservationAndCapacity(t *testing.T) {
	f := func(sizes []uint8, pathSel []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 30 {
			return true
		}
		eng, n, hosts, _ := testbed()
		g := n.Graph()
		type want struct {
			f    *Flow
			size float64
		}
		var wants []want
		for i, s := range sizes {
			size := (float64(s) + 1) * 1e7
			src := hosts[i%5]
			dst := hosts[5+(i+3)%5]
			sel := 0
			if i < len(pathSel) {
				sel = int(pathSel[i]) % 2
			}
			paths := g.EqualCostPaths(src, dst, 2)
			p := paths[sel%len(paths)]
			fl := n.StartFlow(tup(src, dst, uint16(i), uint16(i+1)), Shuffle, p, size, 0, i, 0, nil)
			wants = append(wants, want{fl, size})
		}
		// Capacity check mid-flight.
		eng.RunUntil(0.001)
		for _, l := range g.Links() {
			sum := 0.0
			for _, fl := range n.FlowsOn(l.ID) {
				sum += fl.Rate()
			}
			if sum > l.CapacityBps*(1+1e-9) {
				return false
			}
		}
		eng.Run()
		for _, w := range wants {
			if !w.f.Done() {
				return false
			}
			if math.Abs(w.f.Transferred()-w.size) > 10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min fairness — with n identical flows on one bottleneck,
// each gets capacity/n.
func TestPropertyEqualShares(t *testing.T) {
	for _, count := range []int{1, 2, 3, 5, 8} {
		eng, n, hosts, _ := testbed()
		p := pathOf(t, n, hosts[0], hosts[5], 0)
		for i := 0; i < count; i++ {
			n.StartFlow(tup(hosts[0], hosts[5], uint16(i), 1), Shuffle, p, 1e12, 0, i, 0, nil)
		}
		eng.RunUntil(0.001)
		wantRate := topology.Gbps / float64(count)
		for _, fl := range n.FlowsOn(p.Links[0]) {
			if math.Abs(fl.Rate()-wantRate) > 1 {
				t.Fatalf("count=%d rate=%v want=%v", count, fl.Rate(), wantRate)
			}
		}
	}
}

func BenchmarkRecompute100Flows(b *testing.B) {
	eng, n, hosts, _ := testbed()
	g := n.Graph()
	paths := g.EqualCostPaths(hosts[0], hosts[5], 2)
	for i := 0; i < 100; i++ {
		n.StartFlow(tup(hosts[i%5], hosts[5+i%5], uint16(i), 1), Shuffle,
			g.EqualCostPaths(hosts[i%5], hosts[5+i%5], 2)[i%2], 1e15, 0, i, 0, nil)
	}
	_ = paths
	eng.RunUntil(0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.recompute()
	}
}
