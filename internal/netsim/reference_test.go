package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pythia/internal/sim"
	"pythia/internal/topology"
)

// The full-scan reference. The production allocator and telemetry read link
// occupancy and convergence counts from the per-link index that
// StartFlow/Reroute/completion maintain incrementally; everything below
// derives the same quantities from nothing but n.active and the graph, the
// way the simulator did before the index existed. It is the oracle the
// production state is compared with bit for bit after every step of the
// scripts and of the seeded random driver in this file.

// refRates computes the max-min fair rate of every active flow (parallel to
// n.active) by progressive filling over a fresh scan of the active set.
func refRates(n *Network) []float64 {
	nl := n.g.NumLinks()
	counts := make([]int, nl)
	terminal := make([]int, nl)
	residual := make([]float64, nl)
	seen := make([]bool, nl)
	var work []topology.LinkID
	for _, f := range n.active {
		for _, l := range f.Path.Links {
			if !seen[l] {
				seen[l] = true
				work = append(work, l)
			}
			counts[l]++
		}
		if k := len(f.Path.Links); k > 0 {
			terminal[f.Path.Links[k-1]]++
		}
	}
	for _, l := range work {
		residual[l] = n.linkResidual(l, terminal[l])
	}

	rates := make([]float64, len(n.active))
	unfixed := make([]bool, len(n.active))
	unfixedCount := 0
	for i, f := range n.active {
		if len(f.Path.Links) == 0 {
			rates[i] = n.localBps
			continue
		}
		unfixed[i] = true
		unfixedCount++
	}
	for unfixedCount > 0 {
		bestShare := math.Inf(1)
		var bottleneck topology.LinkID = -1
		for _, l := range work {
			if counts[l] <= 0 {
				continue
			}
			share := residual[l] / float64(counts[l])
			if share < bestShare || (share == bestShare && (bottleneck == -1 || l < bottleneck)) {
				bestShare = share
				bottleneck = l
			}
		}
		if bottleneck == -1 || math.IsInf(bestShare, 1) {
			break
		}
		for i, f := range n.active {
			if !unfixed[i] || !crosses(f, bottleneck) {
				continue
			}
			rates[i] = bestShare
			unfixed[i] = false
			unfixedCount--
			for _, l := range f.Path.Links {
				residual[l] -= bestShare
				if residual[l] < 0 {
					residual[l] = 0
				}
				counts[l]--
			}
		}
	}
	return rates
}

func crosses(f *Flow, link topology.LinkID) bool {
	for _, l := range f.Path.Links {
		if l == link {
			return true
		}
	}
	return false
}

// refFlowsOn scans the active set (ascending flow ID) for the flows crossing
// a link.
func refFlowsOn(n *Network, link topology.LinkID) []*Flow {
	var fs []*Flow
	for _, f := range n.active {
		if crosses(f, link) {
			fs = append(fs, f)
		}
	}
	return fs
}

// refLinkStats is LinkStats over refFlowsOn and the given rates.
func refLinkStats(n *Network, link topology.LinkID, rate map[*Flow]float64) (utilization, availableBps, shuffleBps float64) {
	capBps := n.g.Link(link).CapacityBps
	used := n.BackgroundOn(link)
	for _, f := range refFlowsOn(n, link) {
		used += rate[f]
		if f.Kind == Shuffle {
			shuffleBps += rate[f]
		}
	}
	utilization = used / capBps
	if utilization > 1 {
		utilization = 1
	}
	if used < capBps {
		availableBps = capBps - used
	}
	return utilization, availableBps, shuffleBps
}

// checkReference compares every rate, every link's telemetry and every
// link's occupancy list with the full-scan reference at the current instant.
func checkReference(n *Network) error {
	rates := refRates(n)
	byFlow := make(map[*Flow]float64, len(rates))
	for i, f := range n.active {
		if math.Float64bits(f.rate) != math.Float64bits(rates[i]) {
			return fmt.Errorf("flow %d: rate %v, full-scan reference %v", f.ID, f.rate, rates[i])
		}
		byFlow[f] = rates[i]
	}
	for _, l := range n.g.Links() {
		want := refFlowsOn(n, l.ID)
		got := n.FlowsOn(l.ID)
		if len(got) != len(want) {
			return fmt.Errorf("link %d: FlowsOn has %d flows, full scan %d", l.ID, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("link %d: FlowsOn[%d] = flow %d, full scan flow %d", l.ID, i, got[i].ID, want[i].ID)
			}
		}
		u, a, s := n.LinkStats(l.ID)
		ru, ra, rs := refLinkStats(n, l.ID, byFlow)
		if math.Float64bits(u) != math.Float64bits(ru) || math.Float64bits(a) != math.Float64bits(ra) ||
			math.Float64bits(s) != math.Float64bits(rs) {
			return fmt.Errorf("link %d: LinkStats (%v,%v,%v), full scan (%v,%v,%v)", l.ID, u, a, s, ru, ra, rs)
		}
	}
	return nil
}

// runChecked drives the engine dry one event at a time, checking the
// reference after each. Identical rates at every instant imply identical
// completion times, so a script that passes would have produced the same
// flow history under the full-scan allocator.
func runChecked(t *testing.T, eng *sim.Engine, n *Network) {
	t.Helper()
	for eng.Step() {
		if err := checkReference(n); err != nil {
			t.Fatalf("at t=%v: %v", eng.Now(), err)
		}
	}
}

// historyDigest is the FNV-1a fingerprint of the completed flows in
// completion order: ID, path links, exact start and finish instants.
func historyDigest(n *Network) uint64 {
	h := fnv.New64a()
	var b [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	n.ForEachCompleted(func(f *Flow) {
		mix(uint64(f.ID))
		mix(uint64(len(f.Path.Links)))
		for _, l := range f.Path.Links {
			mix(uint64(l))
		}
		mix(math.Float64bits(float64(f.Started())))
		mix(math.Float64bits(float64(f.Finished())))
	})
	return h.Sum64()
}

// The scripts below are the workloads the allocator-mode golden tests ran
// once per mode. Each now runs once under runChecked, and its flow history
// must match the digest the default configuration of commit 7238f54 (the
// last with the mode matrix) produced for it — captured there with a
// throwaway test that ran the same script functions under eng.Run() and
// printed historyDigest.

// meshScript is a staggered 5×5 mesh with a mid-flight reroute and
// background churn on one trunk.
func meshScript(t *testing.T, eng *sim.Engine, n *Network, hosts []topology.NodeID, trunks []topology.LinkID) {
	var tracked *Flow
	k := 0
	for i := 0; i < 5; i++ {
		for j := 5; j < 10; j++ {
			k++
			i, j, k := i, j, k
			eng.At(sim.Time(float64(k%7)*0.05), func() {
				p := pathOf(t, n, hosts[i], hosts[j], k%2)
				f := n.StartFlow(tup(hosts[i], hosts[j], uint16(k), uint16(k)),
					Shuffle, p, float64(1+k%3)*3e8, 0, i, j, nil)
				if tracked == nil {
					tracked = f
				}
			})
		}
	}
	eng.At(0.2, func() { n.SetBackground(trunks[0], 0.3e9) })
	eng.At(0.6, func() {
		if tracked != nil && !tracked.Done() {
			n.Reroute(tracked, pathOf(t, n, tracked.Tuple.SrcHost, tracked.Tuple.DstHost, 1))
		}
	})
	eng.At(1.1, func() { n.SetBackground(trunks[0], 0) })
}

// sequentialScript starts the same mesh one flow every 50 ms, so most
// instants see a single arrival or departure.
func sequentialScript(t *testing.T, eng *sim.Engine, n *Network, hosts []topology.NodeID) {
	k := 0
	for i := 0; i < 5; i++ {
		for j := 5; j < 10; j++ {
			k++
			i, j, k := i, j, k
			eng.At(sim.Time(float64(k)*0.05), func() {
				p := pathOf(t, n, hosts[i], hosts[j], k%2)
				n.StartFlow(tup(hosts[i], hosts[j], uint16(k), uint16(k)),
					Shuffle, p, float64(1+k%3)*3e8, 0, i, j, nil)
			})
		}
	}
}

// multiComponentScript runs on a 4-leaf/2-spine fabric: intra-rack pairs
// that share no link with each other (several independent components per
// instant), flows that merge them mid-run, fabric-wide cross-rack flows, a
// trunk failure and recovery, and background on one edge link.
func multiComponentScript(eng *sim.Engine, n *Network, hosts []topology.NodeID) {
	g := n.Graph()
	started := 0
	start := func(at sim.Time, src, dst topology.NodeID, pathIdx int, bits float64) {
		eng.At(at, func() {
			ps := g.EqualCostPaths(src, dst, 4)
			started++
			n.StartFlow(tup(src, dst, uint16(started), 9), Shuffle, ps[pathIdx%len(ps)], bits, 0, int(src), int(dst), nil)
		})
	}
	for r := 0; r < 4; r++ {
		a, b := hosts[r*4], hosts[r*4+1]
		c, d := hosts[r*4+2], hosts[r*4+3]
		start(0, a, b, 0, 3e8)
		start(0, c, d, 0, 2e8)
		start(0.1, a, c, 0, 5e8)
	}
	start(0.05, hosts[0], hosts[7], 0, 4e8)
	start(0.05, hosts[5], hosts[12], 1, 4e8)
	start(0.2, hosts[3], hosts[15], 0, 6e8)
	eng.At(0.15, func() {
		var trunk topology.LinkID = -1
		for l := 0; l < g.NumLinks(); l++ {
			lk := g.Link(topology.LinkID(l))
			if g.Node(lk.From).Kind == topology.Switch && g.Node(lk.To).Kind == topology.Switch {
				trunk = topology.LinkID(l)
				break
			}
		}
		g.SetLinkUp(trunk, false)
		n.NotifyTopology()
		eng.At(0.3, func() {
			g.SetLinkUp(trunk, true)
			n.NotifyTopology()
		})
	})
	eng.At(0.25, func() { n.SetBackground(topology.LinkID(0), 2e8) })
}

// TestAllocModesBitIdentical: on every script, the production allocator's
// rates equal the full-scan reference's after every event, and the flow
// history equals the one the deleted incremental allocator produced.
func TestAllocModesBitIdentical(t *testing.T) {
	t.Run("mesh", func(t *testing.T) {
		eng, n, hosts, trunks := testbed()
		meshScript(t, eng, n, hosts, trunks)
		runChecked(t, eng, n)
		wantHistory(t, n, 25, 0x94b7eb23b16a2e14)
	})
	t.Run("multi-component", func(t *testing.T) {
		eng := sim.NewEngine()
		g, hosts := topology.LeafSpine(4, 2, 4, topology.Gbps)
		n := New(eng, g)
		multiComponentScript(eng, n, hosts)
		runChecked(t, eng, n)
		wantHistory(t, n, 15, 0x1d74e0ca26f8b55e)
	})
}

func wantHistory(t *testing.T, n *Network, wantFlows int, want uint64) {
	t.Helper()
	if got := historyDigest(n); n.CompletedFlows() != wantFlows || got != want {
		t.Fatalf("got %d flows, digest %#x; pinned %d flows, digest %#x", n.CompletedFlows(), got, wantFlows, want)
	}
}

// TestScanBaselineFullRunIdentical is the same guarantee on the sequential
// arrival pattern.
func TestScanBaselineFullRunIdentical(t *testing.T) {
	eng, n, hosts, _ := testbed()
	sequentialScript(t, eng, n, hosts)
	runChecked(t, eng, n)
	wantHistory(t, n, 25, 0xe40f21f149c2f4f2)
}

// TestAllocModesIdenticalUnderFailure: link failure and recovery
// (NotifyTopology) — the starvation window's shape depends on the allocator
// honoring down links at the right instants.
func TestAllocModesIdenticalUnderFailure(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := pathOf(t, n, hosts[0], hosts[5], 0)
	trunk := p.Links[1]
	var done sim.Time
	n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, p, 2e9, 0, 0, 0,
		func(f *Flow) { done = f.Finished() })
	eng.At(1, func() {
		n.Graph().SetLinkUp(trunk, false)
		n.NotifyTopology()
	})
	eng.At(5, func() {
		n.Graph().SetLinkUp(trunk, true)
		n.NotifyTopology()
	})
	runChecked(t, eng, n)
	if float64(done) != 6 {
		t.Fatalf("completion = %v, want 6s", done)
	}
}

// TestIndexMatchesScanAcrossLifecycle checks the per-link index and the
// telemetry built on it at instants the engine loop does not stop at: right
// after a batch of same-instant starts, right after a reroute, mid-flight
// and after the last completion.
func TestIndexMatchesScanAcrossLifecycle(t *testing.T) {
	eng, n, hosts, _ := testbed()
	check := func() {
		t.Helper()
		if err := checkReference(n); err != nil {
			t.Fatalf("at t=%v: %v", eng.Now(), err)
		}
	}
	var tracked *Flow
	k := 0
	for i := 0; i < 5; i++ {
		for j := 5; j < 10; j++ {
			k++
			p := pathOf(t, n, hosts[i], hosts[j], k%2)
			f := n.StartFlow(tup(hosts[i], hosts[j], uint16(k), uint16(k)),
				Shuffle, p, float64(k)*2e8, 0, i, j, nil)
			if tracked == nil {
				tracked = f
			}
			check()
		}
	}
	eng.At(0.1, check)
	eng.At(0.5, func() {
		if !tracked.Done() {
			n.Reroute(tracked, pathOf(t, n, tracked.Tuple.SrcHost, tracked.Tuple.DstHost, 1))
		}
		check()
	})
	eng.At(3.0, check)
	eng.Run()
	check()
	if len(n.ActiveList()) != 0 {
		t.Fatal("flows still active after run")
	}
}

// A mutation on one trunk must not change flows confined to the other.
func TestIncrementalComponentScope(t *testing.T) {
	eng, n, hosts, trunks := testbed()
	pA := pathOf(t, n, hosts[0], hosts[5], 0) // trunk 0
	pB := pathOf(t, n, hosts[1], hosts[6], 1) // trunk 1
	fA := n.StartFlow(tup(hosts[0], hosts[5], 1, 1), Shuffle, pA, 4e9, 0, 0, 0, nil)
	fB := n.StartFlow(tup(hosts[1], hosts[6], 2, 2), Shuffle, pB, 4e9, 0, 1, 1, nil)
	eng.RunUntil(0.5)
	if fA.Rate() != 1e9 || fB.Rate() != 1e9 {
		t.Fatalf("initial rates %v, %v, want 1 Gbps each", fA.Rate(), fB.Rate())
	}
	n.SetBackground(trunks[0], 0.6e9)
	eng.RunUntil(1.0)
	if fA.Rate() != 0.4e9 {
		t.Fatalf("fA rate after background = %v, want 0.4 Gbps", fA.Rate())
	}
	if fB.Rate() != 1e9 {
		t.Fatalf("fB rate after unrelated mutation = %v, want 1 Gbps", fB.Rate())
	}
}

// Zero-hop (loopback) flows run at localBps from the instant they start.
func TestCoalescedLocalFlows(t *testing.T) {
	eng, n, hosts, _ := testbed()
	p := topology.Path{Src: hosts[0], Dst: hosts[0]}
	var done sim.Time
	n.StartFlow(tup(hosts[0], hosts[0], 1, 1), Shuffle, p, DefaultLocalBps, 0, 0, 0,
		func(f *Flow) { done = f.Finished() })
	eng.Run()
	if float64(done) != 1 {
		t.Fatalf("local flow finished at %v, want 1s at the 8 Gbps loopback rate", done)
	}
}

// The seeded random driver. A script is a list of operations whose operands
// are resolved against the network's state when the operation is applied
// (flow and link picks are taken modulo what exists then), so every prefix of
// a script is itself a valid script and the first step at which the reference
// check fails is the shortest failing prefix.

type refOp struct {
	kind    int // one of the op* constants
	a, b, c int // operands, meaning per kind
	x       float64
}

const (
	opStart = iota
	opReroute
	opComplete
	opLinkDown
	opLinkUp
	opBackground
	opIncast
	opAdvance
	numOps
)

func (o refOp) String() string {
	name := [...]string{"start", "reroute", "complete", "linkDown", "linkUp", "background", "incast", "advance"}[o.kind]
	return fmt.Sprintf("%s(%d,%d,%d,%g)", name, o.a, o.b, o.c, o.x)
}

func randomScript(seed int64, steps int) []refOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]refOp, steps)
	for i := range ops {
		kind := rng.Intn(numOps)
		if rng.Intn(3) == 0 {
			kind = opStart // keep the fabric populated
		}
		ops[i] = refOp{kind: kind, a: rng.Intn(1 << 16), b: rng.Intn(1 << 16), c: rng.Intn(1 << 16), x: rng.Float64()}
	}
	return ops
}

// applyOp performs one operation on a 4-leaf/2-spine fabric.
func applyOp(eng *sim.Engine, n *Network, hosts []topology.NodeID, o refOp) {
	g := n.Graph()
	switch o.kind {
	case opStart:
		src, dst := hosts[o.a%len(hosts)], hosts[o.b%len(hosts)]
		path := topology.Path{Src: src, Dst: dst} // src == dst: a zero-hop local fetch
		if src != dst {
			ps := g.EqualCostPaths(src, dst, 4)
			if len(ps) == 0 {
				return // partitioned by earlier link failures
			}
			path = ps[o.c%len(ps)]
		}
		kind := Shuffle
		if o.c%5 == 0 {
			kind = Background
		}
		n.StartFlow(tup(src, dst, uint16(o.a), uint16(o.b)), kind, path, 1e6+o.x*5e8, 0, o.a, o.b, nil)
	case opReroute:
		if len(n.active) == 0 {
			return
		}
		f := n.active[o.a%len(n.active)]
		if f.Tuple.SrcHost == f.Tuple.DstHost {
			return
		}
		if ps := g.EqualCostPaths(f.Tuple.SrcHost, f.Tuple.DstHost, 4); len(ps) > 0 {
			n.Reroute(f, ps[o.b%len(ps)])
		}
	case opComplete:
		eng.Step() // the only scheduled event is the next completion
	case opLinkDown:
		n.FailLink(topology.LinkID(o.a % g.NumLinks()))
	case opLinkUp:
		n.RecoverLink(topology.LinkID(o.a % g.NumLinks()))
	case opBackground:
		l := topology.LinkID(o.a % g.NumLinks())
		n.SetBackground(l, o.x*1.2*g.Link(l).CapacityBps) // sometimes above capacity: clamps
	case opIncast:
		if o.a%2 == 0 {
			n.EnableIncast(0, 0, 1)
		} else {
			n.EnableIncast(1+o.b%3, 0.05+o.x*0.3, 0.2)
		}
	case opAdvance:
		eng.RunUntil(eng.Now().Add(sim.Duration(o.x * 0.05)))
	}
}

// runRandomScript applies ops to a fresh fabric and returns the index of the
// first step after which the production state and the reference disagree.
func runRandomScript(ops []refOp) (step int, err error) {
	eng := sim.NewEngine()
	g, hosts := topology.LeafSpine(4, 2, 4, topology.Gbps)
	n := New(eng, g)
	for i, o := range ops {
		applyOp(eng, n, hosts, o)
		if err := checkReference(n); err != nil {
			return i, err
		}
	}
	return -1, nil
}

func TestRandomOpsMatchFullScanReference(t *testing.T) {
	seeds, steps := 60, 150
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ops := randomScript(seed, steps)
		if step, err := runRandomScript(ops); err != nil {
			var prefix []string
			for _, o := range ops[:step+1] {
				prefix = append(prefix, o.String())
			}
			t.Fatalf("seed %d diverges after step %d: %v\nshortest failing prefix:\n  %s",
				seed, step, err, strings.Join(prefix, "\n  "))
		}
	}
}

// BenchmarkAllocPass guards the allocator's steady state: after warm-up every
// pass must reuse the network-owned scratch with zero allocations.
func BenchmarkAllocPass(b *testing.B) {
	eng, n, hosts, _ := testbed()
	g := n.Graph()
	for i := 0; i < 40; i++ {
		src, dst := hosts[i%5], hosts[5+i%5]
		ps := g.EqualCostPaths(src, dst, 2)
		n.StartFlow(tup(src, dst, uint16(i), 1), Shuffle, ps[i%len(ps)], 1e15, 0, i, 0, nil)
	}
	eng.RunUntil(0.001)
	n.recompute() // warm scratch capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.recompute()
	}
	b.StopTimer()
	if got := testing.AllocsPerRun(3, func() { n.recompute() }); got > 0 {
		b.Fatalf("allocation pass allocated %v times/op, want 0", got)
	}
}
