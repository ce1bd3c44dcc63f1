package netflow

import (
	"math"
	"testing"

	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

func rig() (*sim.Engine, *netsim.Network, []topology.NodeID, *Collector) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	coll := NewCollector(eng, net, hosts, 0)
	return eng, net, hosts, coll
}

func tup(src, dst topology.NodeID, sp, dp uint16) netsim.FiveTuple {
	return netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: sp, DstPort: dp, Protocol: 6}
}

func TestCollectorSamplesCumulativeCurve(t *testing.T) {
	eng, net, hosts, coll := rig()
	g := net.Graph()
	p := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), netsim.Shuffle, p, 8e8, 0, 0, 0, nil) // 100 MB, ~0.8s
	eng.At(2, func() {})                                                               // keep sim alive past flow end
	eng.Run()
	s := coll.Series(hosts[0])
	if len(s) < 5 {
		t.Fatalf("only %d samples", len(s))
	}
	// Monotone nondecreasing.
	for i := 1; i < len(s); i++ {
		if s[i].Bytes < s[i-1].Bytes {
			t.Fatal("cumulative curve decreased")
		}
	}
	final := coll.FinalBytes(hosts[0])
	if math.Abs(final-1e8) > 1e3 {
		t.Fatalf("final bytes = %v, want 1e8", final)
	}
}

func TestBytesAtStepInterpolation(t *testing.T) {
	eng, net, hosts, coll := rig()
	g := net.Graph()
	p := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), netsim.Shuffle, p, 8e8, 0, 0, 0, nil)
	eng.At(2, func() {})
	eng.Run()
	if got := coll.BytesAt(hosts[0], -1); got != 0 {
		t.Fatalf("BytesAt before start = %v", got)
	}
	half := coll.BytesAt(hosts[0], 0.4)
	if half <= 0 || half >= 1e8 {
		t.Fatalf("mid-flow bytes = %v", half)
	}
	if got := coll.BytesAt(hosts[0], 100); math.Abs(got-1e8) > 1e3 {
		t.Fatalf("BytesAt after end = %v", got)
	}
}

func TestTimeToReach(t *testing.T) {
	eng, net, hosts, coll := rig()
	g := net.Graph()
	p := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), netsim.Shuffle, p, 8e8, 0, 0, 0, nil)
	eng.At(2, func() {})
	eng.Run()
	at, ok := coll.TimeToReach(hosts[0], 5e7)
	if !ok {
		t.Fatal("never reached half volume")
	}
	// 50 MB at 125 MB/s ≈ 0.4 s (sampled at 100 ms grid).
	if float64(at) < 0.3 || float64(at) > 0.6 {
		t.Fatalf("reached 50MB at %v", at)
	}
	if _, ok := coll.TimeToReach(hosts[0], 1e12); ok {
		t.Fatal("claimed to reach impossible volume")
	}
}

func TestIdleHostFlatCurve(t *testing.T) {
	eng, _, hosts, coll := rig()
	eng.At(1, func() {})
	eng.Run()
	if coll.FinalBytes(hosts[3]) != 0 {
		t.Fatal("idle host shows traffic")
	}
}

func TestStopHaltsSampling(t *testing.T) {
	eng, _, hosts, coll := rig()
	eng.At(0.5, coll.Stop)
	eng.At(5, func() {})
	eng.Run()
	n := len(coll.Series(hosts[0]))
	if n > 8 {
		t.Fatalf("sampling continued after Stop: %d samples", n)
	}
}

func TestPredictionCurve(t *testing.T) {
	var pc PredictionCurve
	pc.Add(1, 100)
	pc.Add(2, 50)
	if pc.Total() != 150 {
		t.Fatalf("total = %v", pc.Total())
	}
	pts := pc.Points()
	if len(pts) != 2 || pts[1].Bytes != 150 {
		t.Fatalf("points = %v", pts)
	}
	at, ok := pc.TimeToReach(120)
	if !ok || at != 2 {
		t.Fatalf("TimeToReach(120) = %v, %v", at, ok)
	}
	if _, ok := pc.TimeToReach(200); ok {
		t.Fatal("reached beyond total")
	}
}

func TestLeadStatsPredictionEarlyAndOverestimating(t *testing.T) {
	eng, net, hosts, coll := rig()
	g := net.Graph()
	p := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]

	// Prediction: full volume known at t=0.5, overestimated by 5%.
	var pc PredictionCurve
	pc.Add(0.5, 1.05e8)
	// Actual: flow starts at t=3, 100 MB.
	eng.At(3, func() {
		net.StartFlow(tup(hosts[0], hosts[5], 1, 1), netsim.Shuffle, p, 8e8, 0, 0, 0, nil)
	})
	eng.At(6, func() {})
	eng.Run()

	min, mean, over, ok := LeadStats(&pc, coll, hosts[0], 10)
	if !ok {
		t.Fatal("LeadStats failed")
	}
	if min <= 0 {
		t.Fatalf("min lead = %v, want positive (prediction was early)", min)
	}
	if mean < min {
		t.Fatalf("mean %v < min %v", mean, min)
	}
	if math.Abs(over-0.05) > 0.01 {
		t.Fatalf("overestimate = %v, want ~0.05", over)
	}
}

func TestLeadStatsDegenerate(t *testing.T) {
	eng, _, hosts, coll := rig()
	eng.At(1, func() {})
	eng.Run()
	var pc PredictionCurve
	if _, _, _, ok := LeadStats(&pc, coll, hosts[0], 10); ok {
		t.Fatal("LeadStats succeeded with no data")
	}
}

func TestLinkProbeSamples(t *testing.T) {
	eng, net, hosts, _ := rig()
	g := net.Graph()
	p := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	trunk := p.Links[1]
	probe := NewLinkProbe(eng, net, []topology.LinkID{trunk}, 0)
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), netsim.Shuffle, p, 8e8, 0, 0, 0, nil)
	eng.At(2, func() {})
	eng.Run()
	s := probe.Series(trunk)
	if len(s) < 10 {
		t.Fatalf("samples = %d", len(s))
	}
	// Utilization is 1.0 while the flow runs (~0.8s of 2s window).
	if m := probe.MeanUtilization(trunk); m < 0.2 || m > 0.7 {
		t.Fatalf("mean utilization = %v", m)
	}
	if peak := probe.PeakShuffleBps(trunk); peak < 0.99e9 {
		t.Fatalf("peak shuffle rate = %v", peak)
	}
}

func TestLinkProbeStop(t *testing.T) {
	eng, net, _, _ := rig()
	g := net.Graph()
	links := []topology.LinkID{g.Links()[0].ID}
	probe := NewLinkProbe(eng, net, links, 0)
	eng.At(0.25, probe.Stop)
	eng.At(3, func() {})
	eng.Run()
	if n := len(probe.Series(links[0])); n > 5 {
		t.Fatalf("probe kept sampling after Stop: %d", n)
	}
	if probe.MeanUtilization(links[0]) != 0 {
		t.Fatal("idle link nonzero utilization")
	}
	if probe.PeakShuffleBps(links[0]) != 0 {
		t.Fatal("idle link nonzero shuffle rate")
	}
}
