package hedera

import (
	"math"
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/hadoop"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

func rig(cfg Config) (*sim.Engine, *netsim.Network, *Scheduler, []topology.NodeID, []topology.LinkID) {
	eng := sim.NewEngine()
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	s := New(eng, net, 1, cfg)
	return eng, net, s, hosts, trunks
}

func tup(src, dst topology.NodeID, sp, dp uint16) netsim.FiveTuple {
	return netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: sp, DstPort: dp, Protocol: 6}
}

func TestDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.PollInterval != 5 || c.ElephantFraction != 0.10 || c.K != 4 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestMovesElephantOffCongestedTrunk(t *testing.T) {
	eng, net, s, hosts, trunks := rig(Config{PollInterval: 1})
	g := net.Graph()
	// Load trunk0 at 95%; leave trunk1 clean.
	net.SetBackground(trunks[0], 0.95*topology.Gbps)

	// Force an elephant onto the congested trunk (as a bad ECMP hash
	// would).
	var badPath topology.Path
	for _, p := range g.EqualCostPaths(hosts[0], hosts[5], 2) {
		for _, l := range p.Links {
			if l == trunks[0] {
				badPath = p
			}
		}
	}
	if badPath.Hops() == 0 {
		t.Fatal("no path over trunk0")
	}
	var done sim.Time
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), badPath, 2e9, 0, 0, 0,
		func(f *netsim.Flow) { done = f.Finished() })
	eng.Run()
	// On the congested trunk alone: 2e9 bits at 50 Mbps = 40 s. Hedera
	// must have moved it to the clean trunk within ~a poll interval:
	// ~1 s detection + ~2 s transfer.
	if float64(done) > 10 {
		t.Fatalf("elephant finished at %v; Hedera did not rescue it", done)
	}
	if s.Moves == 0 {
		t.Fatal("no moves recorded")
	}
}

func TestLeavesMiceAlone(t *testing.T) {
	eng, net, s, hosts, trunks := rig(Config{})
	net.SetBackground(trunks[0], 0.5*topology.Gbps)
	g := net.Graph()
	paths := g.EqualCostPaths(hosts[0], hosts[5], 2)
	// A mouse: 1 Mbit — gone long before the first sweep.
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), paths[0], 1e6, 0, 0, 0, nil)
	eng.Run()
	if s.Moves != 0 {
		t.Fatalf("moved %d mice", s.Moves)
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	eng, net, s, hosts, _ := rig(Config{PollInterval: 1, MoveMarginBps: 2 * topology.Gbps})
	g := net.Graph()
	paths := g.EqualCostPaths(hosts[0], hosts[5], 2)
	// Margin impossible to satisfy: no move should ever fire.
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), paths[0], 5e9, 0, 0, 0, nil)
	eng.Run()
	if s.Moves != 0 {
		t.Fatalf("moved despite impossible margin: %d", s.Moves)
	}
}

func TestSchedulerActsAsECMPResolver(t *testing.T) {
	_, _, s, hosts, _ := rig(Config{})
	p, err := s.Resolve(tup(hosts[0], hosts[5], 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if p.Src != hosts[0] || p.Dst != hosts[5] {
		t.Fatal("bad resolution")
	}
}

func TestSweepsCount(t *testing.T) {
	eng, net, s, hosts, _ := rig(Config{PollInterval: 1})
	g := net.Graph()
	paths := g.EqualCostPaths(hosts[0], hosts[5], 2)
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), paths[0], 5e9, 0, 0, 0, nil)
	eng.Run()
	if s.Sweeps == 0 {
		t.Fatal("control loop never ran")
	}
}

func TestHederaBetweenECMPAndOptimal(t *testing.T) {
	// On the asymmetric-load scenario, Hedera should beat plain ECMP
	// (it rescues collided elephants) for a sort-like job.
	bg := func(net *netsim.Network, trunks []topology.LinkID) {
		g := net.Graph()
		loads := []float64{0.95, 0.30}
		for i, tr := range trunks {
			net.SetBackground(tr, loads[i]*topology.Gbps)
			if r, ok := g.Reverse(tr); ok {
				net.SetBackground(r, loads[i]*topology.Gbps)
			}
		}
	}
	run := func(useHedera bool) float64 {
		eng := sim.NewEngine()
		g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
		net := netsim.New(eng, g)
		bg(net, trunks)
		var resolver hadoop.PathResolver
		if useHedera {
			resolver = New(eng, net, 1, Config{})
		} else {
			resolver = ecmp.New(g, 1)
		}
		cl := hadoop.NewCluster(eng, net, hosts, resolver, hadoop.Config{})
		j, err := cl.Submit(workload.Sort(4*workload.GB, 8, 42))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !j.Done {
			t.Fatal("job did not finish")
		}
		return float64(j.Duration())
	}
	ecmpTime := run(false)
	hederaTime := run(true)
	if hederaTime >= ecmpTime {
		t.Fatalf("Hedera (%.1fs) not faster than ECMP (%.1fs)", hederaTime, ecmpTime)
	}
	t.Logf("ecmp=%.1fs hedera=%.1fs", ecmpTime, hederaTime)
}

func TestMoveSkipsDoneFlows(t *testing.T) {
	// A flow that completes during the install latency must not panic.
	eng, net, _, hosts, trunks := rig(Config{PollInterval: 1, InstallLatency: 0.5 * sim.Second})
	net.SetBackground(trunks[0], 0.6*topology.Gbps)
	g := net.Graph()
	var badPath topology.Path
	for _, p := range g.EqualCostPaths(hosts[0], hosts[5], 2) {
		for _, l := range p.Links {
			if l == trunks[0] {
				badPath = p
			}
		}
	}
	// Elephant-classified but finishes at ~1.25s, within install latency
	// of the first sweep at 1s.
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), badPath, 0.5e9, 0, 0, 0, nil)
	eng.Run() // must not panic
}

func TestSpareAccountsOwnUsage(t *testing.T) {
	// A lone elephant saturating the clean trunk must not be "moved" to
	// the other trunk just because its own usage makes its path look
	// busy.
	eng, net, s, hosts, _ := rig(Config{PollInterval: 1})
	g := net.Graph()
	paths := g.EqualCostPaths(hosts[0], hosts[5], 2)
	var done sim.Time
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), paths[0], 8e9, 0, 0, 0,
		func(f *netsim.Flow) { done = f.Finished() })
	eng.Run()
	if s.Moves != 0 {
		t.Fatalf("pointless move of a lone flow: %d moves", s.Moves)
	}
	if math.Abs(float64(done)-8) > 0.01 {
		t.Fatalf("lone elephant took %v, want 8s", done)
	}
}

func TestHederaOnLeafSpine(t *testing.T) {
	// The reactive scheduler must handle fabrics with more than two
	// equal-cost paths: elephants move to the emptiest spine.
	eng := sim.NewEngine()
	g, hosts := topology.LeafSpine(2, 3, 4, topology.Gbps)
	net := netsim.New(eng, g)
	s := New(eng, net, 1, Config{PollInterval: 1})
	// Load two of the three spine uplinks of leaf0 heavily.
	loaded := 0
	for _, l := range g.Links() {
		from, to := g.Node(l.From), g.Node(l.To)
		if from.Name == "leaf0" && to.Kind == topology.Switch && loaded < 2 {
			net.SetBackground(l.ID, 0.95*topology.Gbps)
			if r, ok := g.Reverse(l.ID); ok {
				net.SetBackground(r, 0.95*topology.Gbps)
			}
			loaded++
		}
	}
	if loaded != 2 {
		t.Fatalf("loaded %d uplinks", loaded)
	}
	// An elephant initially ECMP-placed lands somewhere; wherever it is,
	// Hedera must ensure it completes near the clean spine's rate.
	var done sim.Time
	p, err := s.Resolve(tup(hosts[0], hosts[7], 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	net.StartFlow(tup(hosts[0], hosts[7], 1, 1), p, 4e9, 0, 0, 0,
		func(f *netsim.Flow) { done = f.Finished() })
	eng.Run()
	// Clean spine: 4 Gbit at 1 Gbps = 4 s; allow detection+move slack.
	if float64(done) > 8 {
		t.Fatalf("elephant took %v on a fabric with a clean spine", done)
	}
}
