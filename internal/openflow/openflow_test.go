package openflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pythia/internal/ecmp"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

func tb() (*sim.Engine, *netsim.Network, *Controller, []topology.NodeID, []topology.LinkID) {
	eng := sim.NewEngine()
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	c := NewController(eng, net, 0)
	return eng, net, c, hosts, trunks
}

// setLinkUp flips one direction of a cable in the graph and tells the network,
// bypassing the fault plane: control-plane listeners hear about it at the next
// poll, as with LLDP-driven discovery.
func setLinkUp(net *netsim.Network, l topology.LinkID, up bool) {
	net.Graph().SetLinkUp(l, up)
	net.NotifyTopology()
}

func tup(src, dst topology.NodeID, sp, dp uint16) netsim.FiveTuple {
	return netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: sp, DstPort: dp, Protocol: 6}
}

// exact is a five-tuple exact match: what classical fine-grained OpenFlow
// rules would use, were ports knowable.
func exact(t netsim.FiveTuple) Match {
	return Match{SrcHost: t.SrcHost, DstHost: t.DstHost, SrcPort: int32(t.SrcPort), DstPort: int32(t.DstPort),
		Protocol: int16(t.Protocol), SrcRack: Wildcard, DstRack: Wildcard}
}

func TestMatchWildcards(t *testing.T) {
	m := HostPair(1, 2)
	if !m.Matches(tup(1, 2, 123, 456)) {
		t.Fatal("host-pair match failed on matching tuple")
	}
	if m.Matches(tup(1, 3, 123, 456)) || m.Matches(tup(2, 2, 1, 1)) {
		t.Fatal("host-pair matched wrong hosts")
	}
	if m.Specificity() != 4 {
		t.Fatalf("HostPair specificity = %d, want 4", m.Specificity())
	}
}

func TestMatchExact(t *testing.T) {
	ft := tup(3, 4, 10, 20)
	m := exact(ft)
	if !m.Matches(ft) {
		t.Fatal("exact match failed")
	}
	other := ft
	other.SrcPort = 11
	if m.Matches(other) {
		t.Fatal("exact matched different port")
	}
	if m.Specificity() != 10 {
		t.Fatalf("exact specificity = %d, want 10", m.Specificity())
	}
	if m.String() == "" || HostPair(1, 2).String() == "" {
		t.Fatal("empty Match.String")
	}
}

func TestSwitchInstallLookup(t *testing.T) {
	s := NewSwitch(0, 0)
	if err := s.Install(FlowRule{Match: HostPair(1, 2), Out: 7, Priority: 10, Cookie: 1}); err != nil {
		t.Fatal(err)
	}
	r, ok := s.Lookup(tup(1, 2, 5, 5))
	if !ok || r.Out != 7 {
		t.Fatalf("lookup = %+v ok=%v", r, ok)
	}
	if _, ok := s.Lookup(tup(9, 9, 1, 1)); ok {
		t.Fatal("lookup matched nothing-rule")
	}
	if len(s.rules) != 1 {
		t.Fatalf("table holds %d rules, want 1", len(s.rules))
	}
}

func TestSwitchPriorityAndSpecificity(t *testing.T) {
	s := NewSwitch(0, 0)
	ft := tup(1, 2, 10, 20)
	s.Install(FlowRule{Match: HostPair(1, 2), Out: 1, Priority: 5})
	s.Install(FlowRule{Match: exact(ft), Out: 2, Priority: 5})
	if r, _ := s.Lookup(ft); r.Out != 2 {
		t.Fatalf("more specific rule lost: out=%d", r.Out)
	}
	s.Install(FlowRule{Match: HostPair(1, 2), Out: 3, Priority: 9})
	if r, _ := s.Lookup(ft); r.Out != 3 {
		t.Fatalf("higher priority rule lost: out=%d", r.Out)
	}
	// Same priority+specificity: newest wins.
	s.Install(FlowRule{Match: HostPair(1, 2), Out: 4, Priority: 9})
	if r, _ := s.Lookup(ft); r.Out != 4 {
		t.Fatalf("newest-wins broken: out=%d", r.Out)
	}
}

func TestSwitchCapacity(t *testing.T) {
	s := NewSwitch(0, 2)
	if err := s.Install(FlowRule{Match: HostPair(1, 2), Out: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(FlowRule{Match: HostPair(1, 3), Out: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(FlowRule{Match: HostPair(1, 4), Out: 1}); err != ErrTableFull {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
}

func TestSwitchRemoveByCookie(t *testing.T) {
	s := NewSwitch(0, 0)
	s.Install(FlowRule{Match: HostPair(1, 2), Out: 1, Cookie: 42})
	s.Install(FlowRule{Match: HostPair(1, 3), Out: 1, Cookie: 42})
	s.Install(FlowRule{Match: HostPair(1, 4), Out: 1, Cookie: 7})
	if n := s.RemoveByCookie(42); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if len(s.rules) != 1 || s.rules[0].Cookie != 7 {
		t.Fatalf("wrong survivors: %+v", s.rules)
	}
}

func TestControllerHasSwitchPerSwitchNode(t *testing.T) {
	_, _, c, hosts, _ := tb()
	if c.switches[hosts[0]] != nil {
		t.Fatal("controller created a switch for a host")
	}
	g := 0
	for _, n := range []topology.NodeID{0, 1} { // tor0, tor1 are first two nodes
		if c.switches[n] != nil {
			g++
		}
	}
	if g != 2 {
		t.Fatalf("controller switches = %d, want 2", g)
	}
}

func TestResolveDefaultECMPConsistent(t *testing.T) {
	_, _, c, hosts, _ := tb()
	ft := tup(hosts[0], hosts[5], 9, 9)
	p1, err := c.Resolve(ft)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := c.Resolve(ft)
	if !p1.Equal(p2) {
		t.Fatal("default pipeline not flow-consistent")
	}
	if p1.Hops() != 3 {
		t.Fatalf("inter-rack hops = %d, want 3", p1.Hops())
	}
}

func TestResolveLocal(t *testing.T) {
	_, _, c, hosts, _ := tb()
	p, err := c.Resolve(tup(hosts[0], hosts[0], 1, 1))
	if err != nil || p.Hops() != 0 {
		t.Fatalf("local resolve: %v, hops=%d", err, p.Hops())
	}
}

func TestResolveSpreadsAcrossTrunks(t *testing.T) {
	_, _, c, hosts, trunks := tb()
	seen := map[topology.LinkID]bool{}
	for sp := uint16(0); sp < 64; sp++ {
		p, err := c.Resolve(tup(hosts[0], hosts[5], sp, 50060))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range p.Links {
			for _, tr := range trunks {
				if l == tr {
					seen[l] = true
				}
			}
		}
	}
	if len(seen) != 2 {
		t.Fatalf("default ECMP used %d trunks over 64 flows, want 2", len(seen))
	}
}

func TestInstallPathOverridesECMP(t *testing.T) {
	eng, _, c, hosts, trunks := tb()
	g := c.g
	paths := g.EqualCostPaths(hosts[0], hosts[5], 2)
	// Choose the path over trunk 1 explicitly.
	var want topology.Path
	for _, p := range paths {
		for _, l := range p.Links {
			if l == trunks[1] {
				want = p
			}
		}
	}
	if want.Hops() == 0 {
		t.Fatal("no path over trunk1 found")
	}
	installed := false
	c.InstallPath(HostPair(hosts[0], hosts[5]), want, 100, 1, func(err error) {
		if err != nil {
			t.Errorf("install error: %v", err)
		}
		installed = true
	})
	eng.Run()
	if !installed {
		t.Fatal("done callback never fired")
	}
	// Every flow between the pair must now take the installed path,
	// regardless of ports.
	for sp := uint16(0); sp < 16; sp++ {
		p, err := c.Resolve(tup(hosts[0], hosts[5], sp, 50060))
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(want) {
			t.Fatalf("flow sp=%d did not follow installed path", sp)
		}
	}
	// Reverse direction is unaffected.
	rp, err := c.Resolve(tup(hosts[5], hosts[0], 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Src != hosts[5] {
		t.Fatal("reverse path broken")
	}
}

func TestInstallLatencySerialized(t *testing.T) {
	eng, _, c, hosts, _ := tb()
	g := c.g
	p1 := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	p2 := g.EqualCostPaths(hosts[1], hosts[6], 2)[0]
	var t1, t2 sim.Time
	c.InstallPath(HostPair(hosts[0], hosts[5]), p1, 100, 1, func(error) { t1 = eng.Now() })
	c.InstallPath(HostPair(hosts[1], hosts[6]), p2, 100, 2, func(error) { t2 = eng.Now() })
	eng.Run()
	// Each inter-rack path crosses 2 switches → 2 rules each at 4 ms.
	if math.Abs(float64(t1)-0.008) > 1e-9 {
		t.Fatalf("first install done at %v, want 8ms", t1)
	}
	if math.Abs(float64(t2)-0.016) > 1e-9 {
		t.Fatalf("second install done at %v, want 16ms (serialized)", t2)
	}
	if c.RulesInstalled != 4 {
		t.Fatalf("RulesInstalled = %d, want 4", c.RulesInstalled)
	}
}

func TestInstallPathTableFull(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(2, 2, topology.Gbps)
	net := netsim.New(eng, g)
	c := NewController(eng, net, 1) // one rule per switch
	p := g.EqualCostPaths(hosts[0], hosts[2], 2)[0]
	var err1, err2 error
	ok1 := false
	c.InstallPath(HostPair(hosts[0], hosts[2]), p, 100, 1, func(err error) { err1 = err; ok1 = true })
	c.InstallPath(HostPair(hosts[1], hosts[3]), p, 100, 2, func(err error) { err2 = err })
	eng.Run()
	if !ok1 || err1 != nil {
		t.Fatalf("first install should succeed, err=%v", err1)
	}
	if err2 != ErrTableFull {
		t.Fatalf("second install err = %v, want ErrTableFull", err2)
	}
}

func TestRemovePathRestoresECMP(t *testing.T) {
	eng, _, c, hosts, _ := tb()
	g := c.g
	p := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	c.InstallPath(HostPair(hosts[0], hosts[5]), p, 100, 77, nil)
	eng.Run()
	if n := c.RemovePath(p, 77); n != 2 {
		t.Fatalf("removed %d rules, want 2", n)
	}
	if n := c.RemovePath(p, 77); n != 0 {
		t.Fatalf("second remove = %d, want 0", n)
	}
}

func TestLinkLoadPolling(t *testing.T) {
	eng, net, c, hosts, _ := tb()
	g := c.g
	p := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	net.StartFlow(tup(hosts[0], hosts[5], 1, 1), p, 10e9, 0, 0, 0, nil)
	// At t=0 the poller ran before the flow existed.
	if s := c.LinkLoad(p.Links[0]); s.Utilization != 0 {
		t.Fatalf("pre-poll utilization = %v, want 0 (stale)", s.Utilization)
	}
	eng.RunUntil(1.5) // poller fires at t=1
	s := c.LinkLoad(p.Links[0])
	if math.Abs(s.Utilization-1) > 1e-9 {
		t.Fatalf("polled utilization = %v, want 1", s.Utilization)
	}
	if s.AvailableBps != 0 {
		t.Fatalf("AvailableBps = %v, want 0", s.AvailableBps)
	}
}

func TestPollerDoesNotKeepEngineAlive(t *testing.T) {
	eng, _, _, _, _ := tb()
	eng.At(2, func() {})
	eng.Run() // must terminate despite the recurring poller
	if eng.Now() < 2 {
		t.Fatalf("engine stopped early at %v", eng.Now())
	}
}

func TestTopologyChangeNotification(t *testing.T) {
	eng, net, c, _, trunks := tb()
	notified := 0
	c.OnTopologyChange(func() { notified++ })
	eng.At(0.5, func() { setLinkUp(net, trunks[0], false) })
	eng.At(3.5, func() {})
	eng.RunUntil(3.5)
	if notified != 1 {
		t.Fatalf("topology notifications = %d, want 1", notified)
	}
	if c.g.LinkUp(trunks[0]) {
		t.Fatal("link still up after being failed")
	}
	setLinkUp(net, trunks[0], true)
	if !c.g.LinkUp(trunks[0]) {
		t.Fatal("link down after being restored")
	}
}

func TestResolveAfterLinkFailure(t *testing.T) {
	eng, net, c, hosts, trunks := tb()
	setLinkUp(net, trunks[0], false)
	eng.RunUntil(0.1)
	for sp := uint16(0); sp < 16; sp++ {
		p, err := c.Resolve(tup(hosts[0], hosts[5], sp, 50060))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range p.Links {
			if l == trunks[0] {
				t.Fatal("resolved through failed link")
			}
		}
	}
}

func TestInstallPathHostOnlyPath(t *testing.T) {
	eng, _, c, hosts, _ := tb()
	// Zero-hop path: no switches, still calls done after control RTT.
	done := false
	c.InstallPath(HostPair(hosts[0], hosts[0]), topology.Path{Src: hosts[0], Dst: hosts[0]}, 1, 1, func(err error) {
		if err != nil {
			t.Errorf("err = %v", err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("done not called for rule-less path")
	}
}

// Property: for random tuples, Resolve yields a valid path ending at the
// destination, and installing a host-pair rule set forces all ports onto
// one path.
func TestPropertyResolveValid(t *testing.T) {
	_, _, c, hosts, _ := tb()
	f := func(si, di uint8, sp, dp uint16) bool {
		src := hosts[int(si)%len(hosts)]
		dst := hosts[int(di)%len(hosts)]
		p, err := c.Resolve(tup(src, dst, sp, dp))
		if err != nil {
			return false
		}
		if src == dst {
			return p.Hops() == 0
		}
		return p.Valid(c.g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}

	// The table-miss walk and the path enumerator are two readings of one
	// shortest-path DAG: on empty tables every resolved path is a member of
	// the pair's equal-cost set, and a seeded stream of tuples reaches all
	// of it.
	for _, tc := range []struct {
		name           string
		fatTreeK, dst  int // dst indexes a host in another pod than host 0
		tuples, wantEq int
	}{
		{"fat-tree k=8 inter-pod", 8, 16, 800, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			g, hosts := topology.FatTree(tc.fatTreeK, tc.fatTreeK/2, topology.Gbps)
			c := NewController(eng, netsim.New(eng, g), 0)
			src, dst := hosts[0], hosts[tc.dst]
			hit := make([]int, tc.wantEq)
			set := g.EqualCostPaths(src, dst, tc.wantEq+1)
			if len(set) != tc.wantEq {
				t.Fatalf("equal-cost set has %d paths, want %d", len(set), tc.wantEq)
			}
			rng := rand.New(rand.NewSource(12))
			for i := 0; i < tc.tuples; i++ {
				p, err := c.Resolve(tup(src, dst, uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))))
				if err != nil {
					t.Fatal(err)
				}
				member := -1
				for j, q := range set {
					if p.Equal(q) {
						member = j
					}
				}
				if member < 0 {
					t.Fatalf("resolved %v, not one of the %d equal-cost paths", p.Links, len(set))
				}
				hit[member]++
			}
			for j, n := range hit {
				if n == 0 {
					t.Fatalf("%d tuples never took equal-cost path %d: %v", tc.tuples, j, hit)
				}
			}
		})
	}
}

// TestECMPIsTheTableMissWalk: the ECMP baseline is the controller's
// forwarding walk on empty tables — with salt 0 both resolve every tuple to
// the same path on every builder fabric — and a non-zero salt is a
// different hash draw.
func TestECMPIsTheTableMissWalk(t *testing.T) {
	twoRack := func() (*topology.Graph, []topology.NodeID) {
		g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
		return g, hosts
	}
	for _, tc := range []struct {
		name  string
		build func() (*topology.Graph, []topology.NodeID)
	}{
		{"two-rack", twoRack},
		{"leaf-spine 4x4", func() (*topology.Graph, []topology.NodeID) { return topology.LeafSpine(4, 4, 4, topology.Gbps) }},
		{"fat-tree k=4", func() (*topology.Graph, []topology.NodeID) { return topology.FatTree(4, 2, topology.Gbps) }},
		{"fat-tree k=8", func() (*topology.Graph, []topology.NodeID) { return topology.FatTree(8, 4, topology.Gbps) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			g, hosts := tc.build()
			c := NewController(eng, netsim.New(eng, g), 0)
			base, salted := ecmp.New(g, 0), ecmp.New(g, 1)
			rng := rand.New(rand.NewSource(29))
			moved := 0
			for i := 0; i < 4096; i++ {
				ft := tup(hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))],
					uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)))
				want, err := c.Resolve(ft)
				if err != nil {
					t.Fatal(err)
				}
				got, err := base.Resolve(ft)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%v: ecmp %v, table miss %v", ft, got.Links, want.Links)
				}
				if s, _ := salted.Resolve(ft); !s.Equal(want) {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("salt 1 resolved all 4096 tuples exactly as salt 0")
			}
		})
	}
}

func BenchmarkResolveFabric(b *testing.B) {
	_, _, c, hosts, _ := tb()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Resolve(tup(hosts[0], hosts[5], uint16(i), 50060)); err != nil {
			b.Fatal(err)
		}
	}
}
