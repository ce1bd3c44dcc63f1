package openflow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pythia/internal/mgmtnet"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Rack-pair (prefix) rule semantics through the controller.

func TestRackPairMatchNeedsResolver(t *testing.T) {
	m := RackPair(0, 1)
	ft := tup(2, 7, 1, 2) // hosts in rack0 / rack1 on the testbed
	// Without a resolver the rack fields cannot match.
	if m.MatchesWithRacks(ft, nil) {
		t.Fatal("rack match succeeded without resolver")
	}
	rackOf := func(n topology.NodeID) int {
		if n >= 2 && n <= 6 {
			return 0
		}
		return 1
	}
	if !m.MatchesWithRacks(ft, rackOf) {
		t.Fatal("rack match failed with resolver")
	}
	if m.MatchesWithRacks(tup(7, 2, 1, 2), rackOf) {
		t.Fatal("reversed rack pair matched")
	}
}

func TestInstallSteeringSkipsLastHop(t *testing.T) {
	eng, _, c, hosts, trunks := tb()
	g := c.g
	// Find the path over trunk1.
	var path topology.Path
	for _, p := range g.EqualCostPaths(hosts[0], hosts[5], 2) {
		for _, l := range p.Links {
			if l == trunks[1] {
				path = p
			}
		}
	}
	done := false
	c.InstallSteering(RackPair(0, 1), path, 100, 5, func(err error) {
		if err != nil {
			t.Errorf("steering install: %v", err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("install never completed")
	}
	// Only the source-side ToR gets a rule (its out-link leads to the
	// other switch); the destination ToR's hop to the host is left to
	// the default pipeline.
	tor0, tor1 := c.Switch(0), c.Switch(1)
	if tor0.RuleCount() != 1 {
		t.Fatalf("tor0 rules = %d, want 1", tor0.RuleCount())
	}
	if tor1.RuleCount() != 0 {
		t.Fatalf("tor1 rules = %d, want 0 (delivery hop is default)", tor1.RuleCount())
	}
	// Every rack0→rack1 host pair must now ride trunk1, and be delivered
	// to its own destination.
	for _, src := range hosts[:5] {
		for _, dst := range hosts[5:] {
			p, err := c.Resolve(tup(src, dst, 9, 9))
			if err != nil {
				t.Fatal(err)
			}
			usesTrunk1 := false
			for _, l := range p.Links {
				if l == trunks[1] {
					usesTrunk1 = true
				}
			}
			if !usesTrunk1 {
				t.Fatalf("%d->%d not steered over trunk1", src, dst)
			}
			if p.Dst != dst {
				t.Fatalf("misdelivered to %d, want %d", p.Dst, dst)
			}
		}
	}
	// Reverse-direction traffic is untouched by the rack0→rack1 rule.
	p, err := c.Resolve(tup(hosts[5], hosts[0], 9, 9))
	if err != nil || p.Dst != hosts[0] {
		t.Fatalf("reverse resolve broken: %v %v", p, err)
	}
}

func TestRuleWithStaleOutIgnored(t *testing.T) {
	eng, net, c, hosts, trunks := tb()
	g := c.g
	var path topology.Path
	for _, p := range g.EqualCostPaths(hosts[0], hosts[5], 2) {
		for _, l := range p.Links {
			if l == trunks[0] {
				path = p
			}
		}
	}
	c.InstallPath(HostPair(hosts[0], hosts[5]), path, 100, 9, nil)
	eng.Run()
	// Fail the trunk the rule points at: Resolve must fall back to the
	// default pipeline over the surviving trunk rather than error.
	setLinkUp(net, trunks[0], false)
	p, err := c.Resolve(tup(hosts[0], hosts[5], 3, 3))
	if err != nil {
		t.Fatalf("resolve after stale rule: %v", err)
	}
	for _, l := range p.Links {
		if l == trunks[0] {
			t.Fatal("resolved through failed link via stale rule")
		}
	}
}

func tup2(src, dst topology.NodeID) netsim.FiveTuple {
	return netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: 1, DstPort: 2, Protocol: 6}
}

func TestControllerOnLeafSpine(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts := topology.LeafSpine(3, 3, 3, topology.Gbps)
	net := netsim.New(eng, g)
	c := NewController(eng, net, 0)
	// Default pipeline must route across the spine for any host pair.
	for i := 0; i < len(hosts); i += 2 {
		for j := 1; j < len(hosts); j += 3 {
			if i == j {
				continue
			}
			p, err := c.Resolve(tup2(hosts[i], hosts[j]))
			if err != nil {
				t.Fatalf("%d->%d: %v", i, j, err)
			}
			if err := p.Valid(g); err != nil {
				t.Fatalf("invalid: %v", err)
			}
		}
	}
}

func TestFlowModAccounting(t *testing.T) {
	eng, _, c, hosts, _ := tb()
	p := c.g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	c.InstallPath(HostPair(hosts[0], hosts[5]), p, 100, 1, nil)
	eng.Run()
	if c.FlowModsSent != 2 {
		t.Fatalf("FlowModsSent = %d, want 2 (one per switch)", c.FlowModsSent)
	}
}

func TestInstallOverManagementNetwork(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	c := NewController(eng, net, 0)
	mn := mgmtnet.New(eng, mgmtnet.Config{})
	c.SetManagementNetwork(mn, topology.NodeID(-1))
	p := g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	var doneAt sim.Time
	c.InstallPath(HostPair(hosts[0], hosts[5]), p, 100, 1, func(err error) {
		if err != nil {
			t.Errorf("install: %v", err)
		}
		doneAt = eng.Now()
	})
	eng.Run()
	if mn.Messages != 2 {
		t.Fatalf("mgmt messages = %d, want 2", mn.Messages)
	}
	// 80B at 100 Mbps = 6.4 µs tx + 0.5 ms prop, serialized x2, plus the
	// 4 ms install each (concurrent across switches after delivery).
	// Bound it loosely: > 4 ms, < 10 ms.
	if doneAt < 0.004 || doneAt > 0.010 {
		t.Fatalf("install completed at %v", doneAt)
	}
	// Rules actually landed.
	if c.RulesInstalled != 2 {
		t.Fatalf("rules = %d", c.RulesInstalled)
	}
}

func TestEvictOldestPolicy(t *testing.T) {
	s := NewSwitch(0, 2)
	s.Eviction = EvictOldest
	s.Install(FlowRule{Match: HostPair(1, 2), Out: 1, Priority: 5, Cookie: 1})
	s.Install(FlowRule{Match: HostPair(1, 3), Out: 1, Priority: 9, Cookie: 2})
	// Table full: the priority-5 rule is evicted, not the install failed.
	if err := s.Install(FlowRule{Match: HostPair(1, 4), Out: 1, Priority: 7, Cookie: 3}); err != nil {
		t.Fatalf("eviction policy failed install: %v", err)
	}
	if s.RuleCount() != 2 || s.Evictions != 1 {
		t.Fatalf("rules=%d evictions=%d", s.RuleCount(), s.Evictions)
	}
	// The survivor set is cookies {2, 3}.
	seen := map[uint64]bool{}
	for _, r := range s.Rules() {
		seen[r.Cookie] = true
	}
	if !seen[2] || !seen[3] || seen[1] {
		t.Fatalf("wrong survivors: %v", seen)
	}
	// Ties evict the oldest.
	s.Install(FlowRule{Match: HostPair(1, 5), Out: 1, Priority: 7, Cookie: 4})
	seen = map[uint64]bool{}
	for _, r := range s.Rules() {
		seen[r.Cookie] = true
	}
	if seen[3] && !seen[4] {
		t.Fatalf("tie eviction kept the older rule: %v", seen)
	}
}

func TestRejectRemainsDefault(t *testing.T) {
	s := NewSwitch(0, 1)
	s.Install(FlowRule{Match: HostPair(1, 2), Out: 1})
	if err := s.Install(FlowRule{Match: HostPair(1, 3), Out: 1}); err != ErrTableFull {
		t.Fatalf("default policy err = %v", err)
	}
	if s.Evictions != 0 {
		t.Fatal("default policy evicted")
	}
}

// Property: once a host-pair rule set is installed, every port combination
// resolves onto exactly the installed path; after removal, resolution still
// succeeds (default pipeline).
func TestPropertyInstalledPathAuthority(t *testing.T) {
	f := func(si, di uint8, pick bool, sp, dp uint16) bool {
		eng := sim.NewEngine()
		g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
		net := netsim.New(eng, g)
		c := NewController(eng, net, 0)
		src := hosts[int(si)%5]
		dst := hosts[5+int(di)%5]
		paths := g.EqualCostPaths(src, dst, 2)
		want := paths[0]
		if pick && len(paths) > 1 {
			want = paths[1]
		}
		c.InstallPath(HostPair(src, dst), want, 100, 1, nil)
		eng.Run()
		got, err := c.Resolve(tup(src, dst, sp, dp))
		if err != nil || !got.Equal(want) {
			return false
		}
		c.RemovePath(want, 1)
		after, err := c.Resolve(tup(src, dst, sp, dp))
		return err == nil && after.Valid(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}
