package ecmp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pythia/internal/netsim"
	"pythia/internal/topology"
)

func setup() (*Allocator, []topology.NodeID, *topology.Graph) {
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	return New(g, 4, 1), hosts, g
}

func tup(src, dst topology.NodeID, sp, dp uint16) netsim.FiveTuple {
	return netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: sp, DstPort: dp, Protocol: 6}
}

func TestResolveDeterministic(t *testing.T) {
	a, hosts, _ := setup()
	ft := tup(hosts[0], hosts[5], 100, 200)
	p1, ok1 := a.Resolve(ft)
	p2, ok2 := a.Resolve(ft)
	if !ok1 || !ok2 || !p1.Equal(p2) {
		t.Fatal("same tuple resolved to different paths")
	}
}

func TestResolveLocal(t *testing.T) {
	a, hosts, _ := setup()
	p, ok := a.Resolve(tup(hosts[0], hosts[0], 1, 2))
	if !ok || p.Hops() != 0 {
		t.Fatalf("local resolve = %v hops, ok=%v", p.Hops(), ok)
	}
}

func TestResolveValidPath(t *testing.T) {
	a, hosts, g := setup()
	for sp := uint16(0); sp < 50; sp++ {
		p, ok := a.Resolve(tup(hosts[1], hosts[7], sp, 50060))
		if !ok {
			t.Fatal("no path")
		}
		if err := p.Valid(g); err != nil {
			t.Fatalf("invalid path: %v", err)
		}
		if p.Src != hosts[1] || p.Dst != hosts[7] {
			t.Fatal("wrong endpoints")
		}
	}
}

func TestEqualCostOnly(t *testing.T) {
	// In a leaf-spine with 2 spines, ECMP must only use the 4-hop paths
	// even when k allows longer detours.
	g, hosts := topology.LeafSpine(3, 2, 2, topology.Gbps)
	a := New(g, 8, 1)
	ps := a.Paths(hosts[0], hosts[4])
	if len(ps) != 2 {
		t.Fatalf("equal-cost set = %d, want 2 (one per spine)", len(ps))
	}
	for _, p := range ps {
		if p.Hops() != ps[0].Hops() {
			t.Fatal("unequal-cost path in ECMP set")
		}
	}
}

func TestPortSensitivity(t *testing.T) {
	// Different source ports must spread over both trunks eventually.
	a, hosts, _ := setup()
	seen := map[topology.LinkID]bool{}
	for sp := uint16(0); sp < 64; sp++ {
		p, _ := a.Resolve(tup(hosts[0], hosts[5], sp, 50060))
		seen[p.Links[1]] = true // trunk hop
	}
	if len(seen) != 2 {
		t.Fatalf("64 flows hashed onto %d trunks, want 2", len(seen))
	}
}

func TestHashBalance(t *testing.T) {
	a, hosts, _ := setup()
	counts := map[topology.LinkID]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		p, _ := a.Resolve(tup(hosts[0], hosts[5], uint16(i), uint16(i*7)))
		counts[p.Links[1]]++
	}
	for l, c := range counts {
		if c < n/2-n/8 || c > n/2+n/8 {
			t.Fatalf("trunk %d got %d of %d flows; hash is skewed", l, c, n)
		}
	}
}

func TestSeedChangesPlacement(t *testing.T) {
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	a1 := New(g, 2, 1)
	a2 := New(g, 2, 99)
	diff := 0
	for i := 0; i < 100; i++ {
		ft := tup(hosts[0], hosts[5], uint16(i), 50060)
		p1, _ := a1.Resolve(ft)
		p2, _ := a2.Resolve(ft)
		if !p1.Equal(p2) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical placements for all 100 flows")
	}
}

func TestCacheInvalidationOnTopologyChange(t *testing.T) {
	a, hosts, g := setup()
	ps := a.Paths(hosts[0], hosts[5])
	if len(ps) != 2 {
		t.Fatalf("paths = %d, want 2", len(ps))
	}
	// Take one trunk down; cache must refresh.
	trunk := ps[0].Links[1]
	g.SetLinkUp(trunk, false)
	ps2 := a.Paths(hosts[0], hosts[5])
	if len(ps2) != 1 {
		t.Fatalf("paths after link down = %d, want 1", len(ps2))
	}
	for _, p := range ps2 {
		if err := p.Valid(g); err != nil {
			t.Fatalf("stale path after topology change: %v", err)
		}
	}
}

func TestResolveDisconnected(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0)
	b := g.AddNode(topology.Host, "b", 1)
	al := New(g, 2, 0)
	if _, ok := al.Resolve(tup(a, b, 1, 2)); ok {
		t.Fatal("resolved a path in a disconnected graph")
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	g, _, _ := topology.TwoRack(2, 1, topology.Gbps)
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	New(g, 0, 0)
}

// Property: Resolve is a pure function of (tuple, seed) and always yields a
// valid path between the right endpoints.
func TestPropertyResolve(t *testing.T) {
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	a := New(g, 4, 7)
	f := func(si, di uint8, sp, dp uint16, proto uint8) bool {
		src := hosts[int(si)%len(hosts)]
		dst := hosts[int(di)%len(hosts)]
		ft := netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: sp, DstPort: dp, Protocol: proto}
		p1, ok := a.Resolve(ft)
		if !ok {
			return false
		}
		p2, _ := a.Resolve(ft)
		if !p1.Equal(p2) {
			return false
		}
		if src == dst {
			return p1.Hops() == 0
		}
		return p1.Valid(g) == nil && p1.Src == src && p1.Dst == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkResolve(b *testing.B) {
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	a := New(g, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Resolve(tup(hosts[0], hosts[5], uint16(i), 50060))
	}
}
