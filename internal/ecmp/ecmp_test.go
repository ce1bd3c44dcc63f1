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
	return New(g, 1), hosts, g
}

func tup(src, dst topology.NodeID, sp, dp uint16) netsim.FiveTuple {
	return netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: sp, DstPort: dp, Protocol: 6}
}

func TestResolveDeterministic(t *testing.T) {
	a, hosts, _ := setup()
	ft := tup(hosts[0], hosts[5], 100, 200)
	p1, err1 := a.Resolve(ft)
	p2, err2 := a.Resolve(ft)
	if err1 != nil || err2 != nil || !p1.Equal(p2) {
		t.Fatal("same tuple resolved to different paths")
	}
}

func TestResolveLocal(t *testing.T) {
	a, hosts, _ := setup()
	p, err := a.Resolve(tup(hosts[0], hosts[0], 1, 2))
	if err != nil || p.Hops() != 0 {
		t.Fatalf("local resolve = %v hops, err=%v", p.Hops(), err)
	}
}

func TestResolveValidPath(t *testing.T) {
	a, hosts, g := setup()
	for sp := uint16(0); sp < 50; sp++ {
		p, err := a.Resolve(tup(hosts[1], hosts[7], sp, 50060))
		if err != nil {
			t.Fatal(err)
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
	// In a leaf-spine with 2 spines, every walk takes a minimum-hop path
	// (one per spine) and never a longer detour, and both spines are used.
	g, hosts := topology.LeafSpine(3, 2, 2, topology.Gbps)
	a := New(g, 1)
	minHops := g.EqualCostPaths(hosts[0], hosts[4], 1)[0].Hops()
	seen := map[topology.LinkID]bool{}
	for sp := uint16(0); sp < 64; sp++ {
		p, err := a.Resolve(tup(hosts[0], hosts[4], sp, 50060))
		if err != nil {
			t.Fatal(err)
		}
		if p.Hops() != minHops {
			t.Fatalf("walk took %d hops, shortest is %d", p.Hops(), minHops)
		}
		seen[p.Links[1]] = true // leaf uplink picks the spine
	}
	if len(seen) != 2 {
		t.Fatalf("64 flows crossed %d spines, want 2", len(seen))
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
	a1 := New(g, 1)
	a2 := New(g, 99)
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
	// The walk reads the live graph: after a trunk fails no flow is hashed
	// onto it, and after it recovers flows spread over both trunks again.
	a, hosts, g := setup()
	trunks := func() map[topology.LinkID]int {
		used := map[topology.LinkID]int{}
		for sp := uint16(0); sp < 64; sp++ {
			p, err := a.Resolve(tup(hosts[0], hosts[5], sp, 50060))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Valid(g); err != nil {
				t.Fatalf("dead link on a resolved path: %v", err)
			}
			used[p.Links[1]]++
		}
		return used
	}
	before := trunks()
	if len(before) != 2 {
		t.Fatalf("trunks used = %d, want 2", len(before))
	}
	var dead topology.LinkID
	for l := range before {
		dead = l
	}
	g.SetLinkUp(dead, false)
	if after := trunks(); len(after) != 1 || after[dead] != 0 {
		t.Fatalf("trunks used after link down = %v, want only the survivor", after)
	}
	g.SetLinkUp(dead, true)
	if back := trunks(); len(back) != 2 {
		t.Fatalf("trunks used after recovery = %d, want 2", len(back))
	}
}

func TestResolveDisconnected(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0)
	b := g.AddNode(topology.Host, "b", 1)
	al := New(g, 0)
	if _, err := al.Resolve(tup(a, b, 1, 2)); err == nil {
		t.Fatal("resolved a path in a disconnected graph")
	}
}

// Property: Resolve is a pure function of (tuple, seed) and always yields a
// valid path between the right endpoints.
func TestPropertyResolve(t *testing.T) {
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	a := New(g, 7)
	f := func(si, di uint8, sp, dp uint16, proto uint8) bool {
		src := hosts[int(si)%len(hosts)]
		dst := hosts[int(di)%len(hosts)]
		ft := netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: sp, DstPort: dp, Protocol: proto}
		p1, err := a.Resolve(ft)
		if err != nil {
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
	a := New(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Resolve(tup(hosts[0], hosts[5], uint16(i), 50060))
	}
}
