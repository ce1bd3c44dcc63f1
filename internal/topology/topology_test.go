package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func line3() (*Graph, NodeID, NodeID, NodeID) {
	g := NewGraph()
	a := g.AddNode(Host, "a", 0)
	s := g.AddNode(Switch, "s", 0)
	b := g.AddNode(Host, "b", 0)
	g.AddDuplex(a, s, Gbps, "as")
	g.AddDuplex(s, b, Gbps, "sb")
	return g, a, s, b
}

func TestAddNodeAndLink(t *testing.T) {
	g, a, s, b := line3()
	if g.NumNodes() != 3 || g.NumLinks() != 4 {
		t.Fatalf("nodes=%d links=%d", g.NumNodes(), g.NumLinks())
	}
	if g.Node(a).Kind != Host || g.Node(s).Kind != Switch {
		t.Fatal("node kinds wrong")
	}
	if got := hostsOf(g); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("hosts = %v", got)
	}
	if got := g.Switches(); len(got) != 1 || got[0] != s {
		t.Fatalf("Switches = %v", got)
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Host, "a", 0)
	for _, fn := range []func(){
		func() { g.AddLink(a, NodeID(99), Gbps, "x") },
		func() { g.AddLink(NodeID(99), a, Gbps, "x") },
		func() { g.AddLink(a, a, 0, "x") },
		func() { g.AddLink(a, a, -Gbps, "x") },
		func() { g.AddLink(a, a, math.NaN(), "x") },
		func() { g.AddLink(a, a, math.Inf(1), "x") },
		func() { g.AddLink(a, a, math.Inf(-1), "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid AddLink did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNodeKindString(t *testing.T) {
	if Host.String() != "host" || Switch.String() != "switch" {
		t.Fatal("NodeKind.String wrong")
	}
	if NodeKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestShortestPathLine(t *testing.T) {
	g, a, _, b := line3()
	p, ok := g.ShortestPath(a, b, nil, nil)
	if !ok {
		t.Fatal("no path a->b")
	}
	if p.Hops() != 2 {
		t.Fatalf("hops = %d, want 2", p.Hops())
	}
	if err := p.Valid(g); err != nil {
		t.Fatalf("invalid path: %v", err)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Host, "a", 0)
	b := g.AddNode(Host, "b", 0)
	if _, ok := g.ShortestPath(a, b, nil, nil); ok {
		t.Fatal("found path in disconnected graph")
	}
}

func TestShortestPathRespectsDownedLink(t *testing.T) {
	g, a, _, b := line3()
	p, _ := g.ShortestPath(a, b, nil, nil)
	g.SetLinkUp(p.Links[0], false)
	if _, ok := g.ShortestPath(a, b, nil, nil); ok {
		t.Fatal("path found through downed link on only route")
	}
	g.SetLinkUp(p.Links[0], true)
	if _, ok := g.ShortestPath(a, b, nil, nil); !ok {
		t.Fatal("path not restored after link up")
	}
}

func TestVersionBumps(t *testing.T) {
	g, _, _, _ := line3()
	v := g.Version()
	g.SetLinkUp(0, false)
	if g.Version() == v {
		t.Fatal("version did not change on link down")
	}
	v = g.Version()
	g.SetLinkUp(0, false) // no-op
	if g.Version() != v {
		t.Fatal("version changed on redundant SetLinkUp")
	}
}

func TestTwoRackShape(t *testing.T) {
	g, hosts, trunks := TwoRack(5, 2, Gbps)
	if len(hosts) != 10 {
		t.Fatalf("hosts = %d, want 10", len(hosts))
	}
	if len(trunks) != 2 {
		t.Fatalf("trunks = %d, want 2", len(trunks))
	}
	// 10 host duplexes + 2 trunk duplexes = 24 directed links.
	if g.NumLinks() != 24 {
		t.Fatalf("links = %d, want 24", g.NumLinks())
	}
	if g.Node(hosts[0]).Rack != 0 || g.Node(hosts[9]).Rack != 1 {
		t.Fatal("rack assignment wrong")
	}
}

func TestTwoRackIntraRackPath(t *testing.T) {
	g, hosts, _ := TwoRack(5, 2, Gbps)
	p, ok := g.ShortestPath(hosts[0], hosts[1], nil, nil)
	if !ok || p.Hops() != 2 {
		t.Fatalf("intra-rack path hops = %d, want 2", p.Hops())
	}
}

func TestTwoRackInterRackTwoPaths(t *testing.T) {
	g, hosts, trunks := TwoRack(5, 2, Gbps)
	paths := g.KShortestPaths(hosts[0], hosts[5], 4)
	if len(paths) != 2 {
		t.Fatalf("inter-rack paths = %d, want exactly 2 (two trunks)", len(paths))
	}
	for _, p := range paths {
		if p.Hops() != 3 {
			t.Fatalf("inter-rack path hops = %d, want 3", p.Hops())
		}
		if err := p.Valid(g); err != nil {
			t.Fatalf("invalid path: %v", err)
		}
	}
	// The two paths must use the two distinct trunks.
	usedTrunk := map[LinkID]bool{}
	for _, p := range paths {
		for _, l := range p.Links {
			for _, tr := range trunks {
				if l == tr {
					usedTrunk[l] = true
				}
			}
		}
	}
	if len(usedTrunk) != 2 {
		t.Fatalf("paths used %d distinct trunks, want 2", len(usedTrunk))
	}
}

func TestKShortestOrdering(t *testing.T) {
	g, hosts := LeafSpine(3, 3, 2, Gbps)
	paths := g.KShortestPaths(hosts[0], hosts[2], 8)
	if len(paths) < 3 {
		t.Fatalf("leaf-spine inter-rack paths = %d, want >= 3 (one per spine)", len(paths))
	}
	// The three shortest must be the direct leaf-spine-leaf routes (4 hops);
	// anything after is a longer detour through another leaf.
	for i := 0; i < 3; i++ {
		if paths[i].Hops() != 4 {
			t.Fatalf("path %d hops = %d, want 4", i, paths[i].Hops())
		}
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Hops() < paths[i-1].Hops() {
			t.Fatal("paths not in nondecreasing hop order")
		}
	}
}

func TestKShortestDeterministic(t *testing.T) {
	g, hosts, _ := TwoRack(5, 2, Gbps)
	p1 := g.KShortestPaths(hosts[0], hosts[7], 4)
	p2 := g.KShortestPaths(hosts[0], hosts[7], 4)
	if len(p1) != len(p2) {
		t.Fatal("nondeterministic path count")
	}
	for i := range p1 {
		if !p1[i].Equal(p2[i]) {
			t.Fatal("nondeterministic path order")
		}
	}
}

func TestKShortestNoDuplicates(t *testing.T) {
	g, hosts := FatTree(4, 2, Gbps)
	paths := g.KShortestPaths(hosts[0], hosts[len(hosts)-1], 6)
	if len(paths) < 2 {
		t.Fatalf("fat-tree should offer multiple paths, got %d", len(paths))
	}
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if paths[i].Equal(paths[j]) {
				t.Fatalf("duplicate paths at %d,%d", i, j)
			}
		}
		if err := paths[i].Valid(g); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
	}
}

func TestKShortestZeroOrNegative(t *testing.T) {
	g, hosts, _ := TwoRack(2, 1, Gbps)
	if got := g.KShortestPaths(hosts[0], hosts[2], 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := g.KShortestPaths(hosts[0], hosts[2], -1); got != nil {
		t.Fatal("k<0 should return nil")
	}
}

func TestPathNodesAndFormat(t *testing.T) {
	g, a, s, b := line3()
	p, _ := g.ShortestPath(a, b, nil, nil)
	ns := pathNodes(g, p)
	if len(ns) != 3 || ns[0] != a || ns[1] != s || ns[2] != b {
		t.Fatalf("nodes = %v", ns)
	}
	if got, want := p.Format(g), "a -[as]-> s -[sb]-> b"; got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
}

func TestPathValidCatchesCorruption(t *testing.T) {
	g, a, _, b := line3()
	p, _ := g.ShortestPath(a, b, nil, nil)
	bad := Path{Links: []LinkID{p.Links[1], p.Links[0]}, Src: a, Dst: b}
	if bad.Valid(g) == nil {
		t.Fatal("disconnected link sequence passed Valid")
	}
	short := Path{Links: p.Links[:1], Src: a, Dst: b}
	if short.Valid(g) == nil {
		t.Fatal("path ending early passed Valid")
	}
}

func TestFatTreePathHops(t *testing.T) {
	g, hosts := FatTree(4, 2, Gbps)
	// Same edge switch: 2 hops (host->edge->host).
	p, ok := g.ShortestPath(hosts[0], hosts[1], nil, nil)
	if !ok || p.Hops() != 2 {
		t.Fatalf("same-edge hops = %d, want 2", p.Hops())
	}
	// Cross-pod: host->edge->agg->core->agg->edge->host = 6 hops.
	last := hosts[len(hosts)-1]
	p, ok = g.ShortestPath(hosts[0], last, nil, nil)
	if !ok || p.Hops() != 6 {
		t.Fatalf("cross-pod hops = %d, want 6", p.Hops())
	}
}

func TestBuilderPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { TwoRack(0, 1, Gbps) },
		func() { TwoRack(1, 0, Gbps) },
		func() { LeafSpine(0, 1, 1, Gbps) },
		func() { FatTree(3, 1, Gbps) },
		func() { FatTree(4, 0, Gbps) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid builder args did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: on a random leaf-spine, every k-shortest path returned is valid,
// loop-free and the list has no duplicates.
func TestPropertyKShortestValidity(t *testing.T) {
	f := func(leavesRaw, spinesRaw, kRaw uint8) bool {
		leaves := int(leavesRaw%4) + 2
		spines := int(spinesRaw%4) + 1
		k := int(kRaw%6) + 1
		g, hosts := LeafSpine(leaves, spines, 2, Gbps)
		src, dst := hosts[0], hosts[len(hosts)-1]
		paths := g.KShortestPaths(src, dst, k)
		if len(paths) == 0 || len(paths) > k {
			return false
		}
		for i, p := range paths {
			if p.Valid(g) != nil {
				return false
			}
			if i > 0 && p.Hops() < paths[i-1].Hops() {
				return false
			}
			for j := i + 1; j < len(paths); j++ {
				if p.Equal(paths[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// hostsOf returns the IDs of g's host nodes in ID order.
func hostsOf(g *Graph) []NodeID {
	var hs []NodeID
	for _, n := range g.nodes {
		if n.Kind == Host {
			hs = append(hs, n.ID)
		}
	}
	return hs
}
