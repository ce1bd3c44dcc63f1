package topology

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// bfsDist computes hop distances from src over up links — an independent
// oracle for Dijkstra with the hop-count metric.
func bfsDist(g *Graph, src NodeID) map[NodeID]int {
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, lid := range g.Out(n) {
			to := g.Link(lid).To
			if _, seen := dist[to]; !seen {
				dist[to] = dist[n] + 1
				queue = append(queue, to)
			}
		}
	}
	return dist
}

// Property: ShortestPath length equals BFS distance on random leaf-spine
// and fat-tree topologies, including after random link failures.
func TestPropertyDijkstraMatchesBFS(t *testing.T) {
	f := func(shape uint8, failRaw uint8, si, di uint8) bool {
		var g *Graph
		var hosts []NodeID
		if shape%2 == 0 {
			g, hosts = LeafSpine(int(shape%3)+2, int(shape%2)+2, 2, Gbps)
		} else {
			g, hosts = FatTree(4, 2, Gbps)
		}
		// Fail a few random links deterministically.
		links := g.Links()
		for i := 0; i < int(failRaw%4); i++ {
			g.SetLinkUp(links[(int(failRaw)*7+i*13)%len(links)].ID, false)
		}
		src := hosts[int(si)%len(hosts)]
		dst := hosts[int(di)%len(hosts)]
		if src == dst {
			return true
		}
		want, reachable := bfsDist(g, src)[dst]
		p, ok := g.ShortestPath(src, dst, nil, nil)
		if ok != reachable {
			return false
		}
		if !ok {
			return true
		}
		return p.Hops() == want && p.Valid(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseOnSingleLinks(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Host, "a", 0)
	b := g.AddNode(Host, "b", 0)
	l := g.AddLink(a, b, Gbps, "one-way")
	if _, ok := g.Reverse(l); ok {
		t.Fatal("single link reported a reverse")
	}
	f, r := g.AddDuplex(a, b, Gbps, "du")
	if got, ok := g.Reverse(f); !ok || got != r {
		t.Fatal("duplex forward reverse wrong")
	}
	if got, ok := g.Reverse(r); !ok || got != f {
		t.Fatal("duplex reverse reverse wrong")
	}
}

func TestSetLinkUpUnknownPanics(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Error("unknown link did not panic")
		}
	}()
	g.SetLinkUp(42, false)
}

func TestNodeLinkAccessorPanics(t *testing.T) {
	g := NewGraph()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown node did not panic")
			}
		}()
		g.Node(7)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown link did not panic")
			}
		}()
		g.Link(7)
	}()
}

func TestToDOT(t *testing.T) {
	g, _, trunks := TwoRack(2, 2, Gbps)
	g.SetLinkUp(trunks[0], false)
	dot := ToDOT(g)
	for _, want := range []string{
		"graph topology {", "cluster_rack0", "cluster_rack1",
		"rack0-host0", "tor1", "1G", "style=dashed", "}",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot missing %q:\n%s", want, dot)
		}
	}
	// One edge per duplex pair: 4 host edges + 2 trunks = 6 "--" edges.
	if n := strings.Count(dot, "--"); n != 6 {
		t.Fatalf("edges = %d, want 6", n)
	}
}

func TestToDOTLeafSpineCoreOutsideClusters(t *testing.T) {
	g, _ := LeafSpine(2, 2, 1, Gbps)
	dot := ToDOT(g)
	if !strings.Contains(dot, "spine0") || !strings.Contains(dot, "spine1") {
		t.Fatal("spines missing")
	}
}
