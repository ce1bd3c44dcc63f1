package topology

import (
	"math/rand"
	"testing"
)

func pathsEqual(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// checkCacheFresh is the one property PathCache has to hold: whatever
// happened to the graph since the last query, the cached answer for every
// pair equals a fresh EqualCostPaths — and asking again is a memo hit (the
// same backing array), not a recomputation.
func checkCacheFresh(t *testing.T, g *Graph, cache *PathCache, nodes []NodeID, when string) {
	t.Helper()
	for _, s := range nodes {
		for _, d := range nodes {
			got := cache.Paths(s, d)
			if want := g.EqualCostPaths(s, d, cache.k); !pathsEqual(got, want) {
				t.Fatalf("%s: cached paths %d->%d = %v, fresh %v", when, s, d, got, want)
			}
			if again := cache.Paths(s, d); len(got) > 0 && &again[0] != &got[0] {
				t.Fatalf("%s: second query %d->%d recomputed instead of hitting the memo", when, s, d)
			}
		}
	}
}

// TestPathCacheEquivalenceUnderFaultStorm storms the cache with mutations
// and checks checkCacheFresh after every one of them: (a) link and node
// flips on a fat-tree, (b) 200 seeded random graphs (duplex and one-way
// links, parallel cables) under SetLinkUp, SetNodeUp and mid-run AddDuplex
// growth.
//
// The cache this replaced memoized Yen's k-shortest paths and repaired
// itself per affected pair from a journal of link flips, on the argument that
// Yen's output is the unique k-minimal path set under pathLess. It is not
// (Yen truncated at K can differ from the canonical first K), and the same
// storm against that cache failed at commit 2fe4367: on random graphs under
// link flips it returned an answer different from a fresh Yen computation in
// 407 of 343 600 checks (ISSUE 21's run; storm (b) exactly as written here,
// seed 22, ported to that commit: 20 of 222 132) — always valid paths, but
// dependent on the order of past failures. The builders' regular fabrics,
// which storm (a) alone covered, hide it.
func TestPathCacheEquivalenceUnderFaultStorm(t *testing.T) {
	t.Run("fat-tree", func(t *testing.T) {
		for _, k := range []int{1, 2, 4} {
			g, hosts := FatTree(4, 2, 1e9)
			cache := NewPathCache(g, k)
			rng := rand.New(rand.NewSource(int64(1000 + k)))
			for round := 0; round < 60; round++ {
				for i := 0; i < 3; i++ {
					flipRandomGraph(g, rng)
				}
				checkCacheFresh(t, g, cache, hosts, "fat-tree storm")
			}
		}
	})
	t.Run("random-graphs", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for gi := 0; gi < 200; gi++ {
			g := randomGraph(rng)
			cache := NewPathCache(g, 1+rng.Intn(4))
			for round := 0; round < 12; round++ {
				if round%4 == 3 {
					growRandomGraph(g, rng)
				} else {
					flipRandomGraph(g, rng)
				}
				nodes := make([]NodeID, g.NumNodes())
				for i := range nodes {
					nodes[i] = NodeID(i)
				}
				checkCacheFresh(t, g, cache, nodes, "random-graph storm")
			}
		}
	})
}

// TestPathCacheStructuralFlush: growth moves Version() like any other
// mutation, so a host cabled in after the cache was warmed is routed to and
// the old pairs are re-answered on the grown graph.
func TestPathCacheStructuralFlush(t *testing.T) {
	g, hosts, _ := TwoRack(2, 2, 1e9)
	cache := NewPathCache(g, 2)
	checkCacheFresh(t, g, cache, hosts, "before growth")
	late := g.AddNode(Host, "late-host", 0)
	g.AddDuplex(late, g.Switches()[0], 1e9, "late-link")
	checkCacheFresh(t, g, cache, append(hosts, late), "after growth")
	if len(cache.Paths(hosts[0], late)) == 0 {
		t.Fatal("no path to the host added after the cache was warmed")
	}
}
