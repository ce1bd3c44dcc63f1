package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomGraph builds a small irregular graph: 6–13 nodes joined by a mix of
// duplex cables, one-way links and parallel cables — the shapes the builders'
// regular fabrics never produce.
func randomGraph(rng *rand.Rand) *Graph {
	g := NewGraph()
	n := 6 + rng.Intn(8)
	for i := 0; i < n; i++ {
		g.AddNode(Switch, fmt.Sprintf("n%d", i), -1)
	}
	for i, m := 0, n+rng.Intn(n); i < m; i++ {
		growRandomGraph(g, rng)
	}
	return g
}

// growRandomGraph adds one random cable: duplex, one-way, or a parallel pair.
func growRandomGraph(g *Graph, rng *rand.Rand) {
	a := NodeID(rng.Intn(g.NumNodes()))
	b := NodeID(rng.Intn(g.NumNodes()))
	if a == b {
		return
	}
	switch rng.Intn(4) {
	case 0:
		g.AddLink(a, b, Gbps, "one-way")
	case 1:
		g.AddDuplex(a, b, Gbps, "cable")
		g.AddDuplex(a, b, Gbps, "parallel")
	default:
		g.AddDuplex(a, b, Gbps, "cable")
	}
}

// flipRandomGraph fails or restores one random link or node.
func flipRandomGraph(g *Graph, rng *rand.Rand) {
	up := rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		g.SetNodeUp(NodeID(rng.Intn(g.NumNodes())), up)
	} else if g.NumLinks() > 0 {
		g.SetLinkUp(LinkID(rng.Intn(g.NumLinks())), up)
	}
}

// canonicalEqualCost is the oracle's reading of "first k equal-cost paths":
// Yen at a k large enough to hold every minimum-hop path, keep the
// minimum-hop ones, sort by pathLess, truncate. ok is false when Yen's list
// filled up before leaving the minimum hop count (the oracle cannot then
// vouch for completeness).
func canonicalEqualCost(g *Graph, src, dst NodeID, k int) (paths []Path, ok bool) {
	const yenK = 200
	all := g.KShortestPaths(src, dst, yenK)
	if len(all) == 0 {
		return nil, true
	}
	for _, p := range all {
		if p.Hops() == all[0].Hops() {
			paths = append(paths, p)
		}
	}
	if len(paths) == yenK {
		return nil, false
	}
	sort.Slice(paths, func(i, j int) bool { return pathLess(paths[i], paths[j]) })
	if len(paths) > k {
		paths = paths[:k]
	}
	return paths, true
}

const allPaths = 1 << 30

// TestEqualCostPathsMatchesOracle checks the DAG walk against the canonical
// first-k minimum-hop paths on seeded random graphs with parallel cables,
// one-way links and link/node failures, and checks that NextHops is the first
// step of the same DAG.
func TestEqualCostPathsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	graphs, checked := 200, 0
	if testing.Short() {
		graphs = 40
	}
	for gi := 0; gi < graphs; gi++ {
		g := randomGraph(rng)
		for round := 0; round < 4; round++ {
			for q := 0; q < 6; q++ {
				src := NodeID(rng.Intn(g.NumNodes()))
				dst := NodeID(rng.Intn(g.NumNodes()))
				full, ok := canonicalEqualCost(g, src, dst, allPaths)
				if !ok {
					continue
				}
				checked++
				for _, k := range []int{1, 2, 3, 4, 8, 16, allPaths} {
					want := full
					if len(want) > k {
						want = want[:k]
					}
					got := g.EqualCostPaths(src, dst, k)
					if !pathsEqual(got, want) {
						t.Fatalf("graph %d round %d: EqualCostPaths(%d, %d, %d) = %v, oracle %v", gi, round, src, dst, k, got, want)
					}
					if len(want) == 0 && got != nil {
						t.Fatalf("graph %d: unreachable pair %d->%d returned non-nil %v", gi, src, dst, got)
					}
					for _, p := range got {
						if err := p.Valid(g); err != nil {
							t.Fatalf("graph %d: EqualCostPaths(%d, %d, %d) returned invalid path: %v", gi, src, dst, k, err)
						}
					}
				}
				if g.EqualCostPaths(src, dst, 0) != nil || g.EqualCostPaths(src, dst, -1) != nil {
					t.Fatalf("graph %d: k <= 0 returned paths", gi)
				}
				// The distinct first links of the full set, in order, are
				// the node's next hops.
				var first []LinkID
				for _, p := range full {
					if len(p.Links) > 0 && (len(first) == 0 || first[len(first)-1] != p.Links[0]) {
						first = append(first, p.Links[0])
					}
				}
				if hops := g.NextHops(src, dst, nil); !slices.Equal(hops, first) {
					t.Fatalf("graph %d: NextHops(%d, %d) = %v, first links of the equal-cost set %v", gi, src, dst, hops, first)
				}
			}
			flipRandomGraph(g, rng)
			flipRandomGraph(g, rng)
		}
	}
	if checked < graphs*20 {
		t.Fatalf("oracle vouched for only %d queries over %d graphs", checked, graphs)
	}
}

// TestEqualCostPathsMatchesYenPrefixOnBuilderFabrics is the written reason
// the pinned results did not move when EqualCostPaths replaced Yen: on every
// fabric the builders produce, at every K the experiments use, the DAG walk
// returns exactly the equal-cost prefix of Yen's output at the same K — the
// set ecmp.Allocator always filtered to, and the only part of Yen's output a
// pinned Pythia run ever placed an aggregate on. (On irregular graphs the two
// differ; TestEqualCostPathsMatchesOracle shows which one is canonical.)
func TestEqualCostPathsMatchesYenPrefixOnBuilderFabrics(t *testing.T) {
	type fabric struct {
		name  string
		build func() (*Graph, []NodeID)
	}
	twoRack := func(trunks int) func() (*Graph, []NodeID) {
		return func() (*Graph, []NodeID) { g, hosts, _ := TwoRack(5, trunks, Gbps); return g, hosts }
	}
	fabrics := []fabric{
		{"two-rack 2 trunks", twoRack(2)},
		{"two-rack 4 trunks", twoRack(4)},
		{"leaf-spine 4x2", func() (*Graph, []NodeID) { return LeafSpine(4, 2, 3, Gbps) }},
		{"leaf-spine 4x4", func() (*Graph, []NodeID) { return LeafSpine(4, 4, 3, Gbps) }},
		{"fat-tree k=4", func() (*Graph, []NodeID) { return FatTree(4, 2, Gbps) }},
		{"fat-tree k=6", func() (*Graph, []NodeID) { return FatTree(6, 3, Gbps) }},
		{"fat-tree k=8", func() (*Graph, []NodeID) { return FatTree(8, 4, Gbps) }},
	}
	if testing.Short() {
		fabrics = fabrics[:len(fabrics)-1]
	}
	for _, f := range fabrics {
		g, hosts := f.build()
		stride := 1
		if len(hosts) > 40 {
			stride = 11
		}
		pair := 0
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				if pair++; pair%stride != 0 {
					continue
				}
				for _, k := range []int{1, 2, 3, 4, 8, 16} {
					yen := g.KShortestPaths(src, dst, k)
					var want []Path
					for _, p := range yen {
						if p.Hops() == yen[0].Hops() {
							want = append(want, p)
						}
					}
					if got := g.EqualCostPaths(src, dst, k); !pathsEqual(got, want) {
						t.Fatalf("%s, K=%d, %d->%d: EqualCostPaths %v, Yen's equal-cost prefix %v", f.name, k, src, dst, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkPathQueries reports the cost of one PathCache query at K = 4 on
// fat-trees, cold (first query after a topology event: the distance BFS for a
// new destination plus the DAG walk) and warm (memo hit), over 2000 random
// host pairs like the repository benchmark's topology.ksp_* probe rows.
func BenchmarkPathQueries(b *testing.B) {
	for _, k := range []int{8, 16} {
		g, hosts := FatTree(k, k/2, Gbps)
		rng := rand.New(rand.NewSource(1))
		pairs := make([][2]NodeID, 2000)
		for i := range pairs {
			pairs[i] = [2]NodeID{hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]}
		}
		run := func(b *testing.B, cold bool) {
			cache := NewPathCache(g, 4)
			pass := func() {
				for _, p := range pairs {
					cache.Paths(p[0], p[1])
				}
			}
			// A flap leaves the fabric as it was and moves Version(),
			// dropping both memos.
			flap := func() {
				g.SetLinkUp(0, false)
				g.SetLinkUp(0, true)
			}
			flap()
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					flap()
				}
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
		}
		b.Run(fmt.Sprintf("k%d/cold", k), func(b *testing.B) { run(b, true) })
		b.Run(fmt.Sprintf("k%d/warm", k), func(b *testing.B) { run(b, false) })
	}
}
