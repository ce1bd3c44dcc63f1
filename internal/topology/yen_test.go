package topology

// The Yen/successive-Dijkstra k-shortest-paths implementation every allocator
// ran on before EqualCostPaths (routes.go), kept verbatim as the differential
// oracle: routes_test.go checks the DAG walk against it, and the pre-existing
// TestKShortest*/TestShortestPath*/TestProperty* tests keep running on it
// unedited. The only change from the production copy is where the scratch
// lives — a Graph no longer carries an spScratch, so the oracle keeps one per
// graph in a package-level table.

var yenScratch = map[*Graph]*spScratch{}

func (g *Graph) yenSP() *spScratch {
	s := yenScratch[g]
	if s == nil {
		s = &spScratch{}
		yenScratch[g] = s
	}
	return s
}

// spScratch is the reusable state behind ShortestPath/KShortestPaths.
// Visited marks and ban sets are epoch-stamped so queries never pay an
// O(nodes+links) clear; growing the graph just extends the slices (zero
// stamps never equal a live epoch).
type spScratch struct {
	epoch    uint64
	visited  []uint64 // visited[n] == epoch: n reached this query
	dist     []int
	prev     []LinkID
	queue    []NodeID
	banEpoch uint64
	linkBan  []uint64 // linkBan[l] == banEpoch: l excluded this query
	nodeBan  []uint64
}

func (s *spScratch) grow(nodes, links int) {
	for len(s.visited) < nodes {
		s.visited = append(s.visited, 0)
		s.dist = append(s.dist, 0)
		s.prev = append(s.prev, -1)
		s.nodeBan = append(s.nodeBan, 0)
	}
	for len(s.linkBan) < links {
		s.linkBan = append(s.linkBan, 0)
	}
}

// ShortestPath finds a minimum-hop path from src to dst, excluding any
// links in banned and any nodes in bannedNodes. It returns the path and
// true, or a zero path and false when dst is unreachable. Ties are broken
// deterministically by link ID so results are stable across runs.
//
// The metric is unit hop count, so this is a FIFO breadth-first search —
// exactly equivalent to Dijkstra ordered by (distance, insertion), which
// is what earlier revisions ran, but without the heap or any per-call
// allocation (scratch lives on the Graph; see spScratch).
func (g *Graph) ShortestPath(src, dst NodeID, banned map[LinkID]bool, bannedNodes map[NodeID]bool) (Path, bool) {
	s := g.yenSP()
	s.grow(len(g.nodes), len(g.links))
	s.banEpoch++
	for lid, b := range banned {
		if b {
			s.linkBan[lid] = s.banEpoch
		}
	}
	for n, b := range bannedNodes {
		if b {
			s.nodeBan[n] = s.banEpoch
		}
	}
	return g.shortestPathBFS(src, dst)
}

// shortestPathBFS runs the search against the current scratch ban epoch.
func (g *Graph) shortestPathBFS(src, dst NodeID) (Path, bool) {
	s := g.yenSP()
	s.epoch++
	s.queue = s.queue[:0]
	s.visited[src] = s.epoch
	s.dist[src] = 0
	s.prev[src] = -1
	s.queue = append(s.queue, src)
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		if u == dst {
			break
		}
		nd := s.dist[u] + 1
		for _, lid := range g.out[u] {
			if g.down[lid] || s.linkBan[lid] == s.banEpoch {
				continue
			}
			to := g.links[lid].To
			if s.nodeBan[to] == s.banEpoch && to != dst {
				continue
			}
			if s.visited[to] != s.epoch {
				// First discovery is final with unit weights.
				s.visited[to] = s.epoch
				s.dist[to] = nd
				s.prev[to] = lid
				s.queue = append(s.queue, to)
			} else if nd == s.dist[to] && s.prev[to] > lid && s.prev[to] != -1 {
				// Equal-cost with a smaller link ID: keeps
				// tie-breaks deterministic.
				s.prev[to] = lid
			}
		}
	}
	if src != dst && s.visited[dst] != s.epoch {
		return Path{}, false
	}
	n := 0
	for at := dst; at != src; n++ {
		at = g.links[s.prev[at]].From
	}
	links := make([]LinkID, n)
	for at := dst; at != src; {
		lid := s.prev[at]
		n--
		links[n] = lid
		at = g.links[lid].From
	}
	return Path{Links: links, Src: src, Dst: dst}, true
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// nondecreasing hop-count order (Yen's algorithm over link sequences, built
// from successive Dijkstra calls as the paper describes). Parallel links
// yield distinct paths. Results are deterministic.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.ShortestPath(src, dst, nil, nil)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path

	for len(paths) < k {
		prevPath := paths[len(paths)-1]
		// For each node along the previous path, branch: ban the links
		// that previous paths used at this divergence point and the
		// root-path nodes, then reroute the tail.
		prevNodes := pathNodes(g, prevPath)
		for i := 0; i < len(prevPath.Links); i++ {
			spurNode := prevNodes[i]
			rootLinks := prevPath.Links[:i]

			// Stamp the bans straight into the scratch epoch instead of
			// building throwaway maps for every spur.
			sp := g.yenSP()
			sp.grow(len(g.nodes), len(g.links))
			sp.banEpoch++
			for _, p := range paths {
				if hasPrefix(p.Links, rootLinks) && len(p.Links) > i {
					sp.linkBan[p.Links[i]] = sp.banEpoch
				}
			}
			for _, n := range prevNodes[:i] {
				sp.nodeBan[n] = sp.banEpoch
			}

			spur, ok := g.shortestPathBFS(spurNode, dst)
			if !ok {
				continue
			}
			total := Path{
				Links: append(append([]LinkID(nil), rootLinks...), spur.Links...),
				Src:   src,
				Dst:   dst,
			}
			if total.Valid(g) != nil {
				continue
			}
			dup := false
			for _, c := range candidates {
				if c.Equal(total) {
					dup = true
					break
				}
			}
			for _, p := range paths {
				if p.Equal(total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Pick the shortest candidate; tie-break by lexicographic link
		// IDs for determinism.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if pathLess(candidates[i], candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func hasPrefix(links, prefix []LinkID) bool {
	if len(links) < len(prefix) {
		return false
	}
	for i := range prefix {
		if links[i] != prefix[i] {
			return false
		}
	}
	return true
}

func pathLess(a, b Path) bool {
	if len(a.Links) != len(b.Links) {
		return len(a.Links) < len(b.Links)
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return a.Links[i] < b.Links[i]
		}
	}
	return false
}

// pathNodes returns the node sequence Src..Dst implied by p's links.
func pathNodes(g *Graph, p Path) []NodeID {
	ns := []NodeID{p.Src}
	for _, l := range p.Links {
		ns = append(ns, g.Link(l).To)
	}
	return ns
}
