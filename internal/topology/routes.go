package topology

// The one routing primitive: the shortest-path DAG toward a destination.
//
// For a destination d, dist[n] is n's hop distance to d over up links (-1
// when unreachable). The links (u→v) with dist[v] == dist[u]-1 form a DAG
// whose source-to-d walks are exactly the minimum-hop paths. Both readings
// of "which paths exist" come from it: NextHops is one node's out-edges in
// the DAG (what a switch's table-miss ECMP hashes over), EqualCostPaths is
// the DAG's walks from a source (what the path-level allocators choose
// among). The distance vectors are memoized per destination and dropped
// whole when Version() moves — one reverse BFS per queried destination per
// topology version, one int32 per node per queried destination. Like every
// routing query the memo makes a Graph single-goroutine.

// routes is the per-destination distance memo behind NextHops and
// EqualCostPaths.
type routes struct {
	ver   uint64
	dist  map[NodeID][]int32
	queue []NodeID // BFS scratch
}

// distanceTo returns every node's hop distance to dst over up links, -1 when
// dst is unreachable from it. The slice is shared: callers must not mutate it.
func (g *Graph) distanceTo(dst NodeID) []int32 {
	r := &g.routes
	if r.dist == nil || r.ver != g.version {
		r.dist = make(map[NodeID][]int32)
		r.ver = g.version
	}
	if d, ok := r.dist[dst]; ok {
		return d
	}
	dist := make([]int32, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	r.queue = append(r.queue[:0], dst)
	for qi := 0; qi < len(r.queue); qi++ {
		u := r.queue[qi]
		for _, l := range g.in[u] {
			if from := g.links[l].From; !g.down[l] && dist[from] < 0 {
				dist[from] = dist[u] + 1
				r.queue = append(r.queue, from)
			}
		}
	}
	r.dist[dst] = dist
	return dist
}

// onDAG reports whether link l, leaving a node at distance d from the
// destination of dist, is up and one hop closer to it.
func (g *Graph) onDAG(l LinkID, d int32, dist []int32) bool {
	return !g.down[l] && dist[g.links[l].To] == d-1
}

// NextHops appends to buf[:0] the up links leaving at that lie on a
// minimum-hop path to dst, in ascending link-ID order, and returns it. The
// result is empty when at is dst or cannot reach it.
func (g *Graph) NextHops(at, dst NodeID, buf []LinkID) []LinkID {
	dist := g.distanceTo(dst)
	buf = buf[:0]
	d := dist[at]
	if d <= 0 {
		return buf
	}
	for _, l := range g.out[at] {
		if g.onDAG(l, d, dist) {
			buf = append(buf, l)
		}
	}
	return buf
}

// EqualCostPaths returns the first k minimum-hop paths from src to dst in
// lexicographic link-ID order: a depth-first walk of the shortest-path DAG
// taking each node's out-links in ascending ID, stopped at k. Parallel links
// yield distinct paths. It returns nil when k <= 0 or dst is unreachable,
// and the single zero-hop path when src == dst.
func (g *Graph) EqualCostPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	dist := g.distanceTo(dst)
	hops := int(dist[src])
	if hops < 0 {
		return nil
	}
	var paths []Path
	links := make([]LinkID, hops) // links[:d] is the walk so far
	next := make([]int, hops)     // next[d] indexes the untried out-links at depth d
	for d := 0; d >= 0; {
		if d == hops {
			paths = append(paths, Path{Links: append([]LinkID(nil), links...), Src: src, Dst: dst})
			if len(paths) == k {
				break
			}
			d--
			continue
		}
		at := src
		if d > 0 {
			at = g.links[links[d-1]].To
		}
		out, i := g.out[at], next[d]
		for i < len(out) && !g.onDAG(out[i], int32(hops-d), dist) {
			i++
		}
		if i == len(out) {
			next[d] = 0
			d--
			continue
		}
		links[d], next[d] = out[i], i+1
		d++
	}
	return paths
}
