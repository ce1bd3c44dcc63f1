package topology

// PathCache memoizes EqualCostPaths per (src, dst) at a fixed k. The whole
// memo is dropped when the graph's Version() moves: a cold pair costs a few
// microseconds (BenchmarkPathQueries), which is cheaper than tracking which
// pairs a link or switch flip can affect, and a memo of a canonical
// enumerator keyed on the version cannot return an answer that depends on
// the order of past failures (DESIGN.md §11.3).
type PathCache struct {
	g     *Graph
	k     int
	ver   uint64
	paths map[[2]NodeID][]Path
}

// NewPathCache returns an empty cache over g at the given k.
func NewPathCache(g *Graph, k int) *PathCache {
	if k <= 0 {
		panic("topology: PathCache k must be positive")
	}
	return &PathCache{g: g, k: k}
}

// Paths returns the first k equal-cost paths for the pair, computing and
// caching on miss. The returned slice is shared: callers must not mutate it.
func (c *PathCache) Paths(src, dst NodeID) []Path {
	if v := c.g.Version(); c.paths == nil || v != c.ver {
		c.paths = make(map[[2]NodeID][]Path)
		c.ver = v
	}
	key := [2]NodeID{src, dst}
	ps, ok := c.paths[key]
	if !ok {
		ps = c.g.EqualCostPaths(src, dst, c.k)
		c.paths[key] = ps
	}
	return ps
}
