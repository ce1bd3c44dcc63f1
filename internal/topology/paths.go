package topology

import (
	"fmt"
	"strings"
)

// Path is a loop-free sequence of directed links from a source node to a
// destination node. Paths are link sequences, not node sequences, because
// the evaluation topology (two ToR switches joined by two parallel cables)
// has distinct paths that traverse the same nodes.
type Path struct {
	Links []LinkID
	Src   NodeID
	Dst   NodeID
}

// Hops returns the number of links on the path (the paper's distance
// metric).
func (p Path) Hops() int { return len(p.Links) }

// Equal reports whether two paths use the identical link sequence.
func (p Path) Equal(q Path) bool {
	if p.Src != q.Src || p.Dst != q.Dst || len(p.Links) != len(q.Links) {
		return false
	}
	for i := range p.Links {
		if p.Links[i] != q.Links[i] {
			return false
		}
	}
	return true
}

// String renders the path as "src -[link]-> ... -> dst" using node names.
func (p Path) Format(g *Graph) string {
	var b strings.Builder
	b.WriteString(g.Node(p.Src).Name)
	for _, l := range p.Links {
		fmt.Fprintf(&b, " -[%s]-> %s", g.Link(l).Name, g.Node(g.Link(l).To).Name)
	}
	return b.String()
}

// Valid checks structural integrity: links are connected head-to-tail, start
// at Src, end at Dst, all links up, and no node repeats (loop-free).
func (p Path) Valid(g *Graph) error {
	at := p.Src
	seen := map[NodeID]bool{p.Src: true}
	for i, lid := range p.Links {
		l := g.Link(lid)
		if !g.LinkUp(lid) {
			return fmt.Errorf("link %d is down", lid)
		}
		if l.From != at {
			return fmt.Errorf("link %d at position %d starts at node %d, expected %d", lid, i, l.From, at)
		}
		at = l.To
		if seen[at] && at != p.Dst {
			return fmt.Errorf("path revisits node %d", at)
		}
		if seen[at] && at == p.Dst && i != len(p.Links)-1 {
			return fmt.Errorf("path passes through destination before ending")
		}
		seen[at] = true
	}
	if at != p.Dst {
		return fmt.Errorf("path ends at node %d, expected %d", at, p.Dst)
	}
	return nil
}
