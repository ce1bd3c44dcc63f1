// Package ecmp implements the fabric's default forwarding pipeline and the
// paper's baseline flow-allocation scheme, Equal-Cost Multi-Pathing. As in
// RFC 2992, every switch on the way hashes the flow's five-tuple and takes
// the result modulo its number of equal-cost next hops — the out-links of
// the shortest-path DAG toward the destination — so a flow spreads over
// every equal-cost path of the fabric without any switch enumerating them.
// The hash is load-unaware: two elephant flows can land on the same
// congested path while an alternative sits idle — the adversarial case of
// Fig. 1b.
//
// Walk is the one implementation of that hop-by-hop walk. The SDN
// controller runs it with a flow-table lookup in front of every hop (a
// table miss falls through to the hash); the baseline Allocator runs it on
// empty tables.
package ecmp

import (
	"fmt"

	"pythia/internal/netsim"
	"pythia/internal/stats"
	"pythia/internal/topology"
)

// Hash is the flow hash a switch at node at computes for tuple t. The salt
// stands for a different hash function per deployment (or different TCP
// source ports across job runs); salt 0 is the fabric's own pipeline.
func Hash(t netsim.FiveTuple, at topology.NodeID, salt uint64) uint64 {
	z := uint64(t.SrcHost)<<48 ^ uint64(t.DstHost)<<32 ^
		uint64(t.SrcPort)<<16 ^ uint64(t.DstPort) ^ uint64(t.Protocol)<<56 ^ uint64(at)<<24
	return stats.Mix64(z ^ stats.Mix64(salt))
}

// Walk forwards t through g hop by hop. At each node, rule (nil for none)
// may name the out-link; otherwise the node hashes t with salt over its
// shortest-path next hops toward t.DstHost. hops is the caller's reusable
// next-hop buffer. It fails when the fabric has no route or a rule
// loop is detected. Same-host tuples resolve to the zero-hop local path.
func Walk(g *topology.Graph, t netsim.FiveTuple, salt uint64,
	rule func(at topology.NodeID) (topology.LinkID, bool), hops *[]topology.LinkID) (topology.Path, error) {
	if t.SrcHost == t.DstHost {
		return topology.Path{Src: t.SrcHost, Dst: t.DstHost}, nil
	}
	var links []topology.LinkID
	at := t.SrcHost
	maxHops := 4 * g.NumNodes()
	for at != t.DstHost {
		if len(links) >= maxHops {
			return topology.Path{}, fmt.Errorf("ecmp: forwarding loop resolving %v after %d hops", t, len(links))
		}
		next, ok := topology.LinkID(-1), false
		if rule != nil {
			next, ok = rule(at)
		}
		if !ok {
			*hops = g.NextHops(at, t.DstHost, *hops)
			if len(*hops) == 0 {
				return topology.Path{}, fmt.Errorf("ecmp: no route from node %d to %d", at, t.DstHost)
			}
			next = (*hops)[Hash(t, at, salt)%uint64(len(*hops))]
		}
		links = append(links, next)
		at = g.Link(next).To
	}
	p := topology.Path{Links: links, Src: t.SrcHost, Dst: t.DstHost}
	if err := p.Valid(g); err != nil {
		return topology.Path{}, fmt.Errorf("ecmp: resolved invalid path: %w", err)
	}
	return p, nil
}

// Allocator is the baseline: the forwarding walk on empty tables, salted
// with its seed. It reads the live graph, so topology events need no
// invalidation.
type Allocator struct {
	g    *topology.Graph
	seed uint64
	hops []topology.LinkID

	// FlowsRescued counts in-flight flows re-hashed off failed paths by
	// RescueStranded (fault-plane subscription via AttachNetwork).
	FlowsRescued int
}

// New returns an ECMP allocator. The seed salts the hash so experiments can
// sample different (deterministic) hash placements, emulating different TCP
// source ports across job runs; seed 0 reproduces the controller's table
// miss exactly.
func New(g *topology.Graph, seed uint64) *Allocator {
	return &Allocator{g: g, seed: seed}
}

// Resolve picks the path for a flow by walking it through the fabric.
func (a *Allocator) Resolve(t netsim.FiveTuple) (topology.Path, error) {
	return Walk(a.g, t, a.seed, nil, &a.hops)
}

// AttachNetwork subscribes the allocator to the network's fault plane:
// every link/switch failure or recovery re-hashes the in-flight shuffle
// flows whose paths died. ECMP has no controller, so this models each
// switch's local hash simply re-spreading over the surviving equal-cost
// next hops.
func (a *Allocator) AttachNetwork(net *netsim.Network) {
	net.SubscribeTopology(func(netsim.TopoEvent) {
		a.RescueStranded(net)
	})
}

// RescueStranded walks the active shuffle flows and re-resolves any whose
// path crosses a dead link, returning how many moved. Flows whose pair is
// fully disconnected stay put and starve until connectivity returns (there
// is nowhere to move them). Recovery events matter too:
// re-hashing on recovery is what puts traffic back onto restored trunks.
func (a *Allocator) RescueStranded(net *netsim.Network) int {
	moved := 0
	net.ForEachActive(func(f *netsim.Flow) {
		if len(f.Path.Links) == 0 {
			return // zero-hop local flow
		}
		if f.Path.Valid(a.g) == nil {
			return // still routable
		}
		p, err := a.Resolve(f.Tuple)
		if err != nil {
			return // disconnected: starve until recovery
		}
		net.Reroute(f, p)
		moved++
	})
	a.FlowsRescued += moved
	return moved
}
