// Package ecmp implements the paper's baseline flow-allocation scheme:
// Equal-Cost Multi-Pathing. As in the paper's own implementation, a flow's
// five-tuple is hashed and the flow is assigned a path by a modulus
// computation over the number of available paths in the routing graph
// (cf. RFC 2992). The hash is load-unaware: two elephant flows can land on
// the same congested path while an alternative sits idle — the adversarial
// case of Fig. 1b.
package ecmp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"pythia/internal/netsim"
	"pythia/internal/stats"
	"pythia/internal/topology"
)

// Allocator assigns paths by five-tuple hash over the first k equal-cost
// paths of each host pair, read from a topology.PathCache (dropped on any
// topology event; the paper recomputes the routing graph only then, keeping
// routing computation off the data path).
type Allocator struct {
	g    *topology.Graph
	pc   *topology.PathCache
	seed uint64

	// FlowsRescued counts in-flight flows re-hashed off failed paths by
	// RescueStranded (fault-plane subscription via AttachNetwork).
	FlowsRescued int
}

// New returns an ECMP allocator over the first k equal-cost paths per pair.
// The seed perturbs the hash so experiments can sample different
// (deterministic) hash placements, emulating different TCP source ports
// across job runs.
func New(g *topology.Graph, k int, seed uint64) *Allocator {
	if k <= 0 {
		panic("ecmp: k must be positive")
	}
	return &Allocator{g: g, pc: topology.NewPathCache(g, k), seed: seed}
}

// Paths returns the cached equal-cost path set for a host pair.
func (a *Allocator) Paths(src, dst topology.NodeID) []topology.Path {
	return a.pc.Paths(src, dst)
}

// Hash computes the flow hash used for the modulus path selection.
func (a *Allocator) Hash(t netsim.FiveTuple) uint64 {
	h := fnv.New64a()
	var buf [21]byte
	binary.BigEndian.PutUint64(buf[0:8], a.seed)
	binary.BigEndian.PutUint32(buf[8:12], uint32(t.SrcHost))
	binary.BigEndian.PutUint32(buf[12:16], uint32(t.DstHost))
	binary.BigEndian.PutUint16(buf[16:18], t.SrcPort)
	binary.BigEndian.PutUint16(buf[18:20], t.DstPort)
	buf[20] = t.Protocol
	h.Write(buf[:])
	// FNV-1a's low bits are parity-linear in the input bytes, which biases
	// a small modulus (e.g. 2 trunk paths). Finalize with an avalanche mix
	// so every output bit depends on every input byte.
	return stats.Mix64(h.Sum64())
}

// Resolve picks the path for a flow: hash(five-tuple) mod |paths|. It
// returns false when the pair is disconnected. Same-host pairs resolve to
// the zero-hop local path.
func (a *Allocator) Resolve(t netsim.FiveTuple) (topology.Path, bool) {
	if t.SrcHost == t.DstHost {
		return topology.Path{Src: t.SrcHost, Dst: t.DstHost}, true
	}
	ps := a.Paths(t.SrcHost, t.DstHost)
	if len(ps) == 0 {
		return topology.Path{}, false
	}
	return ps[a.Hash(t)%uint64(len(ps))], true
}

// ResolveShuffle adapts Resolve to the hadoop.PathResolver interface, making
// plain ECMP usable directly as the cluster's flow allocator (the paper's
// baseline configuration).
func (a *Allocator) ResolveShuffle(t netsim.FiveTuple) (topology.Path, error) {
	p, ok := a.Resolve(t)
	if !ok {
		return topology.Path{}, fmt.Errorf("ecmp: no path %d -> %d", t.SrcHost, t.DstHost)
	}
	return p, nil
}

// AttachNetwork subscribes the allocator to the network's fault plane:
// every link/switch failure or recovery re-hashes the in-flight flows of
// the given kinds whose paths died. ECMP has no controller, so this models
// each switch's local hash simply re-spreading over the surviving
// equal-cost next hops. Attach one allocator per flow kind it owns (the
// shuffle allocator must not move another allocator's storage flows).
func (a *Allocator) AttachNetwork(net *netsim.Network, kinds ...netsim.FlowKind) {
	net.SubscribeTopology(func(netsim.TopoEvent) {
		a.RescueStranded(net, kinds...)
	})
}

// RescueStranded walks the active flows of the given kinds and re-resolves
// any whose path crosses a dead link, returning how many moved. Flows whose
// pair is fully disconnected stay put and starve until connectivity
// returns (there is nowhere to move them). Recovery events matter too:
// re-hashing on recovery is what puts traffic back onto restored trunks.
func (a *Allocator) RescueStranded(net *netsim.Network, kinds ...netsim.FlowKind) int {
	moved := 0
	net.ForEachActive(func(f *netsim.Flow) {
		if len(f.Path.Links) == 0 {
			return // zero-hop local flow, nothing to rescue
		}
		match := false
		for _, k := range kinds {
			if f.Kind == k {
				match = true
				break
			}
		}
		if !match {
			return
		}
		if f.Path.Valid(a.g) == nil {
			return // still routable
		}
		p, ok := a.Resolve(f.Tuple)
		if !ok {
			return // disconnected: starve until recovery
		}
		net.Reroute(f, p)
		moved++
	})
	a.FlowsRescued += moved
	return moved
}
