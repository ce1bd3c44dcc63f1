package pythia

import (
	"fmt"

	"pythia/internal/topology"
)

// Topology options: the fabric under test — see the package doc's
// "Configuring a cluster" index.

// WithHostsPerRack sizes the racks (default 5, the paper's testbed).
func WithHostsPerRack(n int) Option { return func(c *config) { c.hostsPerRack = n } }

// WithTrunks sets the number of parallel inter-rack links (default 2).
func WithTrunks(n int) Option { return func(c *config) { c.trunks = n } }

// WithLinkRateGbps sets every link's rate (default 1 Gbps).
func WithLinkRateGbps(g float64) Option { return func(c *config) { c.linkBps = g * 1e9 } }

// WithOversubscription loads the trunks with CBR background traffic so the
// bandwidth left to Hadoop is rackBandwidth/n, split asymmetrically across
// trunks as in the paper's evaluation: the inter-rack trunks of a two-rack
// fabric, or each leaf's spine uplinks on a leaf-spine. A fat-tree has no
// trunks to load (its oversubscription is its own arity). n <= 0 disables
// background traffic.
func WithOversubscription(n int) Option { return func(c *config) { c.oversub = n } }

// LinkID identifies a directed fabric link on the facade. Duplex cables are
// two directed links; facade fault methods operate on whole cables, so
// either direction's ID names the cable.
type LinkID = topology.LinkID

// SwitchID identifies a switch node on the facade.
type SwitchID = topology.NodeID

// SwitchInfo describes one switch of the cluster fabric.
type SwitchInfo struct {
	ID   SwitchID
	Name string
	// Rack is the rack a ToR switch serves; -1 for spine/core switches.
	Rack int
}

// TopologySpec names a fabric shape for WithTopology. Build one with
// TwoRackTopology, LeafSpineTopology or FatTreeTopology.
type TopologySpec struct {
	name         string
	hostsPerRack int
	// Exactly one of trunks (two-rack), spines (leaf-spine, with leaves
	// racks) and fatTreeK is set.
	trunks, leaves, spines, fatTreeK int
}

// Name returns a human-readable description of the shape.
func (t TopologySpec) Name() string { return t.name }

// TwoRackTopology is the paper's evaluation fabric: two ToR switches, each
// serving hostsPerRack servers, joined by trunks parallel cables. This is
// the default (hostsPerRack=5, trunks=2).
func TwoRackTopology(hostsPerRack, trunks int) TopologySpec {
	return TopologySpec{
		name:         fmt.Sprintf("two-rack(%d hosts/rack, %d trunks)", hostsPerRack, trunks),
		hostsPerRack: hostsPerRack,
		trunks:       trunks,
	}
}

// LeafSpineTopology is a two-tier Clos fabric: leaves ToR switches, each
// serving hostsPerRack servers, with every leaf cabled to every one of
// spines spine switches. Spine redundancy makes it the natural shape for
// switch-failure experiments.
func LeafSpineTopology(leaves, spines, hostsPerRack int) TopologySpec {
	return TopologySpec{
		name:         fmt.Sprintf("leaf-spine(%d leaves, %d spines, %d hosts/rack)", leaves, spines, hostsPerRack),
		hostsPerRack: hostsPerRack,
		leaves:       leaves,
		spines:       spines,
	}
}

// FatTreeTopology is a k-ary fat-tree (k even) with hostsPerEdge servers
// per edge switch — the scale shape of the benchmark suite.
func FatTreeTopology(k, hostsPerEdge int) TopologySpec {
	return TopologySpec{
		name:         fmt.Sprintf("fat-tree(k=%d, %d hosts/edge)", k, hostsPerEdge),
		hostsPerRack: hostsPerEdge,
		fatTreeK:     k,
	}
}

// WithTopology replaces the default two-rack fabric. It overrides
// WithHostsPerRack and WithTrunks; WithLinkRateGbps and WithOversubscription
// still apply.
func WithTopology(t TopologySpec) Option { return func(c *config) { c.topo = &t } }
