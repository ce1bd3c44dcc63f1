// Package topology models the physical datacenter network as a graph of
// hosts, switches and links, and provides the one routing primitive every
// allocator depends on: the hop-count shortest-path DAG toward a destination
// (routes.go), read per node as NextHops and per pair as EqualCostPaths, and
// recomputed only on topology change events as the paper describes.
package topology

import (
	"fmt"
	"sort"
)

// NodeID identifies a node (host or switch) in the graph.
type NodeID int

// NodeKind distinguishes servers (leaf vertices in the paper's routing
// graph) from network switches (intermediate vertices).
type NodeKind int

const (
	// Host is a server: a leaf vertex that sources/sinks traffic.
	Host NodeKind = iota
	// Switch is a network element that only forwards.
	Switch
)

func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is a vertex in the topology.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
	// Rack groups hosts and their ToR switch; -1 for core switches.
	Rack int
}

// LinkID identifies a directed link. Physical cables are modeled as two
// directed links so that each direction has independent capacity, matching
// full-duplex Ethernet.
type LinkID int

// Link is a directed edge with a capacity in bits per second.
type Link struct {
	ID       LinkID
	From, To NodeID
	// CapacityBps is the nominal line rate in bits per second.
	CapacityBps float64
	Name        string
}

// Graph is the network topology. Construct with NewGraph and the Add*
// methods; the graph is then immutable from the router's perspective except
// through SetLinkUp (failure injection).
type Graph struct {
	nodes []Node
	links []Link
	// out[n] lists link IDs leaving node n, in[n] those entering it; both
	// ascending, since link IDs are handed out in AddLink order.
	out [][]LinkID
	in  [][]LinkID
	// linkIndex maps (from,to) to the link ID; parallel links get distinct
	// entries in parallel[].
	parallel map[[2]NodeID][]LinkID
	reverse  map[LinkID]LinkID // duplex pairing
	// down is the *effective* link state consulted by every routing query:
	// a link is down when it was administratively failed (adminDown) or when
	// either endpoint node is down (nodeDown). The split keeps the common
	// read path a single []bool lookup while letting switch recovery avoid
	// resurrecting links that were failed independently.
	down      []bool // indexed by LinkID, effective state
	adminDown []bool // indexed by LinkID, explicit SetLinkUp state
	nodeDown  []bool // indexed by NodeID, SetNodeUp state
	version   uint64 // bumped on topology change, lets routers cache
	// routes memoizes per-destination hop distances (see routes.go). It
	// makes the routing queries cheap but means a Graph must not be shared
	// across goroutines; every simulation builds its own.
	routes routes
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{
		parallel: make(map[[2]NodeID][]LinkID),
		reverse:  make(map[LinkID]LinkID),
	}
}

// AddNode adds a vertex and returns its ID.
func (g *Graph) AddNode(kind NodeKind, name string, rack int) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name, Rack: rack})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.nodeDown = append(g.nodeDown, false)
	g.version++
	return id
}

// AddLink adds a single directed link and returns its ID. It panics on
// unknown endpoints or non-positive capacity.
func (g *Graph) AddLink(from, to NodeID, capacityBps float64, name string) LinkID {
	if !g.valid(from) || !g.valid(to) {
		panic(fmt.Sprintf("topology: AddLink with unknown node %d->%d", from, to))
	}
	if capacityBps <= 0 {
		panic("topology: AddLink with non-positive capacity")
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, To: to, CapacityBps: capacityBps, Name: name})
	g.down = append(g.down, g.nodeDown[from] || g.nodeDown[to])
	g.adminDown = append(g.adminDown, false)
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	key := [2]NodeID{from, to}
	g.parallel[key] = append(g.parallel[key], id)
	g.version++
	return id
}

// AddDuplex adds a full-duplex cable: two directed links, one per direction,
// each at the given capacity. It returns both link IDs (forward, reverse).
func (g *Graph) AddDuplex(a, b NodeID, capacityBps float64, name string) (LinkID, LinkID) {
	f := g.AddLink(a, b, capacityBps, name)
	r := g.AddLink(b, a, capacityBps, name+"~rev")
	g.reverse[f] = r
	g.reverse[r] = f
	return f, r
}

// Reverse returns the paired opposite-direction link of a duplex cable and
// true, or -1 and false for links added singly via AddLink.
func (g *Graph) Reverse(id LinkID) (LinkID, bool) {
	r, ok := g.reverse[id]
	if !ok {
		return -1, false
	}
	return r, true
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// Node returns the node record. It panics on an unknown ID.
func (g *Graph) Node(id NodeID) Node {
	if !g.valid(id) {
		panic(fmt.Sprintf("topology: unknown node %d", id))
	}
	return g.nodes[id]
}

// Link returns the link record. It panics on an unknown ID.
func (g *Graph) Link(id LinkID) Link {
	if id < 0 || int(id) >= len(g.links) {
		panic(fmt.Sprintf("topology: unknown link %d", id))
	}
	return g.links[id]
}

// Nodes returns all nodes in ID order.
func (g *Graph) Nodes() []Node { return append([]Node(nil), g.nodes...) }

// Links returns all links in ID order (including downed links).
func (g *Graph) Links() []Link { return append([]Link(nil), g.links...) }

// NumNodes and NumLinks report graph size.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks reports the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Hosts returns the IDs of all host nodes in ID order.
func (g *Graph) Hosts() []NodeID {
	var hs []NodeID
	for _, n := range g.nodes {
		if n.Kind == Host {
			hs = append(hs, n.ID)
		}
	}
	return hs
}

// Switches returns the IDs of all switch nodes in ID order.
func (g *Graph) Switches() []NodeID {
	var ss []NodeID
	for _, n := range g.nodes {
		if n.Kind == Switch {
			ss = append(ss, n.ID)
		}
	}
	return ss
}

// Out returns the usable (up) links leaving node n.
func (g *Graph) Out(n NodeID) []LinkID {
	var ls []LinkID
	for _, l := range g.out[n] {
		if !g.down[l] {
			ls = append(ls, l)
		}
	}
	return ls
}

// SetLinkUp marks a link administratively up (true) or down (false). Downed
// links are excluded from routing; the version counter is bumped so cached
// routing graphs are invalidated, mirroring the paper's reliance on
// OpenDaylight topology-update events for fault tolerance. A link whose
// endpoint switch is down stays effectively down regardless of its
// administrative state.
func (g *Graph) SetLinkUp(id LinkID, up bool) {
	if id < 0 || int(id) >= len(g.links) {
		panic(fmt.Sprintf("topology: unknown link %d", id))
	}
	if g.adminDown[id] == !up {
		return
	}
	g.adminDown[id] = !up
	if g.refreshLink(id) {
		g.version++
	}
}

// refreshLink recomputes the effective down state of one link and reports
// whether it changed.
func (g *Graph) refreshLink(id LinkID) bool {
	l := g.links[id]
	eff := g.adminDown[id] || g.nodeDown[l.From] || g.nodeDown[l.To]
	if g.down[id] == eff {
		return false
	}
	g.down[id] = eff
	return true
}

// SetNodeUp marks a node up (true) or down (false). A down node takes every
// incident link (both directions) effectively down with it; recovery brings
// back only links that are not administratively failed. The version counter
// is bumped on any state change so routing caches are invalidated.
func (g *Graph) SetNodeUp(id NodeID, up bool) {
	if !g.valid(id) {
		panic(fmt.Sprintf("topology: unknown node %d", id))
	}
	if g.nodeDown[id] == !up {
		return
	}
	g.nodeDown[id] = !up
	for _, l := range g.links {
		if l.From == id || l.To == id {
			g.refreshLink(l.ID)
		}
	}
	g.version++
}

// NodeUp reports whether the node is up.
func (g *Graph) NodeUp(id NodeID) bool {
	return !g.valid(id) || !g.nodeDown[id]
}

// LinkUp reports whether the link is usable (administratively up and both
// endpoints up).
func (g *Graph) LinkUp(id LinkID) bool {
	return id < 0 || int(id) >= len(g.down) || !g.down[id]
}

// LinkAdminUp reports the administrative state alone, ignoring endpoint
// node failures. Fault injectors use it to distinguish "down because the
// switch died" from "down because this cable was failed".
func (g *Graph) LinkAdminUp(id LinkID) bool {
	return id < 0 || int(id) >= len(g.adminDown) || !g.adminDown[id]
}

// Version is a counter bumped on every topology mutation; routing caches key
// off it.
func (g *Graph) Version() uint64 { return g.version }

// FindLinks returns the IDs of up links from a to b (parallel links give
// multiple results), in ID order.
func (g *Graph) FindLinks(a, b NodeID) []LinkID {
	var ls []LinkID
	for _, l := range g.parallel[[2]NodeID{a, b}] {
		if !g.down[l] {
			ls = append(ls, l)
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return ls
}
