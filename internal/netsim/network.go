// Package netsim is a flow-level (fluid) simulator of a multi-path
// datacenter network. TCP flows share each link with max-min fairness,
// recomputed at every flow arrival and departure; constant-bit-rate
// background traffic (the paper's iperf UDP streams used to emulate
// oversubscription) is unresponsive and consumes its configured rate off the
// top of each link it crosses.
//
// Path selection is deliberately external: the ECMP baseline, the
// Hedera-like baseline and the Pythia scheduler all inject flows with a
// chosen topology.Path, so the network model stays policy-free.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"pythia/internal/flight"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// FlowID identifies a flow within one Network.
type FlowID int

// FiveTuple is the classical flow identity. Pythia cannot know DstPort at
// prediction time (assigned at socket bind), which is why its rules match on
// host pairs; the ECMP baseline hashes the full tuple.
type FiveTuple struct {
	SrcHost  topology.NodeID
	DstHost  topology.NodeID
	SrcPort  uint16
	DstPort  uint16
	Protocol uint8
}

// Flow is a finite-size data transfer in flight.
type Flow struct {
	ID    FlowID
	Tuple FiveTuple
	Path  topology.Path
	// SizeBits is the total volume to move.
	SizeBits float64
	// Labels let upper layers (Hadoop, Pythia) attach identity.
	Job, Map, Reduce int

	rate       float64 // current allocated bps
	remaining  float64
	started    sim.Time
	finished   sim.Time
	done       bool
	onComplete func(*Flow)

	// unfixed is allocator scratch: the flow has no rate yet in the running
	// progressive-filling pass.
	unfixed bool
}

// Rate returns the current max-min allocated rate in bps (valid between
// recomputations).
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bits still to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// Started returns the flow start time.
func (f *Flow) Started() sim.Time { return f.started }

// Finished returns the completion time; valid only when Done.
func (f *Flow) Finished() sim.Time { return f.finished }

// Done reports completion.
func (f *Flow) Done() bool { return f.done }

// Network simulates the data network over a topology graph.
type Network struct {
	eng *sim.Engine
	g   *topology.Graph

	nextID FlowID
	// active holds the in-flight flows in ascending ID order (StartFlow
	// appends monotonically increasing IDs; completion preserves order).
	// Every accumulation over it is therefore deterministic.
	active  []*Flow
	history []*Flow

	// linkFlows indexes the active flows by every link they traverse
	// (ascending flow-ID order per link). It is a dense slice keyed by
	// LinkID and maintained incrementally on StartFlow/Reroute/completion
	// so that per-link telemetry and the max-min bottleneck pass cost
	// O(flows-on-link) instead of scanning every active flow per link.
	// Invariant: a path never crosses the same link twice (deterministic
	// forwarding cannot revisit a node without looping forever, which
	// Resolve rejects).
	linkFlows [][]*Flow
	// busy lists, in no particular order, the links whose linkFlows entry
	// is non-empty, and busyAt[l] is l's slot in it (dense by LinkID), so
	// a pass starts from the busy links without sweeping every link.
	busy   []topology.LinkID
	busyAt []int

	// background CBR load per link, bps (dense by LinkID).
	background []float64

	// topoSubs are the fault-plane subscribers (see faults.go).
	topoSubs []func(TopoEvent)

	// accounting
	lastAdvance   sim.Time
	linkBits      []float64 // data bits carried per link (excl. background)
	hostTxBits    []float64 // bits sourced per host (shuffle only)
	completionFns []func(*Flow)

	// fl, when non-nil, receives fabric-plane flight events for shuffle
	// flows. The nil check in recordFlow is the whole disabled-path cost:
	// the field must stay nil (never a typed-nil recorder) so StartFlow and
	// completion remain allocation-free without the recorder.
	fl flight.Sink

	completeEvent *sim.Event
	// completeFn is completeDue bound once at construction: scheduling a
	// method value allocates a fresh closure per call, which would be the
	// only allocation left on the steady-state pass.
	completeFn func()

	// base caches linkResidual(l) — capacity minus background, zero when
	// down — for every link, as of graph version baseVer. A version change
	// (link or switch failure and recovery) refreshes it whole at the next
	// pass; SetBackground refreshes its one link, and ensureLink the links it
	// adds. Every pass starts from it.
	base    []float64
	baseVer uint64
	// Allocator scratch, reused across passes so the steady-state pass
	// allocates nothing (BenchmarkAllocPass guards it). residual, counts,
	// pos and stamp are dense by LinkID; workLinks and wShare are parallel
	// slices over the busy links, pos[l] being l's slot in both, and
	// stamp[l] == round puts l on dirty once for the running round.
	residual  []float64
	counts    []int
	pos       []int
	stamp     []uint64
	round     uint64
	workLinks []topology.LinkID
	wShare    []float64
	dirty     []topology.LinkID
	doneBuf   []*Flow
}

// DefaultLocalBps is the rate of a zero-hop flow (source and sink on the
// same server: a reducer fetching from a co-located mapper goes over
// loopback/local disk, not the fabric). 8 Gbps is comfortably above the
// 1 Gbps NICs, so local fetches are never the bottleneck, matching the
// paper's in-memory intermediate data setup.
const DefaultLocalBps = 8e9

// New creates a network simulator bound to an engine and a topology.
func New(eng *sim.Engine, g *topology.Graph) *Network {
	nl := g.NumLinks()
	n := &Network{
		eng:        eng,
		g:          g,
		linkFlows:  make([][]*Flow, nl),
		busyAt:     make([]int, nl),
		background: make([]float64, nl),
		linkBits:   make([]float64, nl),
		hostTxBits: make([]float64, g.NumNodes()),
		base:       make([]float64, nl),
		baseVer:    g.Version(),
		residual:   make([]float64, nl),
		counts:     make([]int, nl),
		pos:        make([]int, nl),
		stamp:      make([]uint64, nl),
	}
	n.refreshBase(0, nl)
	n.completeFn = n.completeDue
	return n
}

// refreshBase recomputes the cached base residual of links lo..hi-1.
func (n *Network) refreshBase(lo, hi int) {
	for l := lo; l < hi; l++ {
		n.base[l] = n.linkResidual(topology.LinkID(l))
	}
}

// ensureLink grows the dense per-link state to cover link id (links added to
// the graph after New), and fills in the new links' base residuals: a pass
// may already have seen the version the additions bumped, and then no later
// pass would refresh them.
func (n *Network) ensureLink(id topology.LinkID) {
	need := int(id) + 1
	old := len(n.linkFlows)
	if need <= old {
		return
	}
	if nl := n.g.NumLinks(); nl > need {
		need = nl
	}
	n.linkFlows = grown(n.linkFlows, need)
	n.busyAt = grown(n.busyAt, need)
	n.background = grown(n.background, need)
	n.linkBits = grown(n.linkBits, need)
	n.base = grown(n.base, need)
	n.residual = grown(n.residual, need)
	n.counts = grown(n.counts, need)
	n.pos = grown(n.pos, need)
	n.stamp = grown(n.stamp, need)
	n.refreshBase(old, need)
}

// grown returns a copy of s extended with zero values to length need.
func grown[T any](s []T, need int) []T {
	out := make([]T, need)
	copy(out, s)
	return out
}

// ensureHost grows the per-host accounting to cover host id.
func (n *Network) ensureHost(id topology.NodeID) {
	need := int(id) + 1
	if need <= len(n.hostTxBits) {
		return
	}
	if nn := n.g.NumNodes(); nn > need {
		need = nn
	}
	out := make([]float64, need)
	copy(out, n.hostTxBits)
	n.hostTxBits = out
}

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// SetBackground sets the CBR background load on a link in bps, clamped to
// [0, capacity]. Changing background reshapes the fair shares of all active
// flows sharing capacity with that link.
func (n *Network) SetBackground(link topology.LinkID, bps float64) {
	capBps := n.g.Link(link).CapacityBps
	if bps < 0 {
		bps = 0
	}
	if bps > capBps {
		bps = capBps
	}
	n.advance()
	n.ensureLink(link)
	n.background[link] = bps
	n.refreshBase(int(link), int(link)+1)
	n.recompute()
}

// BackgroundOn returns the configured CBR load on a link.
func (n *Network) BackgroundOn(link topology.LinkID) float64 {
	if int(link) >= len(n.background) {
		return 0
	}
	return n.background[link]
}

// OnFlowComplete registers a callback invoked for every completing flow
// (after the flow's own callback).
func (n *Network) OnFlowComplete(fn func(*Flow)) {
	n.completionFns = append(n.completionFns, fn)
}

// StartFlow injects a flow on the given path. sizeBits must be positive and
// the path valid for the tuple endpoints. onComplete (may be nil) fires at
// completion time. The returned flow is live immediately.
func (n *Network) StartFlow(tuple FiveTuple, path topology.Path, sizeBits float64, job, mapID, reduce int, onComplete func(*Flow)) *Flow {
	if sizeBits <= 0 {
		panic("netsim: StartFlow with non-positive size")
	}
	if path.Src != tuple.SrcHost || path.Dst != tuple.DstHost {
		panic("netsim: path endpoints do not match tuple")
	}
	if err := path.Valid(n.g); err != nil {
		panic(fmt.Sprintf("netsim: invalid path: %v", err))
	}
	n.advance()
	f := &Flow{
		ID:        n.nextID,
		Tuple:     tuple,
		Path:      path,
		SizeBits:  sizeBits,
		remaining: sizeBits,
		started:   n.eng.Now(),
		Job:       job, Map: mapID, Reduce: reduce,
		onComplete: onComplete,
	}
	n.nextID++
	n.active = append(n.active, f) // IDs are monotonic: order stays ascending
	n.ensureHost(tuple.SrcHost)
	n.indexFlow(f)
	n.recompute()
	n.recordFlow(flight.FlowAdmitted, f)
	return f
}

// SetFlightRecorder installs a flight-event sink. Pass a non-nil sink only;
// leave the field nil to disable recording.
func (n *Network) SetFlightRecorder(s flight.Sink) { n.fl = s }

// recordFlow emits one fabric-plane flight event for a shuffle flow that
// actually crosses the fabric. The leading nil check is the hot path when
// recording is disabled and must stay allocation-free
// (BenchmarkRecorderDisabled guards it).
func (n *Network) recordFlow(kind flight.Kind, f *Flow) {
	if n.fl == nil {
		return
	}
	if len(f.Path.Links) == 0 {
		// Local fetches never touch the fabric.
		return
	}
	ev := flight.Ev(kind, flight.PlaneFabric)
	ev.Job, ev.Map, ev.Reduce = f.Job, f.Map, f.Reduce
	ev.Src, ev.Dst = f.Tuple.SrcHost, f.Tuple.DstHost
	ev.Bytes = f.SizeBits / 8
	if kind == flight.FlowCompleted {
		ev.DelaySec = float64(n.eng.Now().Sub(f.started))
	}
	n.fl.Record(ev)
}

// indexFlow adds a flow to the per-link occupancy index, keeping each
// per-link list in ascending flow-ID order.
func (n *Network) indexFlow(f *Flow) {
	for _, l := range f.Path.Links {
		n.ensureLink(l)
		fs := append(n.linkFlows[l], f)
		// New flows carry the highest ID yet and hit the no-op fast path;
		// reroutes of older flows insertion-sort backwards.
		for i := len(fs) - 1; i > 0 && fs[i-1].ID > f.ID; i-- {
			fs[i], fs[i-1] = fs[i-1], fs[i]
		}
		n.linkFlows[l] = fs
		if len(fs) == 1 {
			n.busyAt[l] = len(n.busy)
			n.busy = append(n.busy, l)
		}
	}
}

// unindexFlow removes a flow from the per-link occupancy index.
func (n *Network) unindexFlow(f *Flow) {
	for _, l := range f.Path.Links {
		fs := n.linkFlows[l]
		i := sort.Search(len(fs), func(i int) bool { return fs[i].ID >= f.ID })
		if i < len(fs) && fs[i] == f {
			copy(fs[i:], fs[i+1:])
			fs[len(fs)-1] = nil
			n.linkFlows[l] = fs[:len(fs)-1]
			if len(fs) == 1 {
				at, last := n.busyAt[l], len(n.busy)-1
				n.busy[at] = n.busy[last]
				n.busyAt[n.busy[at]] = at
				n.busy = n.busy[:last]
			}
		}
	}
}

// History returns a copy of all completed flows in completion order. Use
// ForEachCompleted to iterate without the copy.
func (n *Network) History() []*Flow { return append([]*Flow(nil), n.history...) }

// CompletedFlows returns the number of completed flows.
func (n *Network) CompletedFlows() int { return len(n.history) }

// ForEachCompleted calls fn for every completed flow in completion order
// without copying the history slice. fn must not start, reroute or complete
// flows.
func (n *Network) ForEachCompleted(fn func(*Flow)) {
	for _, f := range n.history {
		fn(f)
	}
}

// advance accrues transfer progress from lastAdvance to now at current
// rates. It must be called before any change to the active set or rates.
// Iteration is in ascending flow-ID order (active is sorted), so the
// hostTxBits/linkBits float accumulations are identical on every run of the
// same seed.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := float64(now.Sub(n.lastAdvance))
	if dt <= 0 {
		n.lastAdvance = now
		return
	}
	for _, f := range n.active {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		if len(f.Path.Links) > 0 {
			n.hostTxBits[f.Tuple.SrcHost] += moved
		}
		for _, l := range f.Path.Links {
			n.linkBits[l] += moved
		}
	}
	n.lastAdvance = now
}

// linkResidual returns the capacity left for TCP flows on a link: zero when
// the link is down, else capacity minus background, floored at zero. Only
// refreshBase calls it; a pass reads the cached base. The float operation
// sequence is pinned by the flow-history digests; do not reorder it.
func (n *Network) linkResidual(l topology.LinkID) float64 {
	if !n.g.LinkUp(l) {
		// A failed link carries nothing: flows routed across it starve
		// until rerouted or the link recovers.
		return 0
	}
	r := n.g.Link(l).CapacityBps - n.background[l]
	if r < 0 {
		r = 0
	}
	return r
}

// recompute performs a full max-min fair allocation pass and reschedules the
// next-completion event. Every mutation of the flow set, a path, a link's
// background or the topology calls it once: progressive filling over the
// links that carry flows, with occupancy read from the per-link index,
// residuals from the cached base, and all scratch reused.
//
// The busy links, copied from the busy-link set, form a worklist with a
// parallel dense array of fair shares (base residual/count). A round is one
// linear scan of the shares for the bottleneck; fixing its flows re-divides
// each link they cross once, and a link left with no unfixed flow is
// swap-removed, so the worklist shrinks as the pass goes. A pass costs
// O(busy links + Σ_rounds still-busy links + Σ path lengths), plus O(links)
// when the graph version moved, allocates nothing, and produces exactly the
// floats of a full rescan: each division reads the residual and count the
// rescan would, and the bottleneck is the argmin of (share, LinkID), which
// no visit order can change.
func (n *Network) recompute() {
	if v := n.g.Version(); v != n.baseVer {
		n.refreshBase(0, len(n.base))
		n.baseVer = v
	}
	wl := append(n.workLinks[:0], n.busy...)
	shares := n.wShare[:0]
	for i, lid := range wl {
		c := len(n.linkFlows[lid])
		r := n.base[lid]
		n.counts[lid] = c
		n.residual[lid] = r
		n.pos[lid] = i
		shares = append(shares, r/float64(c))
	}

	unfixedCount := 0
	for _, f := range n.active {
		f.rate = 0
		f.unfixed = false
		if len(f.Path.Links) == 0 {
			// Local (same-host) transfer: fixed loopback rate, no fabric
			// contention.
			f.rate = DefaultLocalBps
			continue
		}
		f.unfixed = true
		unfixedCount++
	}

	for unfixedCount > 0 {
		// Find the bottleneck link: minimal fair share among links
		// carrying unfixed flows, smallest LinkID on exact ties. Shares
		// are never NaN, so this is a total order and the worklist's
		// order (scrambled by swap-removal) cannot change the pick.
		bestShare := math.Inf(1)
		var bottleneck topology.LinkID = -1
		for i, share := range shares {
			if share < bestShare || (share == bestShare && wl[i] < bottleneck) {
				bestShare = share
				bottleneck = wl[i]
			}
		}
		if bottleneck == -1 {
			break
		}
		// Fix every unfixed flow crossing the bottleneck at bestShare.
		// Every fixed flow subtracts the identical share, so the order the
		// candidates are visited in cannot change the resulting residuals.
		// Each link they cross is stamped dirty once for this round.
		n.round++
		dirty := n.dirty[:0]
		for _, f := range n.linkFlows[bottleneck] {
			if !f.unfixed {
				continue
			}
			f.rate = bestShare
			f.unfixed = false
			unfixedCount--
			for _, l := range f.Path.Links {
				n.residual[l] -= bestShare
				if n.residual[l] < 0 {
					n.residual[l] = 0
				}
				n.counts[l]--
				if n.stamp[l] != n.round {
					n.stamp[l] = n.round
					dirty = append(dirty, l)
				}
			}
		}
		// Re-divide the dirty links, or swap-remove those with no unfixed
		// flow left (the bottleneck always among them).
		for _, l := range dirty {
			i := n.pos[l]
			if c := n.counts[l]; c > 0 {
				shares[i] = n.residual[l] / float64(c)
				continue
			}
			last := len(wl) - 1
			wl[i], shares[i] = wl[last], shares[last]
			n.pos[wl[i]] = i
			wl, shares = wl[:last], shares[:last]
		}
		n.dirty = dirty
	}
	n.workLinks, n.wShare = wl, shares
	n.scheduleNextCompletion()
}

func (n *Network) scheduleNextCompletion() {
	if n.completeEvent != nil {
		n.eng.Cancel(n.completeEvent)
		n.completeEvent = nil
	}
	next := math.Inf(1)
	for _, f := range n.active {
		if f.rate <= 0 {
			continue // starved; will resume when background/load changes
		}
		t := f.remaining / f.rate
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	n.completeEvent = n.eng.After(sim.Duration(next), n.completeFn)
}

// completeDue finishes every flow whose remaining volume has reached zero at
// the current instant, then recomputes shares for the survivors.
func (n *Network) completeDue() {
	n.completeEvent = nil
	n.advance()
	const eps = 1.0 // one bit; fluid-model rounding tolerance
	completed := n.doneBuf[:0]
	keep := n.active[:0]
	for _, f := range n.active {
		if f.remaining <= eps {
			f.remaining = 0
			f.done = true
			f.finished = n.eng.Now()
			n.unindexFlow(f)
			completed = append(completed, f) // ascending ID: active is sorted
		} else {
			keep = append(keep, f)
		}
	}
	for i := len(keep); i < len(n.active); i++ {
		n.active[i] = nil
	}
	n.active = keep
	n.history = append(n.history, completed...)
	n.recompute()
	for _, f := range completed {
		n.recordFlow(flight.FlowCompleted, f)
		if f.onComplete != nil {
			f.onComplete(f)
		}
		for _, fn := range n.completionFns {
			fn(f)
		}
	}
	n.doneBuf = completed[:0]
}

// LinkStats returns a link's instantaneous utilization fraction, spare
// capacity in bps, and summed flow rate in one pass over the flows crossing
// it — the controller's poll reads all three per link per period. Every
// flow is a shuffle flow, so shuffleBps is the flow part of used, summed on
// its own from zero: pathScore's used - shuffle depends on that order.
func (n *Network) LinkStats(link topology.LinkID) (utilization, availableBps, shuffleBps float64) {
	capBps := n.g.Link(link).CapacityBps
	used := n.BackgroundOn(link)
	for _, f := range n.FlowsOn(link) {
		used += f.rate
		shuffleBps += f.rate
	}
	utilization = used / capBps
	if utilization > 1 {
		utilization = 1
	}
	if used < capBps {
		availableBps = capBps - used
	}
	return utilization, availableBps, shuffleBps
}

// Utilization returns the instantaneous fraction of a link's capacity in
// use (background + allocated flow rates). This is what the controller's
// link-load update service reads.
func (n *Network) Utilization(link topology.LinkID) float64 {
	u, _, _ := n.LinkStats(link)
	return u
}

// AvailableBps returns the instantaneous spare capacity of a link
// (capacity - background - allocated flow rates), floored at zero.
func (n *Network) AvailableBps(link topology.LinkID) float64 {
	_, a, _ := n.LinkStats(link)
	return a
}

// ShuffleRateOn returns the summed instantaneous rate of the (shuffle)
// flows crossing a link. Pythia uses this to differentiate shuffle load from
// background traffic when estimating available bandwidth.
func (n *Network) ShuffleRateOn(link topology.LinkID) float64 {
	_, _, s := n.LinkStats(link)
	return s
}

// HostTxBits returns cumulative shuffle bits sourced by a host up to the
// current instant, including in-flight progress. The NetFlow substrate
// samples this (Fig. 5 methodology).
func (n *Network) HostTxBits(host topology.NodeID) float64 {
	n.advance()
	if int(host) >= len(n.hostTxBits) {
		return 0
	}
	return n.hostTxBits[host]
}

// LinkBits returns cumulative data bits (excluding background) carried by a
// link.
func (n *Network) LinkBits(link topology.LinkID) float64 {
	n.advance()
	if int(link) >= len(n.linkBits) {
		return 0
	}
	return n.linkBits[link]
}

// NotifyTopology re-evaluates rate allocations after a topology change
// (link failure or recovery). Flows whose paths cross failed links starve
// from this instant; callers that can reroute them (Pythia, Hedera) should
// do so. Without this call, the change takes effect at the next flow event.
func (n *Network) NotifyTopology() {
	n.advance()
	n.recompute()
}

// ForEachActive calls fn for every in-flight flow in ascending ID order
// without copying. fn may reroute flows (membership is untouched) but must
// not start or complete them.
func (n *Network) ForEachActive(fn func(*Flow)) {
	for _, f := range n.active {
		fn(f)
	}
}

// FlowsOn returns the active flows traversing a link in ascending flow-ID
// order, useful for elephant detection in the Hedera-like baseline. The
// returned slice is the network's internal index entry: callers must not
// mutate it or hold it across flow starts/completions/reroutes (copy it, or
// use ForEachOn, if they need to).
func (n *Network) FlowsOn(link topology.LinkID) []*Flow {
	if int(link) >= len(n.linkFlows) {
		return nil
	}
	return n.linkFlows[link]
}

// ForEachOn calls fn for every active flow crossing a link in ascending ID
// order without allocating. fn must not start, reroute or complete flows.
func (n *Network) ForEachOn(link topology.LinkID, fn func(*Flow)) {
	for _, f := range n.FlowsOn(link) {
		fn(f)
	}
}

// Reroute moves an active flow onto a new path (Hedera-style reallocation).
// Progress is preserved; rates are recomputed. It panics if the flow is done
// or the path invalid.
func (n *Network) Reroute(f *Flow, path topology.Path) {
	if f.done {
		panic("netsim: reroute of completed flow")
	}
	if path.Src != f.Tuple.SrcHost || path.Dst != f.Tuple.DstHost {
		panic("netsim: reroute path endpoints mismatch")
	}
	if err := path.Valid(n.g); err != nil {
		panic(fmt.Sprintf("netsim: reroute invalid path: %v", err))
	}
	n.advance()
	n.unindexFlow(f)
	f.Path = path
	n.indexFlow(f)
	n.recompute()
}
