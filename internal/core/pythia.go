// Package core implements the paper's primary contribution: the Pythia
// orchestration entity. It is the collector that ingests shuffle-intent
// predictions from the per-server instrumentation middleware, the flow
// aggregation module that folds all mapper→reducer transfers between a
// server pair into one schedulable entity (TCP ports being unknowable at
// prediction time), and the network scheduling module that allocates
// aggregated flows to k-shortest paths with a first-fit bin-packing
// heuristic — assigning each aggregate to the path with the highest
// available bandwidth — and installs the corresponding OpenFlow rules.
//
// # Sharded collector state
//
// The paper's collector is one centralized entity. To serve as a concurrent
// online service (package serve) the collector's per-job state — deferred
// intents, bookings, the idempotence set, reducer placements, barrier
// backlog, activity stamps — is partitioned across Config.Shards shards
// keyed by job ID, each shard a table of per-job structs (jobState), so an
// operation costs what its own job holds, not what the shard holds. The
// placement plane (pair aggregates, the per-link placement index, path
// cache and rule cookies) stays global: placement is a bin-packing pass
// over shared links and is inherently serial.
//
// Sharding is invisible to results. Every operation touches only its own
// job's shard, and the two places where state from several shards meets fix
// one global order: the booking-TTL sweep sorts every expired booking by
// (job, map, reduce), and ApplyBatch's commit min-key merges the per-shard
// (op, sub)-stamped delta streams back into batch order. Same-seed runs are
// therefore bit-identical at any shard count.
//
// ApplyBatch is the only ingestion path: the instrumentation-sink methods
// (ShuffleIntent, ReducerUp, JobDone) are batches of one.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pythia/internal/flight"
	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Scope selects the flow-aggregation granularity (§IV): host pairs by
// default; rack pairs for forwarding-state conservation at scale, where
// one prefix rule per rack pair steers the inter-rack hop and the default
// pipeline handles final delivery.
type Scope int

const (
	// ScopeHostPair aggregates per (mapper server, reducer server).
	ScopeHostPair Scope = iota
	// ScopeRackPair aggregates per (source rack, destination rack).
	ScopeRackPair
)

func (s Scope) String() string {
	switch s {
	case ScopeHostPair:
		return "host-pair"
	case ScopeRackPair:
		return "rack-pair"
	}
	return fmt.Sprintf("Scope(%d)", int(s))
}

// Config tunes the Pythia controller.
type Config struct {
	// K bounds the candidate set per host pair to the first K equal-cost
	// (minimum hop count) paths in link-ID order — the paper's
	// k-shortest-paths module read on the shortest-path DAG.
	K int
	// RulePriority is the OpenFlow priority for Pythia rules (must beat
	// the default pipeline, which is priority-less here).
	RulePriority int
	// Aggregate folds same host-pair demand into one allocation entity
	// (the paper's flow aggregation module). Disabling it is the A2
	// ablation: every intent triggers its own allocation, so the pair's
	// path flaps with each decision.
	Aggregate bool
	// Scope selects host-pair (default) or rack-pair aggregation.
	Scope Scope
	// UseCriticality orders the bin-packing pass by barrier criticality —
	// aggregates feeding the reducer with the largest outstanding backlog
	// get first pick of paths — the §VI flow-priority criterion that
	// distinguishes Pythia from size-only schemes like FlowComb/Hedera.
	UseCriticality bool
	// BookingTTL garbage-collects bookings and deferred intents whose
	// flows never materialize — a dropped intent's sibling, a lost
	// ReducerUp, a job whose JobDone died on the management network —
	// releasing their path reservations. Zero disables the sweep (the
	// legacy trust-the-messages behavior).
	BookingTTL sim.Duration
	// Shards partitions per-job collector state (bookings, deferred
	// intents, dedup tables, trackers) across this many job-keyed shards.
	// Placement decisions are merged deterministically, so any shard
	// count produces bit-identical results; shards > 1 additionally lets
	// ApplyBatch run the shard-local ingest phase concurrently. Zero or
	// one means the classic single-shard collector.
	Shards int
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.K == 0 {
		c.K = 4
	}
	if c.RulePriority == 0 {
		c.RulePriority = 100
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// EnableAggregation returns a config with aggregation on (the default
// production configuration).
func (c Config) EnableAggregation() Config { c.Aggregate = true; return c }

type pairKey struct {
	src, dst topology.NodeID
}

type flowKey struct {
	job, mapID, reduce int
}

// flowKeyLess is the sweep's total order on bookings: (job, map, reduce).
func flowKeyLess(a, b flowKey) bool {
	if a.job != b.job {
		return a.job < b.job
	}
	if a.mapID != b.mapID {
		return a.mapID < b.mapID
	}
	return a.reduce < b.reduce
}

// aggregate is one scheduled host-pair (or rack-pair) entity. For rack
// scope, repSrc/repDst are representative concrete endpoints used to
// enumerate candidate paths; the installed rule matches the whole rack pair
// and steers only the inter-switch hops.
type aggregate struct {
	key            pairKey
	repSrc, repDst topology.NodeID
	path           topology.Path
	cookie         uint64
	demandBits     float64 // outstanding predicted demand
	placed         bool
	indexed        bool // member of Pythia.placedOn for path's links
	// degraded marks an aggregate that fell back to the default ECMP
	// pipeline after the control plane became unreachable; allocation
	// skips it until reconciliation (controller recovery or a topology
	// change) clears the flag.
	degraded bool
	// queued marks membership of Pythia.unplaced, so an aggregate is
	// enqueued at most once however often its placement is revoked.
	queued bool
	// perReducer is the ledger of outstanding demand by (job, reducer),
	// feeding the criticality criterion. Invariant: strictly ascending by
	// (job, reduce), so a key is found by binary search and appears once. An
	// entry that a release leaves at or below 1 bit is float dust and is
	// removed, so the ledger holds exactly the reducers still owed demand.
	perReducer []reducerDemand
}

// reducerDemand is one ledger entry: the demand an aggregate still owes one
// reducer.
type reducerDemand struct {
	job, reduce int
	bits        float64
}

// before reports whether the entry sorts ahead of key (job, reduce) in the
// ledger's order.
func (e reducerDemand) before(job, reduce int) bool {
	return e.job < job || (e.job == job && e.reduce < reduce)
}

// find returns the ledger position of (job, reduce) — where it sits, or
// where it would be inserted — and whether it is present.
func (a *aggregate) find(job, reduce int) (int, bool) {
	lo, hi := 0, len(a.perReducer)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.perReducer[mid].before(job, reduce) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a.perReducer) && a.perReducer[lo].job == job && a.perReducer[lo].reduce == reduce
}

// add charges bits of demand for (job, reduce) to the ledger.
func (a *aggregate) add(job, reduce int, bits float64) {
	i, ok := a.find(job, reduce)
	if !ok {
		a.perReducer = append(a.perReducer, reducerDemand{})
		copy(a.perReducer[i+1:], a.perReducer[i:])
		a.perReducer[i] = reducerDemand{job: job, reduce: reduce}
	}
	a.perReducer[i].bits += bits
}

// sub releases bits of demand for (job, reduce), dropping the entry once
// only float dust is left. Releasing a key the ledger does not hold is a
// no-op.
func (a *aggregate) sub(job, reduce int, bits float64) {
	i, ok := a.find(job, reduce)
	if !ok {
		return
	}
	if a.perReducer[i].bits -= bits; a.perReducer[i].bits <= 1 {
		a.perReducer = append(a.perReducer[:i], a.perReducer[i+1:]...)
	}
}

// pendingIntent holds per-reducer demands awaiting reducer placement.
type pendingIntent struct {
	intent     instrument.Intent
	unresolved map[int]float64 // reducer ID -> predicted bytes
	at         sim.Time        // arrival, for TTL expiry
	// seq is the intent's global arrival ordinal. Per-job pending lists are
	// seq-ascending, so the TTL sweep's expiry merge and Snapshot's flatten
	// can reproduce the single-shard (arrival-order) sequence.
	seq uint64
}

// booking records one (job, map, reducer) demand reservation and the
// endpoints it was charged to. bits is always positive, so the zero booking
// marks an empty slot in a jobState row.
type booking struct {
	bits     float64
	src, dst topology.NodeID
	at       sim.Time // reservation instant, for TTL expiry
}

// jobState is everything the collector holds for one live job. A shard is a
// table of these, so every operation pays for its own job's state and
// retiring a job drops the struct.
type jobState struct {
	reducerLoc map[int]topology.NodeID // reducer ID -> host
	// backlog is the outstanding booked demand per reducer (the barrier
	// criticality signal), indexed by reducer ID; 0 means none.
	backlog []float64
	// booked holds the job's reservations, one row per map ID indexed by
	// reducer ID. Rows and backlog reach only as far as an intent's own
	// PredictedWireBytes does, so the input pays for their size.
	booked   map[int][]booking
	nBooked  int              // occupied slots across all rows
	seen     map[[2]int]bool  // idempotence set of (map, attempt)
	pending  []*pendingIntent // seq-ascending
	lastSeen sim.Time         // last control message, for the dead-job purge
}

// row returns the job's booking row for map m, grown (with the backlog
// table) to cover reducers [0, n).
func (js *jobState) row(m, n int) []booking {
	row := js.booked[m]
	if len(row) < n {
		row = append(row, make([]booking, n-len(row))...)
		js.booked[m] = row
	}
	js.reach(n)
	return row
}

// reach grows the backlog table to cover reducers [0, n).
func (js *jobState) reach(n int) {
	if len(js.backlog) < n {
		js.backlog = append(js.backlog, make([]float64, n-len(js.backlog))...)
	}
}

// drainBacklog takes one released booking off its reducer's barrier backlog.
func (js *jobState) drainBacklog(r int, bits float64) {
	if js.backlog[r] -= bits; js.backlog[r] <= 1 { // float dust
		js.backlog[r] = 0
	}
}

// shard holds one partition of the collector's per-job state: the jobs with
// shardOf(job) == this shard. Two shards never hold state for the same job,
// so shard-local phases of different shards may run concurrently.
type shard struct {
	jobs map[int]*jobState
	// Live reservations and deferred intents summed over jobs, maintained on
	// every change so the service gauges never scan.
	booked, pending int
	// deltaBuf is the backing array of the shard's ApplyBatch delta log,
	// kept between batches: a batch's deltas are consumed before it returns.
	deltaBuf []delta

	// Shard-local metrics, summed by the Pythia accessors. Kept here so
	// ApplyBatch's concurrent shard phase mutates only its own shard.
	intentsReceived  int
	intentsDeferred  int
	dedupHits        int
	duplicateIntents int
	expiredBookings  int
	expiredIntents   int
}

// job returns the job's state, creating it on the job's first message.
func (sh *shard) job(id int) *jobState {
	js := sh.jobs[id]
	if js == nil {
		js = &jobState{
			reducerLoc: make(map[int]topology.NodeID),
			booked:     make(map[int][]booking),
			seen:       make(map[[2]int]bool),
		}
		sh.jobs[id] = js
	}
	return js
}

// trimPending installs keep, an in-place compaction of the job's pending
// list, and returns how many deferred intents that dropped.
func (sh *shard) trimPending(js *jobState, keep []*pendingIntent) int {
	n := len(js.pending) - len(keep)
	sh.pending -= n
	clear(js.pending[len(keep):])
	js.pending = keep
	return n
}

// release empties the job's (map, reduce) slot, if it is booked, keeping the
// backlog and the gauges in step, and returns the reservation it held.
func (sh *shard) release(js *jobState, m, r int) (booking, bool) {
	row := js.booked[m]
	if r < 0 || r >= len(row) || row[r].bits == 0 {
		return booking{}, false
	}
	b := row[r]
	row[r] = booking{}
	js.nBooked--
	sh.booked--
	js.drainBacklog(r, b.bits)
	return b, true
}

// Pythia is the controller. It implements instrument.Sink and
// instrument.JobDoneSink.
type Pythia struct {
	eng *sim.Engine
	net *netsim.Network
	ofc *openflow.Controller
	g   *topology.Graph
	cfg Config

	// paths memoizes each pair's candidate set (the first K equal-cost
	// paths) until the next topology version bump.
	paths *topology.PathCache

	// shards partitions per-job state; shardOf routes a job to its home.
	shards  []*shard
	nextSeq uint64 // next pendingIntent arrival ordinal

	// pairs holds the live pair aggregates, dense by key (see pairIndex).
	pairs pairIndex
	// unplaced is allocate's worklist: every live aggregate with !placed is
	// on it exactly once (aggregate.queued), put there by whoever cleared or
	// first left placed false — creation, the A2 ablation, degrade, a
	// topology change, Restore. allocate drains it, so a placement pass costs
	// what is unplaced, not what is live. Order carries no meaning: allocate
	// sorts its candidates by a total order. An aggregate deleted while
	// queued stays as a dead entry until the next pass drops it.
	unplaced []*aggregate
	// placedOn indexes the placed aggregates by every link of their
	// installed path, dense by LinkID, so pathScore shares spare capacity in
	// O(aggregates-on-link) instead of scanning every aggregate per
	// candidate link. Kept in lockstep with aggregate.placed. Each slice
	// is ordered by ascending pair key (keys are unique — one aggregate
	// per pair), so demand sums read in deterministic order without
	// sorting per query. It grows on demand to cover the links placed on
	// (see placedAt and indexAgg).
	placedOn   [][]*aggregate
	nextCookie uint64

	// fl, when non-nil, receives collector-plane flight events. Recording is
	// pure observation: it never changes an allocation decision, so enabled
	// and disabled runs stay bit-identical.
	fl flight.Sink

	// onPlace, when non-nil, observes every placement decision (install or
	// re-affirmation) in decision order. Pure observation; the serving
	// surface uses it to fingerprint placement streams for the 1-vs-N-shard
	// equivalence check.
	onPlace func(src, dst topology.NodeID, path topology.Path)

	// commit describes the latest ApplyBatch (see LastCommit).
	commit CommitStats

	// Placement-plane metrics (mutated only in the serialized commit path).
	// AggregatesPlaced counts placements that installed (or re-installed)
	// rules; Reaffirmations counts allocation passes that re-affirmed an
	// aggregate on its unchanged path without touching the switches.
	AggregatesPlaced  int
	Reaffirmations    int
	Reallocations     int
	RuleInstallErrors int
	// FlowsRescued counts in-flight flows rerouted off failed links.
	FlowsRescued int
	// AggregatesDegraded counts aggregates that fell back to the default
	// ECMP pipeline after the control plane became unreachable;
	// Reconciliations counts degraded aggregates re-placed once
	// connectivity returned.
	AggregatesDegraded int
	Reconciliations    int
}

// New wires a Pythia controller to the SDN substrate. Register it as the
// instrumentation sink and keep the cluster's PathResolver pointed at the
// OpenFlow controller; Pythia steers traffic purely by installing rules.
func New(eng *sim.Engine, net *netsim.Network, ofc *openflow.Controller, cfg Config) *Pythia {
	cfg = cfg.Defaults()
	p := &Pythia{
		eng:        eng,
		net:        net,
		ofc:        ofc,
		g:          net.Graph(),
		cfg:        cfg,
		shards:     make([]*shard, cfg.Shards),
		pairs:      pairIndex{width: net.Graph().NumNodes()},
		nextCookie: 1,
	}
	for i := range p.shards {
		p.shards[i] = &shard{jobs: make(map[int]*jobState)}
	}
	p.paths = topology.NewPathCache(p.g, p.cfg.K)
	if p.cfg.BookingTTL > 0 {
		// Sweep at half the TTL so nothing outlives ~1.5×TTL. The ticker is
		// a daemon: it never keeps the simulation alive on its own.
		eng.Every(p.cfg.BookingTTL/2, p.sweepExpired)
	}
	// Outstanding demand drains as the actual flows complete.
	net.OnFlowComplete(p.onFlowComplete)
	// Fault tolerance: recompute the routing graph and re-place every
	// active aggregate on topology change (§IV).
	ofc.OnTopologyChange(p.onTopologyChange)
	// Degraded-mode reconciliation: once management connectivity returns,
	// re-place every aggregate that fell back to the ECMP pipeline.
	ofc.OnControllerUp(p.onControllerUp)
	return p
}

// shardOf routes a job ID to its home shard.
func (p *Pythia) shardOf(job int) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	return p.shards[job%len(p.shards)]
}

// Shards reports the configured shard count.
func (p *Pythia) Shards() int { return len(p.shards) }

// SetFlightRecorder installs a flight-event sink. Pass a non-nil sink only;
// leave the field nil to disable recording.
func (p *Pythia) SetFlightRecorder(s flight.Sink) { p.fl = s }

// record stamps a collector flight event with the engine's clock and hands it
// to the sink, so a sink that stamps nothing still gets simulated time.
// Callers check p.fl before building the event.
func (p *Pythia) record(ev flight.Event) {
	ev.T = p.eng.Now()
	p.fl.Record(ev)
}

// SetPlacementHook registers fn to observe every placement decision (rule
// install, re-install or re-affirmation) in decision order. Observation is
// pure: it must not mutate collector or fabric state. The serving surface
// uses it to maintain a running digest of the placement stream.
func (p *Pythia) SetPlacementHook(fn func(src, dst topology.NodeID, path topology.Path)) {
	p.onPlace = fn
}

// enqueue puts an aggregate whose placement is missing or was just revoked
// on the worklist, once.
func (p *Pythia) enqueue(a *aggregate) {
	if !a.queued {
		a.queued = true
		p.unplaced = append(p.unplaced, a)
	}
}

// live reports whether a is still its pair's aggregate (not drained and
// deleted, possibly with a successor under the same key).
func (p *Pythia) live(a *aggregate) bool { return p.pairs.get(a.key) == a }

// placedAt returns the placed aggregates crossing link l, in ascending pair-key
// order.
func (p *Pythia) placedAt(l topology.LinkID) []*aggregate {
	if uint(l) < uint(len(p.placedOn)) {
		return p.placedOn[l]
	}
	return nil
}

// indexAgg adds a placed aggregate to the per-link placement index, growing
// the index — to the fabric's link count at least — to cover its path.
func (p *Pythia) indexAgg(a *aggregate) {
	if a.indexed {
		return
	}
	for _, l := range a.path.Links {
		if need := int(l) + 1; need > len(p.placedOn) {
			grown := make([][]*aggregate, max(need, p.g.NumLinks()))
			copy(grown, p.placedOn)
			p.placedOn = grown
		}
		set := p.placedOn[l]
		i := sort.Search(len(set), func(i int) bool { return !aggKeyLess(set[i], a) })
		set = append(set, nil)
		copy(set[i+1:], set[i:])
		set[i] = a
		p.placedOn[l] = set
	}
	a.indexed = true
}

// aggKeyLess orders aggregates by ascending pair key — the fixed summation
// order bookedDemandOn relies on for bit-identical placement decisions.
func aggKeyLess(a, b *aggregate) bool { return a.key.less(b.key) }

// less is the ascending pair-key order: by source, then destination.
func (k pairKey) less(o pairKey) bool {
	if k.src != o.src {
		return k.src < o.src
	}
	return k.dst < o.dst
}

// unindexAgg removes an aggregate from the per-link placement index.
func (p *Pythia) unindexAgg(a *aggregate) {
	if !a.indexed {
		return
	}
	for _, l := range a.path.Links {
		set := p.placedAt(l)
		i := sort.Search(len(set), func(i int) bool { return !aggKeyLess(set[i], a) })
		if i < len(set) && set[i] == a {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = nil
			p.placedOn[l] = set[:len(set)-1]
		}
	}
	a.indexed = false
}

// aggKey maps concrete endpoints to the aggregation key for the configured
// scope. Rack scope encodes rack numbers as NodeIDs.
func (p *Pythia) aggKey(src, dst topology.NodeID) pairKey {
	if p.cfg.Scope == ScopeRackPair {
		return pairKey{topology.NodeID(p.g.Node(src).Rack), topology.NodeID(p.g.Node(dst).Rack)}
	}
	return pairKey{src, dst}
}

// kPaths returns a pair's candidate set: the first K equal-cost paths,
// memoized until the next topology change.
func (p *Pythia) kPaths(src, dst topology.NodeID) []topology.Path {
	return p.paths.Paths(src, dst)
}

// ShuffleIntent ingests one prediction message (instrument.Sink) as a batch
// of one. Ingestion is idempotent on (job, map, attempt): a duplicated
// management-network delivery or a restart re-scan re-emission of an
// already-received intent is dropped outright. A *different* attempt of the
// same map (speculative backup) still flows through — the per-(job, map,
// reducer) booking replace keeps it from double-counting.
func (p *Pythia) ShuffleIntent(in instrument.Intent) {
	p.ApplyBatch([]Op{{Kind: OpIntent, Intent: in}}, 1)
}

// ingestIntent is the shard-local half of one intent: the idempotence check,
// then every per-reducer demand either booked (reducer placed) or deferred,
// in reducer-ID order — PredictedWireBytes is indexed by reducer, so the walk
// is already the order the delta log needs. seq is the intent's arrival
// ordinal.
func (p *Pythia) ingestIntent(sh *shard, in instrument.Intent, seq uint64, log *deltaLog) OpResult {
	k := [2]int{in.Map, in.Attempt}
	js := sh.jobs[in.Job]
	if js != nil && js.seen[k] {
		sh.dedupHits++
		log.recordIntent(&in, flight.DispDup)
		return OpDuplicate
	}
	if js == nil {
		js = sh.job(in.Job)
	}
	js.seen[k] = true
	js.lastSeen = p.eng.Now()
	sh.intentsReceived++
	if in.Late {
		log.recordIntent(&in, flight.DispLate)
	} else {
		log.recordIntent(&in, flight.DispOK)
	}
	var row []booking
	var pi *pendingIntent
	for r, bytes := range in.PredictedWireBytes {
		if bytes <= 0 {
			continue
		}
		dst, placed := js.reducerLoc[r]
		if !placed {
			if pi == nil {
				pi = &pendingIntent{intent: in, unresolved: make(map[int]float64), at: p.eng.Now(), seq: seq}
			}
			pi.unresolved[r] = bytes
			continue
		}
		if row == nil {
			row = js.row(in.Map, len(in.PredictedWireBytes))
		}
		p.book(sh, js, row, &in, r, bytes, dst, log)
	}
	if pi == nil {
		return OpAccepted
	}
	sh.intentsDeferred++
	js.pending = append(js.pending, pi)
	sh.pending++
	return OpDeferred
}

// ReducerUp records a reducer's server placement and drains any deferred
// demand now resolvable (instrument.Sink), as a batch of one.
func (p *Pythia) ReducerUp(up instrument.ReducerUp) {
	p.ApplyBatch([]Op{{Kind: OpReducerUp, Reducer: up}}, 1)
}

// reducerUpLocal is the shard-local half of ReducerUp. Only the job's own
// deferred intents are visited, and of each only the demand for this
// reducer: an unresolved demand is by construction one whose reducer has no
// recorded host, so nothing else can resolve on this event.
func (p *Pythia) reducerUpLocal(sh *shard, up instrument.ReducerUp, log *deltaLog) {
	if log.events {
		ev := flight.Ev(flight.ReducerUpSeen, flight.PlaneCollector)
		ev.Job, ev.Reduce, ev.Dst = up.Job, up.Reduce, up.Host
		log.record(ev)
	}
	js := sh.job(up.Job)
	js.lastSeen = p.eng.Now()
	js.reducerLoc[up.Reduce] = up.Host
	keep := js.pending[:0]
	for _, pi := range js.pending {
		if bytes, ok := pi.unresolved[up.Reduce]; ok {
			delete(pi.unresolved, up.Reduce)
			row := js.row(pi.intent.Map, len(pi.intent.PredictedWireBytes))
			p.book(sh, js, row, &pi.intent, up.Reduce, bytes, up.Host, log)
		}
		if len(pi.unresolved) > 0 {
			keep = append(keep, pi)
		}
	}
	sh.trimPending(js, keep)
}

// book reserves one resolved (map, reducer) demand: the shard-local half
// (slot in row, backlog, gauges) here, the placement-plane half logged.
func (p *Pythia) book(sh *shard, js *jobState, row []booking, in *instrument.Intent, r int, bytes float64, dst topology.NodeID, log *deltaLog) {
	if !p.steerable(in.SrcHost, dst) {
		return // local or intra-rack fetch; nothing to steer
	}
	fk := flowKey{in.Job, in.Map, r}
	b := booking{bits: bytes * 8, src: in.SrcHost, dst: dst, at: p.eng.Now()}
	disp := flight.DispNew
	if prev := row[r]; prev.bits != 0 {
		// Duplicate intent for the same (job, map, reducer) — e.g. a
		// speculative map attempt spilled a second copy on another
		// server. Only one attempt's output is fetched, so keep a
		// single booking (replace, don't add).
		sh.duplicateIntents++
		js.drainBacklog(r, prev.bits)
		log.unbookGlobal(fk, prev)
		disp = flight.DispReplaced
	} else {
		js.nBooked++
		sh.booked++
	}
	row[r] = b
	if log.events {
		ev := flight.Ev(flight.BookingMade, flight.PlaneCollector)
		ev.Job, ev.Map, ev.Attempt, ev.Reduce = in.Job, in.Map, in.Attempt, r
		ev.Src, ev.Dst = in.SrcHost, dst
		ev.Bytes = bytes
		ev.Disposition = disp
		log.record(ev)
	}
	js.backlog[r] += b.bits
	log.bookGlobal(fk, b)
}

// steerable reports whether a resolved (src, dst) transfer touches fabric
// links Pythia can steer: same-host fetches never leave the server, and
// under rack scope intra-rack transfers are a single ToR hop.
func (p *Pythia) steerable(src, dst topology.NodeID) bool {
	if dst == src {
		return false
	}
	if p.cfg.Scope == ScopeRackPair && p.g.Node(dst).Rack == p.g.Node(src).Rack {
		return false
	}
	return true
}

// bookGlobal applies the placement-plane half of one booking: charge the
// pair aggregate (creating it on first demand) and, under the A2 ablation,
// force a fresh placement decision.
func (p *Pythia) bookGlobal(fk flowKey, b booking) {
	key := p.aggKey(b.src, b.dst)
	agg := p.pairs.get(key)
	if agg == nil {
		agg = &aggregate{key: key, repSrc: b.src, repDst: b.dst}
		p.pairs.put(agg)
		p.enqueue(agg)
	}
	agg.demandBits += b.bits
	agg.add(fk.job, fk.reduce, b.bits)
	if !p.cfg.Aggregate {
		// Ablation: every new demand forces a fresh placement
		// decision for the pair.
		agg.placed = false
		p.unindexAgg(agg)
		p.enqueue(agg)
	}
}

// PendingUnknownDestinations reports intents still awaiting reducer
// placement.
func (p *Pythia) PendingUnknownDestinations() int {
	return p.sumShards(func(s *shard) int { return s.pending })
}

// sweepExpired is the booking-TTL garbage collector (daemon ticker, period
// BookingTTL/2). It releases reservations whose flows never materialized,
// drops deferred intents that never resolved, and purges residual per-job
// state for jobs silent past the TTL — the backstop that keeps collector
// state bounded when JobDone itself is lost on the management network.
//
// Expiry order must be bit-identical at any shard count: expired bookings
// release in one global (job, map, reduce) sort, expired deferred intents in
// arrival-seq order.
func (p *Pythia) sweepExpired() {
	now := p.eng.Now()
	ttl := p.cfg.BookingTTL

	var keys []flowKey
	var expired []*pendingIntent
	for _, sh := range p.shards {
		for job, js := range sh.jobs {
			for m, row := range js.booked {
				for r := range row {
					if row[r].bits != 0 && now.Sub(row[r].at) >= ttl {
						keys = append(keys, flowKey{job, m, r})
					}
				}
			}
			keep := js.pending[:0]
			for _, pi := range js.pending {
				if now.Sub(pi.at) >= ttl {
					expired = append(expired, pi)
				} else {
					keep = append(keep, pi)
				}
			}
			sh.expiredIntents += sh.trimPending(js, keep)
		}
	}

	// Expired bookings, in global key order. Keys are unique, so the sort
	// fixes the order whatever the shard count.
	sort.Slice(keys, func(a, b int) bool { return flowKeyLess(keys[a], keys[b]) })
	for _, fk := range keys {
		sh := p.shardOf(fk.job)
		b, _ := sh.release(sh.jobs[fk.job], fk.mapID, fk.reduce)
		p.unbookGlobal(fk, b)
		sh.expiredBookings++
		if p.fl != nil {
			ev := flight.Ev(flight.BookingExpired, flight.PlaneCollector)
			ev.Job, ev.Map, ev.Reduce = fk.job, fk.mapID, fk.reduce
			ev.Src, ev.Dst = b.src, b.dst
			ev.Bytes = b.bits / 8
			p.record(ev)
		}
	}

	// Expired deferred intents, in arrival order.
	sort.Slice(expired, func(i, j int) bool { return expired[i].seq < expired[j].seq })
	for _, pi := range expired {
		if p.fl != nil {
			ev := flight.Ev(flight.IntentExpired, flight.PlaneCollector)
			ev.Job, ev.Map, ev.Attempt = pi.intent.Job, pi.intent.Map, pi.intent.Attempt
			ev.Src = pi.intent.SrcHost
			ev.Count = len(pi.unresolved)
			p.record(ev)
		}
	}

	// Dead-job purge: a job with no bookings, no pending intents, and no
	// control message for a full TTL is gone — drop its reducer map and
	// idempotence entries so collector memory stays bounded.
	for _, sh := range p.shards {
		for job, js := range sh.jobs {
			if js.nBooked == 0 && len(js.pending) == 0 && now.Sub(js.lastSeen) >= ttl {
				delete(sh.jobs, job)
			}
		}
	}
}

// OutstandingBookings reports the job's live reservations plus deferred
// intents — the quantity that must be zero after the job is done (leak
// detection).
func (p *Pythia) OutstandingBookings(job int) int {
	js := p.shardOf(job).jobs[job]
	if js == nil {
		return 0
	}
	return js.nBooked + len(js.pending)
}

// OutstandingTotal reports live reservations plus deferred intents across
// every job — the service-level leak gauge (zero once every submitted job
// has been retired with JobDone).
func (p *Pythia) OutstandingTotal() int {
	return p.sumShards(func(s *shard) int { return s.booked + s.pending })
}

// sortedAggregates lists the pair aggregates in ascending pair-key order: the
// pair index's rows by source, each row by destination. It is the one walk
// over every live aggregate.
func (p *Pythia) sortedAggregates() []*aggregate {
	aggs := make([]*aggregate, 0, p.pairs.n)
	for _, row := range p.pairs.rows {
		for _, a := range row.dst {
			if a != nil {
				aggs = append(aggs, a)
			}
		}
	}
	return aggs
}

// OutstandingDemandBits sums booked-but-undelivered predicted demand, in
// ascending pair-key order so the float sum is bit-reproducible.
func (p *Pythia) OutstandingDemandBits() float64 {
	total := 0.0
	for _, a := range p.sortedAggregates() {
		total += a.demandBits
	}
	return total
}

// backlog reports the outstanding booked demand feeding one reducer.
func (p *Pythia) backlog(job, reduce int) float64 {
	if js := p.shardOf(job).jobs[job]; js != nil && reduce < len(js.backlog) {
		return js.backlog[reduce]
	}
	return 0
}

// candidate is one aggregate awaiting a path in a placement pass, with its
// criticality key computed once.
type candidate struct {
	a    *aggregate
	crit float64
}

// criticality is an aggregate's barrier-criticality key: the largest
// outstanding backlog among the reducers it still feeds.
func (p *Pythia) criticality(a *aggregate) float64 {
	max := 0.0
	for i := range a.perReducer {
		if b := p.backlog(a.perReducer[i].job, a.perReducer[i].reduce); b > max {
			max = b
		}
	}
	return max
}

// takeCandidates settles the worklist for a placement pass and returns the
// aggregates the pass must place. Dead entries are dropped; candidates leave
// the list (place makes them placed; an unroutable one re-enters in allocate,
// a failed install re-enters through degrade); degraded and demandless
// aggregates stay queued.
func (p *Pythia) takeCandidates() []candidate {
	todo := make([]candidate, 0, len(p.unplaced))
	keep := p.unplaced[:0]
	for _, a := range p.unplaced {
		switch {
		case !p.live(a):
			a.queued = false
		case a.demandBits > 0 && !a.degraded:
			a.queued = false
			todo = append(todo, candidate{a: a})
		default:
			keep = append(keep, a)
		}
	}
	clear(p.unplaced[len(keep):])
	p.unplaced = keep
	return todo
}

// allocate runs the first-fit bin-packing pass over the worklist: unplaced
// aggregates ordered by barrier criticality (when Config.UseCriticality is
// set), then descending demand, then ascending pair key, each assigned to
// the k-shortest path with the highest available bandwidth given background
// estimates and already-booked shuffle demand. It returns how many
// candidates the pass considered.
//
// The worklist is settled before anything is placed, because place's install
// callback can degrade an aggregate — put it back on the list — mid-loop.
// The candidate order is a total order (pair keys are unique), so the order
// the worklist held them in cannot reach a decision.
func (p *Pythia) allocate() (candidates int) {
	todo := p.takeCandidates()
	if len(todo) == 0 {
		return 0
	}
	if p.cfg.UseCriticality {
		for i := range todo {
			todo[i].crit = p.criticality(todo[i].a)
		}
	}
	sort.Slice(todo, func(i, j int) bool {
		if todo[i].crit != todo[j].crit {
			return todo[i].crit > todo[j].crit
		}
		ai, aj := todo[i].a, todo[j].a
		if ai.demandBits != aj.demandBits {
			return ai.demandBits > aj.demandBits
		}
		return ai.key.less(aj.key)
	})
	for _, c := range todo {
		a := c.a
		paths := p.kPaths(a.repSrc, a.repDst)
		if len(paths) == 0 {
			p.enqueue(a) // unroutable; leave to the default pipeline, retry next pass
			continue
		}
		best := paths[0]
		bestScore := p.pathScore(paths[0], a)
		chosen := 0
		var scores []float64
		if p.fl != nil {
			scores = append(scores, bestScore)
		}
		for i, cand := range paths[1:] {
			s := p.pathScore(cand, a)
			if p.fl != nil {
				scores = append(scores, s)
			}
			if s > bestScore {
				best, bestScore = cand, s
				chosen = i + 1
			}
		}
		if p.fl != nil {
			ev := flight.Ev(flight.Placement, flight.PlaneCollector)
			ev.Src, ev.Dst = a.key.src, a.key.dst
			ev.Bytes = a.demandBits / 8
			ev.Count = len(paths)
			ev.Path = pathString(best)
			ev.Detail = placementDetail(scores, chosen, c.crit, p.cfg.UseCriticality)
			p.record(ev)
		}
		p.place(a, best)
	}
	return len(todo)
}

// pathString renders a path's link IDs for flight events.
func pathString(path topology.Path) string {
	var b strings.Builder
	for i, l := range path.Links {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(l)))
	}
	return b.String()
}

// placementDetail renders the bin-packing rationale: every candidate's
// estimated bandwidth, which index won, and (when the criticality criterion
// is active) the barrier backlog that prioritized the aggregate.
func placementDetail(scores []float64, chosen int, crit float64, useCrit bool) string {
	var b strings.Builder
	b.WriteString("scores=")
	for i, s := range scores {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(s, 'g', 4, 64))
	}
	b.WriteString(" chosen=")
	b.WriteString(strconv.Itoa(chosen))
	if useCrit {
		b.WriteString(" crit=")
		b.WriteString(strconv.FormatFloat(crit, 'g', 4, 64))
	}
	return b.String()
}

// pathScore estimates the bandwidth an aggregate would receive on a path:
// the minimum over links of the Hadoop-available capacity (nominal minus
// estimated background), shared demand-proportionally with the other
// aggregates booked there. Demand weighting makes heavy pairs spread even
// when all paths are equally loaded.
func (p *Pythia) pathScore(path topology.Path, self *aggregate) float64 {
	selfDemand := self.demandBits
	if selfDemand <= 0 {
		selfDemand = 1
	}
	score := 0.0
	for i, l := range path.Links {
		sample := p.ofc.LinkLoad(l)
		lk := p.g.Link(l)
		usedBps := sample.Utilization * lk.CapacityBps
		backgroundBps := usedBps - sample.ShuffleBps
		if backgroundBps < 0 {
			backgroundBps = 0
		}
		spare := lk.CapacityBps - backgroundBps
		if spare < 0 {
			spare = 0
		}
		// Share the spare capacity with aggregates already booked on
		// this link (self excluded), in proportion to predicted demand.
		linkScore := spare * selfDemand / (selfDemand + p.bookedDemandOn(l, self))
		if i == 0 || linkScore < score {
			score = linkScore
		}
	}
	return score
}

// bookedDemandOn sums the predicted demand of the other placed aggregates
// crossing link l. placedOn[l] is maintained in ascending pair-key order, so
// the float sum — and hence every placement decision — is fixed by the state
// alone.
func (p *Pythia) bookedDemandOn(l topology.LinkID, self *aggregate) float64 {
	sum := 0.0
	for _, other := range p.placedAt(l) {
		if other == self || other.demandBits <= 0 {
			continue
		}
		sum += other.demandBits
	}
	return sum
}

// place books the aggregate onto the path and installs its rules. An
// aggregate already holding rules for a different path is re-installed;
// one re-affirmed on its unchanged path counts as a Reaffirmation, not a
// placement, since no switch state moves.
func (p *Pythia) place(a *aggregate, path topology.Path) {
	// The cookie is the evidence that rules for a.path sit in the switches
	// (placed may have been cleared by a re-placement pass already).
	samePath := a.cookie != 0 && a.path.Equal(path)
	if a.cookie != 0 && !samePath {
		p.ofc.RemovePath(a.path, a.cookie)
		a.cookie = 0
		p.Reallocations++
	}
	p.unindexAgg(a)
	a.path = path
	a.placed = true
	p.indexAgg(a)
	if p.onPlace != nil {
		p.onPlace(a.key.src, a.key.dst, path)
	}
	if a.cookie != 0 {
		p.Reaffirmations++
		return
	}
	p.AggregatesPlaced++
	{
		cookie := p.nextCookie
		p.nextCookie++
		a.cookie = cookie
		onDone := func(err error) {
			if err != nil {
				p.RuleInstallErrors++
				if errors.Is(err, openflow.ErrControlPlaneUnreachable) {
					// Guard against stale acks: only degrade if this
					// install still backs the aggregate's current
					// placement.
					if p.live(a) && a.cookie == cookie {
						p.degrade(a)
					}
				}
			}
		}
		if p.cfg.Scope == ScopeRackPair {
			match := openflow.RackPair(int(a.key.src), int(a.key.dst))
			p.ofc.InstallSteering(match, path, p.cfg.RulePriority, cookie, onDone)
		} else {
			match := openflow.HostPair(a.key.src, a.key.dst)
			p.ofc.InstallPath(match, path, p.cfg.RulePriority, cookie, onDone)
		}
	}
}

// degrade drops an aggregate to the default ECMP pipeline: whatever partial
// rules reached the switches are released (modeling switch-local idle-timeout
// expiry — switches expire rules autonomously, no control plane needed, so a
// half-programmed path cannot linger and trap traffic in a forwarding loop),
// and allocation skips the aggregate until reconciliation. Its traffic still
// flows — table misses fall back to local ECMP hashing in Resolve.
func (p *Pythia) degrade(a *aggregate) {
	if a.cookie != 0 {
		p.ofc.RemovePath(a.path, a.cookie)
		a.cookie = 0
	}
	a.placed = false
	a.degraded = true
	p.unindexAgg(a)
	p.enqueue(a)
	p.AggregatesDegraded++
	if p.fl != nil {
		ev := flight.Ev(flight.Degraded, flight.PlaneCollector)
		ev.Src, ev.Dst = a.key.src, a.key.dst
		ev.Bytes = a.demandBits / 8
		p.record(ev)
	}
}

// onControllerUp reconciles degraded aggregates once management
// connectivity returns: clear the flags and run an allocation pass so live
// demand gets predictive placements again.
func (p *Pythia) onControllerUp() {
	// A degraded aggregate is unplaced, so the worklist holds them all.
	n := 0
	for _, a := range p.unplaced {
		if a.degraded && p.live(a) {
			a.degraded = false
			n++
		}
	}
	if n == 0 {
		return
	}
	p.Reconciliations += n
	if p.fl != nil {
		// One aggregated event: the worklist's order carries no meaning, so
		// per-aggregate events here would be order-nondeterministic.
		ev := flight.Ev(flight.Reconciled, flight.PlaneCollector)
		ev.Count = n
		p.record(ev)
	}
	p.allocate()
}

// recordIntent logs the intent-received flight event; a no-op when the
// recorder is disabled.
func (l *deltaLog) recordIntent(in *instrument.Intent, disp string) {
	if !l.events {
		return
	}
	ev := flight.Ev(flight.IntentReceived, flight.PlaneCollector)
	ev.Job, ev.Map, ev.Attempt, ev.Src = in.Job, in.Map, in.Attempt, in.SrcHost
	ev.Count = len(in.PredictedWireBytes)
	ev.DelaySec = float64(in.EmittedAt.Sub(in.MapFinishedAt))
	ev.Disposition = disp
	l.record(ev)
}

// onFlowComplete drains delivered demand and releases rules for pairs whose
// demand has emptied (keeping TCAM occupancy proportional to active work).
func (p *Pythia) onFlowComplete(f *netsim.Flow) {
	sh := p.shardOf(f.Job)
	js := sh.jobs[f.Job]
	if js == nil {
		return
	}
	if b, ok := sh.release(js, f.Map, f.Reduce); ok {
		p.unbookGlobal(flowKey{f.Job, f.Map, f.Reduce}, b)
	}
}

// unbookGlobal reverses the placement-plane half of one booking: draining
// the owning aggregate and releasing its rules when its demand empties.
func (p *Pythia) unbookGlobal(key flowKey, b booking) {
	agg := p.pairs.get(p.aggKey(b.src, b.dst))
	if agg == nil {
		return
	}
	agg.demandBits -= b.bits
	agg.sub(key.job, key.reduce, b.bits)
	if agg.demandBits <= 1 { // float dust
		agg.demandBits = 0
		if agg.cookie != 0 {
			p.ofc.RemovePath(agg.path, agg.cookie)
		}
		p.unindexAgg(agg)
		p.pairs.del(agg)
	}
}

// JobDone purges all controller state for a finished (or abandoned) job:
// pending intents, bookings, reducer placements, and barrier backlog. Booked
// demand whose flows never ran — e.g. reducers that never started — would
// otherwise pin aggregates, rules, and backlog entries forever. It is a batch
// of one.
func (p *Pythia) JobDone(job int) {
	p.ApplyBatch([]Op{{Kind: OpJobDone, Job: job}}, 1)
}

// jobDoneLocal performs the shard-local half of JobDone — dropping the
// job's state and logging the placement-plane half of each reservation it
// still held in ascending (map, reduce) order.
func (p *Pythia) jobDoneLocal(sh *shard, job int, log *deltaLog) {
	js := sh.jobs[job]
	if js == nil {
		return
	}
	maps := make([]int, 0, len(js.booked))
	for m := range js.booked {
		maps = append(maps, m)
	}
	sort.Ints(maps)
	for _, m := range maps {
		for r, b := range js.booked[m] {
			if b.bits != 0 {
				log.unbookGlobal(flowKey{job, m, r}, b)
			}
		}
	}
	sh.booked -= js.nBooked
	sh.pending -= len(js.pending)
	delete(sh.jobs, job)
}

// onTopologyChange recomputes routing, re-places every live aggregate, and
// reroutes in-flight shuffle flows stranded on failed links (§IV fault
// tolerance: the routing graph is rebuilt from topology-update events).
func (p *Pythia) onTopologyChange() {
	// The path cache keys its memo by the graph's Version() and drops it on
	// the first query after a change; no flush needed here.
	for _, a := range p.sortedAggregates() {
		if a.demandBits <= 0 {
			continue
		}
		// Invalid paths (through failed links) must move; valid ones are
		// re-scored too, since spare capacity shifted. Degraded aggregates
		// get another chance: the fabric changed, so retry placement (they
		// re-degrade if the control plane is still dark).
		a.placed = false
		a.degraded = false
		p.unindexAgg(a)
		p.enqueue(a)
	}
	p.allocate()
	// Rescue stranded in-flight flows: move them onto their pair's new
	// path (or the best current shortest path if the pair has drained).
	// ForEachActive avoids copying the active set; Reroute during the walk
	// is safe because it does not change active-set membership.
	p.net.ForEachActive(func(f *netsim.Flow) {
		if len(f.Path.Links) == 0 {
			return
		}
		if f.Path.Valid(p.g) == nil {
			return // still routable
		}
		var target topology.Path
		agg := p.pairs.get(p.aggKey(f.Tuple.SrcHost, f.Tuple.DstHost))
		if agg != nil && agg.placed && p.cfg.Scope == ScopeHostPair {
			target = agg.path
		} else if ps := p.kPaths(f.Tuple.SrcHost, f.Tuple.DstHost); len(ps) > 0 {
			target = ps[0]
		} else {
			return // pair disconnected; flow stays starved
		}
		p.net.Reroute(f, target)
		p.FlowsRescued++
	})
}
