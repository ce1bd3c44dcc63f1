package core

import (
	"fmt"
	"sort"

	"pythia/internal/instrument"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// This file is the collector's durability surface: Snapshot captures every
// bit of state a placement decision can depend on, Restore rebuilds it into
// a freshly constructed stack, and NovelOps is the logical-clock metering
// rule that makes at-least-once delivery clock-invisible. Together with the
// write-ahead journal (internal/wal) and the serving layer's replay
// (internal/serve) they make a restarted collector bit-identical to one
// that never crashed: restore the last snapshot, advance the engine to the
// snapshot instant (catch-up TTL sweeps are provably no-ops against
// restored state — anything they could expire was already expired by the
// same sweep before the snapshot was cut), then replay the journal tail
// through the normal ApplyBatch path.

// FlowKey is the exported (job, map, reduce) booking key used by snapshots.
type FlowKey struct {
	Job, Map, Reduce int
}

// BookingSnap is one demand reservation.
type BookingSnap struct {
	Bits     float64
	Src, Dst topology.NodeID
	At       sim.Time
}

// PendingSnap is one deferred intent awaiting reducer placement.
type PendingSnap struct {
	Intent     instrument.Intent
	Unresolved map[int]float64
	At         sim.Time
	Seq        uint64
}

// ShardSnap is one shard's complete per-job state and counters.
type ShardSnap struct {
	ReducerLoc  map[[2]int]topology.NodeID
	Pending     []PendingSnap
	Booked      map[FlowKey]BookingSnap
	RedBacklog  map[[2]int]float64
	Seen        map[[3]int]bool
	JobLastSeen map[int]sim.Time // nil when the TTL sweep is disabled

	IntentsReceived  int
	IntentsDeferred  int
	DedupHits        int
	DuplicateIntents int
	ExpiredBookings  int
	ExpiredIntents   int
}

// AggSnap is one pair aggregate of the placement plane. Cookie != 0 means
// rules for Path are programmed in the switches; Restore re-installs them
// under the same cookie so the post-restart rule lifecycle (same-path
// re-affirmation, removal on drain) is indistinguishable from an
// uninterrupted run.
type AggSnap struct {
	KeySrc, KeyDst topology.NodeID
	RepSrc, RepDst topology.NodeID
	Path           topology.Path
	Cookie         uint64
	DemandBits     float64
	Placed         bool
	Degraded       bool
	PerReducer     map[[2]int]float64
}

// Snapshot is a complete, self-contained capture of collector state. It is
// plain exported data (gob- and JSON-encodable); the float64 fields carry
// exact bit patterns, which Restore preserves — reconstructing demand sums
// from bookings instead would re-associate float additions and perturb
// placement scores.
type Snapshot struct {
	Shards     []ShardSnap
	NextSeq    uint64
	NextCookie uint64
	Aggregates []AggSnap // ascending pair key

	AggregatesPlaced   int
	Reaffirmations     int
	Reallocations      int
	RuleInstallErrors  int
	FlowsRescued       int
	AggregatesDegraded int
	Reconciliations    int
}

// Snapshot captures the collector's full state — with Restore, the
// durability surface the serving plane's write-ahead journal compacts
// against. The caller must hold the same exclusion ApplyBatch requires (no
// concurrent collector or engine use).
func (p *Pythia) Snapshot() *Snapshot {
	s := &Snapshot{
		Shards:     make([]ShardSnap, len(p.shards)),
		NextSeq:    p.nextSeq,
		NextCookie: p.nextCookie,

		AggregatesPlaced:   p.AggregatesPlaced,
		Reaffirmations:     p.Reaffirmations,
		Reallocations:      p.Reallocations,
		RuleInstallErrors:  p.RuleInstallErrors,
		FlowsRescued:       p.FlowsRescued,
		AggregatesDegraded: p.AggregatesDegraded,
		Reconciliations:    p.Reconciliations,
	}
	for i, sh := range p.shards {
		s.Shards[i] = p.snapShard(sh)
	}
	for _, a := range p.sortedAggregates() {
		as := AggSnap{
			KeySrc: a.key.src, KeyDst: a.key.dst,
			RepSrc: a.repSrc, RepDst: a.repDst,
			Path:       topology.Path{Links: append([]topology.LinkID(nil), a.path.Links...), Src: a.path.Src, Dst: a.path.Dst},
			Cookie:     a.cookie,
			DemandBits: a.demandBits,
			Placed:     a.placed,
			Degraded:   a.degraded,
			PerReducer: make(map[[2]int]float64, len(a.perReducer)),
		}
		for k, v := range a.perReducer {
			as.PerReducer[k] = v
		}
		s.Aggregates = append(s.Aggregates, as)
	}
	return s
}

// snapShard flattens one shard's job table into the (job, …)-keyed shape
// snapshots have always had: the job-local keys regain their job ID, and the
// per-job pending lists merge by arrival seq into the shard-wide
// seq-ascending list.
func (p *Pythia) snapShard(sh *shard) ShardSnap {
	nLoc, nSeen := 0, 0 // size hints: growing the flat maps would dominate the copy
	for _, js := range sh.jobs {
		nLoc += len(js.reducerLoc)
		nSeen += len(js.seen)
	}
	ss := ShardSnap{
		ReducerLoc: make(map[[2]int]topology.NodeID, nLoc),
		Booked:     make(map[FlowKey]BookingSnap, sh.booked),
		RedBacklog: make(map[[2]int]float64, nLoc),
		Seen:       make(map[[3]int]bool, nSeen),

		IntentsReceived:  sh.intentsReceived,
		IntentsDeferred:  sh.intentsDeferred,
		DedupHits:        sh.dedupHits,
		DuplicateIntents: sh.duplicateIntents,
		ExpiredBookings:  sh.expiredBookings,
		ExpiredIntents:   sh.expiredIntents,
	}
	if p.cfg.BookingTTL > 0 {
		ss.JobLastSeen = make(map[int]sim.Time, len(sh.jobs))
	}
	for job, js := range sh.jobs {
		for r, host := range js.reducerLoc {
			ss.ReducerLoc[[2]int{job, r}] = host
		}
		for m, row := range js.booked {
			for r, b := range row {
				if b.bits != 0 {
					ss.Booked[FlowKey{job, m, r}] = BookingSnap{b.bits, b.src, b.dst, b.at}
				}
			}
		}
		for r, bits := range js.backlog {
			if bits != 0 {
				ss.RedBacklog[[2]int{job, r}] = bits
			}
		}
		for k := range js.seen {
			ss.Seen[[3]int{job, k[0], k[1]}] = true
		}
		if ss.JobLastSeen != nil {
			ss.JobLastSeen[job] = js.lastSeen
		}
		for _, pi := range js.pending {
			ps := PendingSnap{Intent: pi.intent, Unresolved: make(map[int]float64, len(pi.unresolved)),
				At: pi.at, Seq: pi.seq}
			for r, b := range pi.unresolved {
				ps.Unresolved[r] = b
			}
			ss.Pending = append(ss.Pending, ps)
		}
	}
	sort.Slice(ss.Pending, func(i, j int) bool { return ss.Pending[i].Seq < ss.Pending[j].Seq })
	return ss
}

// Restore rebuilds collector state from a snapshot. It must run
// on a freshly constructed Pythia (same Config.Shards, same fabric) before
// any ingest; rules held by snapshotted aggregates are re-programmed into
// the fresh controller under their original cookies — the restart-time
// switch re-sync a physical deployment would perform. After Restore the
// caller advances the engine to the snapshot instant and replays the
// journal tail.
func (p *Pythia) Restore(s *Snapshot) error {
	if len(s.Shards) != len(p.shards) {
		return fmt.Errorf("core: snapshot has %d shards, collector %d (shard count must match across restart)",
			len(s.Shards), len(p.shards))
	}
	for i, sh := range p.shards {
		if len(sh.jobs) != 0 {
			return fmt.Errorf("core: Restore on a non-fresh collector (shard %d has state)", i)
		}
	}
	p.nextSeq = s.NextSeq
	p.nextCookie = s.NextCookie
	p.AggregatesPlaced = s.AggregatesPlaced
	p.Reaffirmations = s.Reaffirmations
	p.Reallocations = s.Reallocations
	p.RuleInstallErrors = s.RuleInstallErrors
	p.FlowsRescued = s.FlowsRescued
	p.AggregatesDegraded = s.AggregatesDegraded
	p.Reconciliations = s.Reconciliations

	for i, ss := range s.Shards {
		sh := p.shards[i]
		sh.intentsReceived = ss.IntentsReceived
		sh.intentsDeferred = ss.IntentsDeferred
		sh.dedupHits = ss.DedupHits
		sh.duplicateIntents = ss.DuplicateIntents
		sh.expiredBookings = ss.ExpiredBookings
		sh.expiredIntents = ss.ExpiredIntents
		for k, host := range ss.ReducerLoc {
			sh.job(k[0]).reducerLoc[k[1]] = host
		}
		for fk, b := range ss.Booked {
			js := sh.job(fk.Job)
			js.row(fk.Map, fk.Reduce+1)[fk.Reduce] = booking{bits: b.Bits, src: b.Src, dst: b.Dst, at: b.At}
			js.nBooked++
		}
		sh.booked = len(ss.Booked)
		for k, bits := range ss.RedBacklog {
			js := sh.job(k[0])
			js.reach(k[1] + 1)
			js.backlog[k[1]] = bits
		}
		for k := range ss.Seen {
			sh.job(k[0]).seen[[2]int{k[1], k[2]}] = true
		}
		for job, at := range ss.JobLastSeen {
			sh.job(job).lastSeen = at
		}
		// Snapshot pending lists are seq-ascending across the shard, so each
		// job's sublist comes out seq-ascending too.
		for _, ps := range ss.Pending {
			pi := &pendingIntent{intent: ps.Intent, unresolved: make(map[int]float64, len(ps.Unresolved)),
				at: ps.At, seq: ps.Seq}
			for r, b := range ps.Unresolved {
				pi.unresolved[r] = b
			}
			js := sh.job(ps.Intent.Job)
			js.pending = append(js.pending, pi)
		}
		sh.pending = len(ss.Pending)
	}

	for _, as := range s.Aggregates {
		a := &aggregate{
			key:        pairKey{as.KeySrc, as.KeyDst},
			repSrc:     as.RepSrc,
			repDst:     as.RepDst,
			path:       topology.Path{Links: append([]topology.LinkID(nil), as.Path.Links...), Src: as.Path.Src, Dst: as.Path.Dst},
			cookie:     as.Cookie,
			demandBits: as.DemandBits,
			placed:     as.Placed,
			degraded:   as.Degraded,
			perReducer: make(map[[2]int]float64, len(as.PerReducer)),
		}
		for k, v := range as.PerReducer {
			a.perReducer[k] = v
		}
		p.aggregates[a.key] = a
		if a.placed {
			p.indexAgg(a)
		}
		if a.cookie != 0 {
			// Re-program the rules the crashed process had installed. The
			// fresh control plane is assumed reachable at restore time, so
			// no degrade handling is wired; install acks are pure no-ops.
			if p.cfg.Scope == ScopeRackPair {
				p.ofc.InstallSteering(openflow.RackPair(int(a.key.src), int(a.key.dst)),
					a.path, p.cfg.RulePriority, a.cookie, nil)
			} else {
				p.ofc.InstallPath(openflow.HostPair(a.key.src, a.key.dst),
					a.path, p.cfg.RulePriority, a.cookie, nil)
			}
		}
	}
	return nil
}

// NovelOps counts the operations of a batch that represent new work rather
// than at-least-once redelivery: intents not yet in the idempotence set,
// reducer placements that change the recorded host, and retirements of jobs
// the collector still knows. The serving layer's logical clock advances by
// this count, so a retried request — same ops, already applied — moves
// virtual time by zero and a crashed-and-recovered run keeps the exact
// sweep schedule of an uninterrupted one.
//
// The count is evaluated against pre-batch state (plus earlier ops of the
// same batch), is read-only, and is deterministic: journal replay re-derives
// the same value the original run metered.
func (p *Pythia) NovelOps(ops []Op) int {
	novel := 0
	var seenScratch map[[3]int]bool
	var redScratch map[[2]int]topology.NodeID
	var jobScratch map[int]bool // job known (true) / retired (false) by earlier ops in this batch
	markJob := func(job int, known bool) {
		if jobScratch == nil {
			jobScratch = make(map[int]bool)
		}
		jobScratch[job] = known
	}
	for i := range ops {
		op := &ops[i]
		job := op.job()
		js := p.shardOf(job).jobs[job]
		switch op.Kind {
		case OpIntent:
			k := [3]int{job, op.Intent.Map, op.Intent.Attempt}
			if seenScratch[k] || (js != nil && js.seen[[2]int{k[1], k[2]}]) {
				continue
			}
			if seenScratch == nil {
				seenScratch = make(map[[3]int]bool)
			}
			seenScratch[k] = true
			markJob(job, true)
			novel++
		case OpReducerUp:
			k := [2]int{job, op.Reducer.Reduce}
			cur, ok := redScratch[k]
			if !ok && js != nil {
				cur, ok = js.reducerLoc[op.Reducer.Reduce]
			}
			if ok && cur == op.Reducer.Host {
				continue
			}
			if redScratch == nil {
				redScratch = make(map[[2]int]topology.NodeID)
			}
			redScratch[k] = op.Reducer.Host
			markJob(job, true)
			novel++
		case OpJobDone:
			// Without the TTL sweep a lost JobDone is never cleaned up after,
			// so every JobDone meters (the documented conservative fallback).
			known, ok := jobScratch[job]
			if !ok {
				known = js != nil || p.cfg.BookingTTL <= 0
			}
			if !known {
				continue
			}
			markJob(job, false)
			novel++
		}
	}
	return novel
}
