package core

import (
	"sync"
	"time"

	"pythia/internal/flight"
)

// delta is one entry of ApplyBatch's shard-phase log: a deferred
// placement-plane mutation (a bookGlobal or unbookGlobal the shard-local code
// owes) or, when the collector records, one collector flight event. (op, sub)
// is the entry's position in the batch's global order — op is the
// operation's index in the batch, sub the emission ordinal within that
// operation — which the commit phase replays with a min-key merge.
type delta struct {
	op, sub int
	unbook  bool
	fk      flowKey
	b       booking       // the reservation being made or released
	ev      *flight.Event // non-nil: an event to record, not a mutation
}

func deltaLess(a, b *delta) bool {
	if a.op != b.op {
		return a.op < b.op
	}
	return a.sub < b.sub
}

// deltaLog is what one shard's phase of ApplyBatch writes to: it records,
// stamped (op, sub), what the placement plane is owed and, when events is
// set (the collector has a flight sink), the flight events to emit.
type deltaLog struct {
	ds      []delta
	op, sub int
	events  bool
}

func (l *deltaLog) bookGlobal(fk flowKey, b booking) {
	l.ds = append(l.ds, delta{op: l.op, sub: l.sub, fk: fk, b: b})
	l.sub++
}

func (l *deltaLog) unbookGlobal(fk flowKey, b booking) {
	l.ds = append(l.ds, delta{op: l.op, sub: l.sub, unbook: true, fk: fk, b: b})
	l.sub++
}

// record logs a flight event. Callers build the event only when l.events is
// set, so a disabled recorder allocates nothing.
func (l *deltaLog) record(ev flight.Event) {
	l.ds = append(l.ds, delta{op: l.op, sub: l.sub, ev: &ev})
	l.sub++
}

// ApplyBatch ingests a batch of collector operations in two phases:
//
//  1. Shard phase — operations are routed to their job's home shard and
//     each shard processes its own operations, in batch order, touching
//     only shard-local state (dedup, reducer placements, deferred intents,
//     bookings, barrier backlog). Placement-plane mutations and collector
//     flight events are not applied but recorded as (op, sub)-stamped
//     deltas. Shards share nothing, so with workers > 1 this phase runs
//     shards concurrently.
//  2. Commit phase — serialized: the per-shard delta streams (each already
//     ascending in (op, sub)) are min-key merged into the batch's global
//     order and applied — bookings to the pair aggregates, events to the
//     flight sink — then one placement pass (allocate) runs for the whole
//     batch.
//
// It is the collector's only ingestion path: ShuffleIntent, ReducerUp and
// JobDone are batches of one.
//
// Determinism contract: for a fixed operation sequence and fixed batch
// boundaries, the results, all collector state, every placement decision
// and every collector flight event are bit-identical at any shard count and
// any worker count — the merged delta order reproduces exactly the order a
// single shard would have produced. Batch boundaries do matter: each batch
// ends in one placement pass.
//
// Results are positional with ops. The caller must not invoke any other
// collector method, nor advance the engine, while ApplyBatch runs.
func (p *Pythia) ApplyBatch(ops []Op, workers int) []OpResult {
	if len(ops) == 0 {
		return nil
	}
	t0 := time.Now()
	results, deltas := p.shardPhase(ops, workers)
	t1 := time.Now()
	p.mergeDeltas(deltas)
	t2 := time.Now()
	candidates := p.allocate()
	p.commit = CommitStats{
		Shard:      t1.Sub(t0),
		Merge:      t2.Sub(t1),
		Place:      time.Since(t2),
		Candidates: candidates,
		Unplaced:   len(p.unplaced),
	}
	return results
}

// CommitStats describes one ApplyBatch: the wall time of its three legs and
// what the placement pass saw. Wall times are observation only; no decision
// reads them.
type CommitStats struct {
	Shard time.Duration // shard phase: shard-local ingest of every operation
	Merge time.Duration // delta merge into the pair aggregates
	Place time.Duration // placement pass
	// Candidates is how many unplaced aggregates the placement pass scored;
	// Unplaced how many it left without a path — degraded to the default
	// pipeline or unroutable. Persistently non-zero means pairs Pythia
	// cannot steer.
	Candidates, Unplaced int
}

// LastCommit reports the latest non-empty ApplyBatch. Like every collector
// method it must not run concurrently with ApplyBatch.
func (p *Pythia) LastCommit() CommitStats { return p.commit }

// shardPhase is ApplyBatch's phase 1: it returns the positional results and
// each shard's delta stream, ascending in (op, sub).
func (p *Pythia) shardPhase(ops []Op, workers int) ([]OpResult, [][]delta) {
	results := make([]OpResult, len(ops))

	// Intent arrival ordinals depend only on the batch position, so the
	// pending lists stay seq-ascending identically at any shard count.
	seqBase := p.nextSeq
	p.nextSeq = seqBase + uint64(len(ops))

	deltas := make([][]delta, len(p.shards))
	if len(p.shards) == 1 {
		deltas[0] = p.runShard(0, ops, nil, seqBase, results)
		return results, deltas
	}

	// Route operations to their home shards.
	byShard := make([][]int, len(p.shards))
	for i := range ops {
		s := ops[i].job() % len(p.shards)
		byShard[s] = append(byShard[s], i)
	}
	if workers <= 1 {
		for si, idx := range byShard {
			if len(idx) > 0 {
				deltas[si] = p.runShard(si, ops, idx, seqBase, results)
			}
		}
		return results, deltas
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for si, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(si int, idx []int) {
			defer wg.Done()
			deltas[si] = p.runShard(si, ops, idx, seqBase, results)
			<-sem
		}(si, idx)
	}
	wg.Wait()
	return results, deltas
}

// runShard is one shard's phase over the operations idx lists, in batch
// order; a nil idx means every operation of the batch. It fills those
// operations' results and returns the shard's delta stream.
func (p *Pythia) runShard(si int, ops []Op, idx []int, seqBase uint64, results []OpResult) []delta {
	sh := p.shards[si]
	log := deltaLog{ds: sh.deltaBuf[:0], events: p.fl != nil}
	apply := func(i int) {
		log.op, log.sub = i, 0
		results[i] = p.applyShardOp(sh, &ops[i], seqBase+uint64(i), &log)
	}
	if idx == nil {
		for i := range ops {
			apply(i)
		}
	} else {
		for _, i := range idx {
			apply(i)
		}
	}
	sh.deltaBuf = log.ds
	return log.ds
}

// mergeDeltas is ApplyBatch's commit: it min-key merges the per-shard delta
// streams back into batch order, consuming them, and applies each entry —
// a booking to the placement plane, an event to the flight sink.
func (p *Pythia) mergeDeltas(deltas [][]delta) {
	for {
		best := -1
		for i, ds := range deltas {
			if len(ds) > 0 && (best < 0 || deltaLess(&ds[0], &deltas[best][0])) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		switch d := &deltas[best][0]; {
		case d.ev != nil:
			p.record(*d.ev)
		case d.unbook:
			p.unbookGlobal(d.fk, d.b)
		default:
			p.bookGlobal(d.fk, d.b)
		}
		deltas[best] = deltas[best][1:]
	}
}

// applyShardOp runs one operation's shard-local half; its placement-plane
// deltas and flight events go to log.
func (p *Pythia) applyShardOp(sh *shard, op *Op, seq uint64, log *deltaLog) OpResult {
	switch op.Kind {
	case OpIntent:
		return p.ingestIntent(sh, op.Intent, seq, log)
	case OpReducerUp:
		p.reducerUpLocal(sh, op.Reducer, log)
	case OpJobDone:
		p.jobDoneLocal(sh, op.Job, log)
	}
	return OpAccepted
}
