package core

import "time"

// ApplyBatch ingests a batch of collector operations in one pass:
//
//  1. Ingest — each operation, in batch order, runs whole: its job-local
//     half on its job's home shard (dedup, reducer placements, deferred
//     intents, bookings, barrier backlog), and with it, as each booking is
//     made or released, the placement-plane half — the charge to the pair
//     aggregate — and its collector flight events.
//  2. Place — one placement pass (allocate) for the whole batch.
//
// It is the collector's only ingestion path: ShuffleIntent, ReducerUp and
// JobDone are batches of one. workers is ignored; the parameter stays until
// the benchmark stops passing it (ROADMAP item 12).
//
// Determinism contract: for a fixed operation sequence and fixed batch
// boundaries, the results, all collector state, every placement decision
// and every collector flight event are bit-identical at any shard count.
// The job-local half never reads the pair aggregates and the placement
// plane never reads job state, so the pass is the one serial order every
// shard layout shares. Batch boundaries do matter: each batch ends in one
// placement pass.
//
// Results are positional with ops. The caller must not invoke any other
// collector method, nor advance the engine, while ApplyBatch runs.
func (p *Pythia) ApplyBatch(ops []Op, workers int) []OpResult {
	if len(ops) == 0 {
		return nil
	}
	t0 := time.Now()
	results := p.ingest(ops)
	t1 := time.Now()
	candidates := p.allocate()
	p.commit = CommitStats{
		Ingest:     t1.Sub(t0),
		Place:      time.Since(t1),
		Candidates: candidates,
		Unplaced:   len(p.unplaced),
	}
	return results
}

// CommitStats describes one ApplyBatch: the wall time of its two legs and
// what the placement pass saw. Wall times are observation only; no decision
// reads them.
type CommitStats struct {
	Ingest time.Duration // every operation, job-local and placement-plane halves
	Place  time.Duration // placement pass
	// Candidates is how many unplaced aggregates the placement pass scored;
	// Unplaced how many it left without a path — degraded to the default
	// pipeline or unroutable. Persistently non-zero means pairs Pythia
	// cannot steer.
	Candidates, Unplaced int
}

// LastCommit reports the latest non-empty ApplyBatch. Like every collector
// method it must not run concurrently with ApplyBatch.
func (p *Pythia) LastCommit() CommitStats { return p.commit }

// ingest is ApplyBatch's first leg: every operation, in batch order, and its
// positional result. Each operation takes the next intent arrival ordinal,
// so the pending lists stay seq-ascending at any shard count.
func (p *Pythia) ingest(ops []Op) []OpResult {
	results := make([]OpResult, len(ops))
	for i := range ops {
		op := &ops[i]
		sh := p.shardOf(op.job())
		switch op.Kind {
		case OpIntent:
			results[i] = p.ingestIntent(sh, op.Intent, p.nextSeq)
		case OpReducerUp:
			p.ingestReducerUp(sh, op.Reducer)
		case OpJobDone:
			p.ingestJobDone(sh, op.Job)
		}
		p.nextSeq++
	}
	return results
}
