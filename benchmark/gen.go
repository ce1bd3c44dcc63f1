package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"pythia/internal/serve"
	"pythia/internal/stats"
	"pythia/internal/workload"
)

// The generator synthesizes the shuffle-intent stream a cluster's
// instrumentation would emit, as a stationary process: a sliding window of
// liveJobs jobs from the open-loop population is always in flight, each connection round-robins
// over its own jobs in runs of runOps operations, and a job that finishes
// (its done_jobs op is emitted) is replaced by the next arrival. Stationary
// matters because collector cost grows with live state: a trace that only
// admits jobs measures a different system every second.
const (
	liveJobs = 256 // W: jobs in flight across both connections
	conns    = 2   // client connections = cores of the reference box; fixed so numbers compare across boxes
	runOps   = 8   // consecutive ops one job contributes per round-robin turn
)

// wireOp is one protocol operation of a job, in the job's canonical order
// (reducer placements, then map intents, then the retirement).
type wireOp struct {
	reducer *serve.WireReducerUp
	intent  *serve.WireIntent
	done    bool
}

// jobSpan locates a job in its connection's request sequence, so the drain
// can tell which jobs a partially consumed pool left live.
type jobSpan struct {
	id       int
	firstReq int // request carrying the job's first op (the pool's length if it ended first)
	doneReq  int // request carrying its done_jobs op; -1 if the pool ended first
}

// connPool is one connection's pre-marshalled request sequence.
type connPool struct {
	bodies  [][]byte
	ops     []int // operations per request
	intents []int // intents per request
	jobs    []jobSpan
}

// pool is a workload's whole input: built once from the seed before the
// server exists, so the measured loop only writes bytes.
type pool struct {
	chunk int
	conn  [conns]connPool
}

func (p *pool) totalOps() int {
	n := 0
	for c := range p.conn {
		for _, o := range p.conn[c].ops {
			n += o
		}
	}
	return n
}

// interleaved returns the first n requests of the pool in the order a
// sequential client alternating between the connections would send them.
func (p *pool) interleaved(n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; len(out) < n; i++ {
		took := false
		for c := range p.conn {
			if i < len(p.conn[c].bodies) && len(out) < n {
				out = append(out, p.conn[c].bodies[i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// liveAfter lists the jobs connection c has admitted but not retired once
// its first sent requests are acknowledged.
func (p *pool) liveAfter(c, sent int) []int {
	var live []int
	for _, j := range p.conn[c].jobs {
		if j.firstReq < sent && (j.doneReq < 0 || j.doneReq >= sent) {
			live = append(live, j.id)
		}
	}
	return live
}

// populationSeed fixes the job population: which jobs arrive, in what order,
// with how many maps and reducers and what predicted bytes. The run's seed
// decides where every reducer and mapper runs, so two seeds give different
// requests, host pairs and placements over the same population. The
// population is not seeded per run because job sizes are heavy-tailed: the
// handful of largest jobs among the 256 live ones sets the live-booking
// count, and with it the collector's per-op cost, so per-seed populations
// spread throughput by 10 % or more before the box adds any noise of its own.
const populationSeed = 1

// jobSource hands out job j's operations. Jobs are drawn from one open-loop
// stream in arrival order and memoized, because the two connections consume
// their halves (j%conns == c) at different paces.
type jobSource struct {
	stream   *workload.Stream
	seed     uint64
	numHosts int
	memo     map[int][]wireOp
	drawn    int
}

func newJobSource(seed uint64, numHosts int) *jobSource {
	return &jobSource{
		stream:   workload.OpenLoop(workload.OpenLoopConfig{BaseRateJobsPerSec: 0.2, Seed: populationSeed}),
		seed:     seed,
		numHosts: numHosts,
		memo:     map[int][]wireOp{},
	}
}

func (s *jobSource) take(j int) []wireOp {
	for s.drawn <= j {
		id := s.drawn
		spec := s.stream.Next().Spec
		rng := stats.NewRNG(s.seed).Split(0x5e17e).Split(uint64(id))
		ops := make([]wireOp, 0, spec.NumReduces+spec.NumMaps+1)
		for r := 0; r < spec.NumReduces; r++ {
			ops = append(ops, wireOp{reducer: &serve.WireReducerUp{Job: id, Reduce: r, Host: rng.Intn(s.numHosts)}})
		}
		for m := 0; m < spec.NumMaps; m++ {
			ops = append(ops, wireOp{intent: &serve.WireIntent{Job: id, Map: m,
				SrcHost: rng.Intn(s.numHosts), PredictedWireBytes: spec.MapOutputs[m]}})
		}
		ops = append(ops, wireOp{done: true})
		s.memo[id] = ops
		s.drawn++
	}
	ops := s.memo[j]
	delete(s.memo, j)
	return ops
}

// buildPool generates at least wantOps operations split over the
// connections, packed into requests of chunk operations. Job draws are
// sequential (one stream); marshalling, the bulk of the cost, runs on one
// goroutine per connection fed through a short channel, so request structs
// die young and the build's peak memory is the bodies themselves.
func buildPool(seed uint64, numHosts, chunk, wantOps int) (*pool, error) {
	p := &pool{chunk: chunk}
	src := newJobSource(seed, numHosts)
	type liveJob struct {
		span int // index into connPool.jobs
		ops  []wireOp
	}
	var wg sync.WaitGroup
	var errs [conns]error
	for c := 0; c < conns; c++ {
		cp := &p.conn[c]
		// Buffer of 64: enough that the generator never waits on a
		// marshaller mid-burst, small enough to hold under a megabyte.
		queue := make(chan *serve.IngestRequest, 64)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for req := range queue {
				b, err := json.Marshal(req)
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
				cp.bodies = append(cp.bodies, b)
			}
		}(c)

		next := c // next job ID of this connection's parity
		admit := func() liveJob {
			cp.jobs = append(cp.jobs, jobSpan{id: next, firstReq: -1, doneReq: -1})
			lj := liveJob{span: len(cp.jobs) - 1, ops: src.take(next)}
			next += conns
			return lj
		}
		live := make([]liveJob, liveJobs/conns)
		for i := range live {
			live[i] = admit()
		}
		req := &serve.IngestRequest{}
		n, nIntents := 0, 0
		for at, emitted := 0, 0; emitted < wantOps/conns; at = (at + 1) % len(live) {
			lj := &live[at]
			span := &cp.jobs[lj.span]
			for i := 0; i < runOps && len(lj.ops) > 0; i++ {
				op := lj.ops[0]
				lj.ops = lj.ops[1:]
				if span.firstReq < 0 {
					span.firstReq = len(cp.ops)
				}
				switch {
				case op.reducer != nil:
					req.Reducers = append(req.Reducers, *op.reducer)
				case op.intent != nil:
					req.Intents = append(req.Intents, *op.intent)
					nIntents++
				default:
					req.DoneJobs = append(req.DoneJobs, span.id)
					span.doneReq = len(cp.ops)
				}
				n++
				emitted++
				if n == chunk {
					queue <- req
					cp.ops = append(cp.ops, n)
					cp.intents = append(cp.intents, nIntents)
					req, n, nIntents = &serve.IngestRequest{}, 0, 0
				}
			}
			if len(lj.ops) == 0 {
				*lj = admit()
			}
		}
		close(queue)
		// The trailing partial request is dropped: every pooled request is
		// full, so per-request costs compare. Jobs it would have started or
		// retired are marked accordingly.
		for i := range cp.jobs {
			j := &cp.jobs[i]
			if j.firstReq < 0 {
				j.firstReq = len(cp.ops)
			}
			if j.doneReq >= len(cp.ops) {
				j.doneReq = -1
			}
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("marshalling pool request: %w", err)
		}
	}
	return p, nil
}
