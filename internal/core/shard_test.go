package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"pythia/internal/hadoop"
	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

// placementDigest fingerprints the collector's placement-decision stream:
// every place() call folds (src, dst, path links) into an FNV-1a hash, so
// two runs share a digest iff they made identical decisions in identical
// order.
type placementDigest struct {
	h uint64
	n int
}

func newPlacementDigest() *placementDigest { return &placementDigest{h: 14695981039346656037} }

func (d *placementDigest) observe(src, dst topology.NodeID, path topology.Path) {
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			d.h ^= (v >> (8 * i)) & 0xff
			d.h *= 1099511628211
		}
	}
	mix(uint64(src))
	mix(uint64(dst))
	for _, l := range path.Links {
		mix(uint64(l))
	}
	mix(0xffffffffffffffff) // record separator
	d.n++
}

// shardedRun drives a three-job staggered workload through the full
// simulated stack at the given shard count and returns (job durations,
// stats, placement digest).
func shardedRun(t *testing.T, shards int) ([]sim.Duration, CollectorStats, uint64) {
	t.Helper()
	s := newStack(Config{Aggregate: true, UseCriticality: true, Shards: shards,
		BookingTTL: 40}, hadoop.Config{})
	dig := newPlacementDigest()
	s.py.SetPlacementHook(dig.observe)
	var jobs []*hadoop.Job
	submit := func(at float64, spec *hadoop.JobSpec) {
		s.eng.At(sim.Time(at), func() {
			j, err := s.clus.Submit(spec)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			jobs = append(jobs, j)
		})
	}
	submit(0, workload.Sort(2*workload.GB, 8, 7))
	submit(3, workload.Nutch(1*workload.GB, 6, 11))
	submit(5, workload.Sort(1*workload.GB, 4, 13))
	s.eng.Run()
	var durs []sim.Duration
	for _, j := range jobs {
		if !j.Done {
			t.Fatalf("job %s did not finish (shards=%d)", j.Spec.Name, shards)
		}
		durs = append(durs, j.Duration())
	}
	return durs, s.py.Stats(), dig.h
}

// TestShardCountInvariantSimRun proves the sharded collector is invisible
// to results in per-message (simulation) mode: the same seeded workload
// produces bit-identical job durations, counters, and placement streams at
// 1, 2, and 8 shards.
func TestShardCountInvariantSimRun(t *testing.T) {
	refDurs, refStats, refDig := shardedRun(t, 1)
	for _, shards := range []int{2, 8} {
		durs, st, dig := shardedRun(t, shards)
		st.Shards = refStats.Shards // the one field that legitimately differs
		if len(durs) != len(refDurs) {
			t.Fatalf("shards=%d: %d jobs vs %d", shards, len(durs), len(refDurs))
		}
		for i := range durs {
			if durs[i] != refDurs[i] {
				t.Errorf("shards=%d: job %d duration %v != %v", shards, i, durs[i], refDurs[i])
			}
		}
		if st != refStats {
			t.Errorf("shards=%d: stats diverged:\n got %+v\nwant %+v", shards, st, refStats)
		}
		if dig != refDig {
			t.Errorf("shards=%d: placement digest %x != %x", shards, dig, refDig)
		}
	}
}

// batchTrace synthesizes a deterministic op stream exercising every op
// kind plus the dedup, duplicate-booking, and deferred paths across many
// interleaved jobs.
func batchTrace(hosts []topology.NodeID, jobs, mapsPer, reducesPer int, seed uint64) []Op {
	rng := stats.NewRNG(seed)
	var ops []Op
	for j := 0; j < jobs; j++ {
		// Half the reducers come up before the intents (immediate
		// resolution), half after (deferred path).
		for r := 0; r < reducesPer/2; r++ {
			ops = append(ops, Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{
				Job: j, Reduce: r, Host: hosts[rng.Intn(len(hosts))]}})
		}
	}
	for m := 0; m < mapsPer; m++ {
		for j := 0; j < jobs; j++ {
			bytes := make([]float64, reducesPer)
			for r := range bytes {
				bytes[r] = 1e6 + float64(rng.Intn(20))*1e6
			}
			in := instrument.Intent{Job: j, Map: m, Attempt: 0,
				SrcHost: hosts[rng.Intn(len(hosts))], PredictedWireBytes: bytes}
			ops = append(ops, Op{Kind: OpIntent, Intent: in})
			if rng.Float64() < 0.2 {
				ops = append(ops, Op{Kind: OpIntent, Intent: in}) // exact dup
			}
			if rng.Float64() < 0.2 {
				// Speculative re-attempt from another host: replaces the
				// (job, map, reducer) bookings.
				in2 := in
				in2.Attempt = 1
				in2.SrcHost = hosts[rng.Intn(len(hosts))]
				ops = append(ops, Op{Kind: OpIntent, Intent: in2})
			}
		}
	}
	for j := 0; j < jobs; j++ {
		for r := reducesPer / 2; r < reducesPer; r++ {
			ops = append(ops, Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{
				Job: j, Reduce: r, Host: hosts[rng.Intn(len(hosts))]}})
		}
	}
	for j := 0; j < jobs; j++ {
		ops = append(ops, Op{Kind: OpJobDone, Job: j})
	}
	return ops
}

// batchRun replays the trace through ApplyBatch in fixed-size chunks on a
// collector with no attached Hadoop cluster (the online-service shape) and
// returns (per-op results digest, stats, placement digest, leak gauge).
func batchRun(t *testing.T, ops []Op, shards, workers, chunk int) (uint64, CollectorStats, uint64, int) {
	t.Helper()
	eng := sim.NewEngine()
	g, _, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	py := New(eng, net, ofc, Config{Aggregate: true, UseCriticality: true, Shards: shards})
	dig := newPlacementDigest()
	py.SetPlacementHook(dig.observe)
	resH := fnv.New64a()
	for at := 0; at < len(ops); at += chunk {
		end := at + chunk
		if end > len(ops) {
			end = len(ops)
		}
		for _, r := range py.ApplyBatch(ops[at:end], workers) {
			fmt.Fprintf(resH, "%d,", r)
		}
	}
	return resH.Sum64(), py.Stats(), dig.h, py.OutstandingTotal()
}

// TestApplyBatchShardAndWorkerInvariance proves the batch executor's
// determinism contract: identical results, stats, and placement streams at
// shard counts 1/2/8 and worker counts 1/2/4, with zero leaked bookings
// once every job is retired.
func TestApplyBatchShardAndWorkerInvariance(t *testing.T) {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	ops := batchTrace(hosts, 9, 6, 4, 42)
	refRes, refStats, refDig, refLeaks := batchRun(t, ops, 1, 1, 17)
	if refLeaks != 0 {
		t.Fatalf("reference run leaked %d bookings", refLeaks)
	}
	if refStats.DedupHits == 0 || refStats.DuplicateIntents == 0 || refStats.IntentsDeferred == 0 {
		t.Fatalf("trace does not exercise dedup/duplicate/deferred paths: %+v", refStats)
	}
	for _, shards := range []int{2, 8} {
		for _, workers := range []int{1, 2, 4} {
			res, st, dig, leaks := batchRun(t, ops, shards, workers, 17)
			st.Shards = refStats.Shards // the one field that legitimately differs
			if res != refRes {
				t.Errorf("shards=%d workers=%d: op results diverged", shards, workers)
			}
			if st != refStats {
				t.Errorf("shards=%d workers=%d: stats diverged:\n got %+v\nwant %+v",
					shards, workers, st, refStats)
			}
			if dig != refDig {
				t.Errorf("shards=%d workers=%d: placement digest %x != %x",
					shards, workers, dig, refDig)
			}
			if leaks != 0 {
				t.Errorf("shards=%d workers=%d: %d leaked bookings", shards, workers, leaks)
			}
		}
	}
}

// TestApplyBatchDispositions pins the per-op result semantics.
func TestApplyBatchDispositions(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	py := New(eng, net, ofc, Config{Aggregate: true, Shards: 4})
	in := instrument.Intent{Job: 1, Map: 0, SrcHost: hosts[0],
		PredictedWireBytes: []float64{5e6, 5e6}}
	res := py.ApplyBatch([]Op{
		{Kind: OpIntent, Intent: in}, // no reducers known yet -> deferred
		{Kind: OpIntent, Intent: in}, // exact duplicate
		{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: 1, Reduce: 0, Host: hosts[5]}},
		{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: 1, Reduce: 1, Host: hosts[6]}},
		{Kind: OpJobDone, Job: 1},
	}, 2)
	want := []OpResult{OpDeferred, OpDuplicate, OpAccepted, OpAccepted, OpAccepted}
	for i, r := range res {
		if r != want[i] {
			t.Errorf("op %d: result %v, want %v", i, r, want[i])
		}
	}
	if n := py.OutstandingTotal(); n != 0 {
		t.Errorf("leaked %d bookings after JobDone", n)
	}
	if py.PendingUnknownDestinations() != 0 {
		t.Errorf("pending intents survived JobDone")
	}
}

// TestShardStats: the per-shard snapshot's counters sum to the aggregate
// stats and its gauges reflect live shard state.
func TestShardStats(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	py := New(eng, net, ofc, Config{Aggregate: true, Shards: 4})
	in := instrument.Intent{Job: 1, Map: 0, SrcHost: hosts[0],
		PredictedWireBytes: []float64{5e6, 5e6}}
	py.ApplyBatch([]Op{
		{Kind: OpIntent, Intent: in},
		{Kind: OpIntent, Intent: in}, // dedup hit
		{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: 1, Reduce: 0, Host: hosts[5]}},
		{Kind: OpIntent, Intent: instrument.Intent{Job: 2, Map: 0, SrcHost: hosts[1],
			PredictedWireBytes: []float64{3e6}}}, // stays pending: reducer unknown
	}, 2)
	per := py.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d shards, want 4", len(per))
	}
	agg := py.Stats()
	var sum ShardStat
	var pending, booked int
	for _, s := range per {
		sum.IntentsReceived += s.IntentsReceived
		sum.IntentsDeferred += s.IntentsDeferred
		sum.DedupHits += s.DedupHits
		sum.DuplicateIntents += s.DuplicateIntents
		sum.ExpiredBookings += s.ExpiredBookings
		sum.ExpiredIntents += s.ExpiredIntents
		pending += s.PendingIntents
		booked += s.BookedFlows
	}
	if sum.IntentsReceived != agg.IntentsReceived || sum.DedupHits != agg.DedupHits ||
		sum.IntentsDeferred != agg.IntentsDeferred {
		t.Fatalf("shard sums %+v disagree with aggregate %+v", sum, agg)
	}
	if sum.DedupHits == 0 {
		t.Fatal("trace should have produced a dedup hit")
	}
	if pending == 0 {
		t.Fatal("job 2's intent should be pending on some shard")
	}
	if booked == 0 {
		t.Fatal("job 1's resolved demand should be booked on some shard")
	}
	// Jobs land on different shards (job % shards).
	if per[1%4].IntentsReceived == 0 || per[2%4].PendingIntents == 0 {
		t.Fatalf("per-shard attribution wrong: %+v", per)
	}
	py.ApplyBatch([]Op{{Kind: OpJobDone, Job: 1}, {Kind: OpJobDone, Job: 2}}, 2)
	for i, s := range py.ShardStats() {
		if s.PendingIntents != 0 || s.BookedFlows != 0 {
			t.Fatalf("shard %d retains state after JobDone: %+v", i, s)
		}
	}
}

// TestNoStateLeaksOnceEveryJobRetires: after every job of a 200-job trace
// (duplicates, replaced bookings, deferred intents) has been retired, no
// shard holds a job and both gauges read zero — the invariant the flat maps
// could only check by scanning.
func TestNoStateLeaksOnceEveryJobRetires(t *testing.T) {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	ops := batchTrace(hosts, 200, 4, 4, 7)
	for _, shards := range []int{1, 2, 8} {
		eng := sim.NewEngine()
		g, _, _ := topology.TwoRack(5, 2, topology.Gbps)
		net := netsim.New(eng, g)
		py := New(eng, net, openflow.NewController(eng, net, 0), Config{Aggregate: true, Shards: shards})
		peak := 0
		for at := 0; at < len(ops); at += 23 {
			py.ApplyBatch(ops[at:min(at+23, len(ops))], 4)
			peak = max(peak, py.totalJobs())
		}
		if peak != 200 {
			t.Fatalf("shards=%d: job table peaked at %d jobs, want 200", shards, peak)
		}
		for i, sh := range py.shards {
			if len(sh.jobs) != 0 || sh.booked != 0 || sh.pending != 0 {
				t.Errorf("shards=%d: shard %d retains %d jobs, booked=%d pending=%d",
					shards, i, len(sh.jobs), sh.booked, sh.pending)
			}
		}
		if n := py.liveAggregates(); n != 0 {
			t.Errorf("shards=%d: %d aggregates outlive their jobs", shards, n)
		}
	}
}
