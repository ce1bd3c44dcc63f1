package core

import (
	"fmt"
	"testing"
	"time"

	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

// Complexity guard for the per-job table: a collector operation must cost
// O(its own job), whatever else is live in the shard. The fixtures hold a
// fixed-size victim job and a varying number of unrelated live jobs, all on
// one shard so nothing hides behind the partitioning.

const (
	victimMaps, victimReducers = 8, 8
	bystanderMaps              = 8 // bookings per unrelated job: 8 maps x 4 reducers, half of them deferred
)

// guardFixture is a bare single-shard collector with live unrelated jobs
// 0..live-1; the victim is job `live`.
type guardFixture struct {
	py     *Pythia
	hosts  []topology.NodeID
	victim int
}

func newGuardFixture(live int) *guardFixture {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	py := New(eng, net, openflow.NewController(eng, net, 0), Config{Aggregate: true, Shards: 1})
	f := &guardFixture{py: py, hosts: hosts, victim: live}
	var ops []Op
	for j := 0; j < live; j++ {
		// Reducers 0 and 1 are placed, 2 and 3 never are: every bystander
		// holds bookings and deferred intents.
		for r := 0; r < 2; r++ {
			ops = append(ops, Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: j, Reduce: r, Host: hosts[(j+r)%len(hosts)]}})
		}
		ops = append(ops, f.intents(j, bystanderMaps, 4)...)
	}
	py.ApplyBatch(ops, 1)
	return f
}

func (f *guardFixture) intents(job, maps, reducers int) []Op {
	ops := make([]Op, maps)
	for m := range ops {
		bytes := make([]float64, reducers)
		for r := range bytes {
			bytes[r] = float64(1+m+r) * 1e6
		}
		ops[m] = Op{Kind: OpIntent, Intent: instrument.Intent{Job: job, Map: m,
			SrcHost: f.hosts[(job+m+3)%len(f.hosts)], PredictedWireBytes: bytes}}
	}
	return ops
}

func (f *guardFixture) reducerUps(job, reducers int) []Op {
	ops := make([]Op, reducers)
	for r := range ops {
		ops[r] = Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: job, Reduce: r, Host: f.hosts[(job+r)%len(f.hosts)]}}
	}
	return ops
}

// jobDoneCycle admits the victim (untimed), then returns how long retiring
// it took: one JobDone over victimMaps x victimReducers bookings.
func (f *guardFixture) jobDoneCycle() time.Duration {
	f.py.ApplyBatch(append(f.reducerUps(f.victim, victimReducers), f.intents(f.victim, victimMaps, victimReducers)...), 1)
	done := []Op{{Kind: OpJobDone, Job: f.victim}}
	t0 := time.Now()
	f.py.ApplyBatch(done, 1)
	return time.Since(t0)
}

// reducerUpCycle defers the victim's intents (untimed), then returns how
// long placing its reducers — resolving every deferred demand — took. The
// victim is retired again before returning.
func (f *guardFixture) reducerUpCycle() time.Duration {
	f.py.ApplyBatch(f.intents(f.victim, victimMaps, victimReducers), 1)
	ups := f.reducerUps(f.victim, victimReducers)
	t0 := time.Now()
	f.py.ApplyBatch(ups, 1)
	d := time.Since(t0)
	f.py.ApplyBatch([]Op{{Kind: OpJobDone, Job: f.victim}}, 1)
	return d
}

func benchCycle(b *testing.B, cycle func(*guardFixture) time.Duration) {
	for _, live := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			f := newGuardFixture(live)
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += cycle(f)
			}
			// Only the guarded operation counts; ns/op would include the
			// untimed set-up half of each cycle.
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "guarded-ns/op")
		})
	}
}

func BenchmarkApplyBatchJobDone(b *testing.B) {
	benchCycle(b, (*guardFixture).jobDoneCycle)
}

func BenchmarkApplyBatchReducerUp(b *testing.B) {
	benchCycle(b, (*guardFixture).reducerUpCycle)
}

// guardedCost is the best mean of a few rounds, which sheds scheduler noise
// without hiding a real dependence on live state.
func guardedCost(f *guardFixture, cycle func(*guardFixture) time.Duration) time.Duration {
	best := time.Duration(1 << 62)
	for round := 0; round < 5; round++ {
		var total time.Duration
		const iters = 100
		for i := 0; i < iters; i++ {
			total += cycle(f)
		}
		if mean := total / iters; mean < best {
			best = mean
		}
	}
	return best
}

// TestJobDoneCostIndependentOfLiveJobs: with 256x the unrelated live state,
// retiring a job and placing its reducers may cost at most 3x as much (cache
// and map-size effects). With the flat shard-wide maps both were two orders
// of magnitude apart.
func TestJobDoneCostIndependentOfLiveJobs(t *testing.T) {
	small, large := newGuardFixture(16), newGuardFixture(4096)
	if got := large.py.totalBooked(); got < 4096*bystanderMaps {
		t.Fatalf("large fixture holds %d bookings; the guard needs real live state", got)
	}
	for _, c := range []struct {
		name  string
		cycle func(*guardFixture) time.Duration
	}{
		{"JobDone", (*guardFixture).jobDoneCycle},
		{"ReducerUp", (*guardFixture).reducerUpCycle},
	} {
		lo, hi := guardedCost(small, c.cycle), guardedCost(large, c.cycle)
		t.Logf("%s: %v at live=16, %v at live=4096", c.name, lo, hi)
		if hi > 3*lo {
			t.Errorf("%s costs %v with 4096 live jobs but %v with 16: it scales with the shard, not the job", c.name, hi, lo)
		}
	}
}

// TestResolvedIntentPathAllocs pins the hot path of a serving batch: intents
// whose reducers are all placed. Each may allocate its booking row and its
// share of amortized map and delta-log growth — no per-intent pending record,
// unresolved map, key sort or closure.
func TestResolvedIntentPathAllocs(t *testing.T) {
	const batch, runs = 16, 50
	f := newGuardFixture(16)
	f.py.ApplyBatch(f.reducerUps(f.victim, victimReducers), 1)
	batches := make([][]Op, runs+1) // AllocsPerRun warms up with one extra call
	for i := range batches {
		ops := f.intents(f.victim, batch, victimReducers)
		for j := range ops {
			ops[j].Intent.Map = i*batch + j
		}
		batches[i] = ops
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, r := range f.py.ApplyBatch(batches[next], 1) {
			if r != OpAccepted {
				t.Fatalf("intent not fully resolved: %v", r)
			}
		}
		next++
	})
	t.Logf("%.1f allocs per %d-intent batch", allocs, batch)
	// Measured 18: 16 booking rows, the results slice and the list of shard
	// streams; the delta log's backing array is reused across batches. (21
	// while the shard phase built a closure and the merge a head index, 23
	// while the single-shard phase built an index of the batch.)
	limit := float64(batch + 6)
	if raceBuild {
		limit = 2*batch + 6 // 37 measured: each intent escapes once more
	}
	if allocs > limit {
		t.Errorf("%.1f allocs per %d-intent batch, want at most %.0f", allocs, batch, limit)
	}
}

// Complexity guard for the commit phase: what ApplyBatch's serial half costs
// must follow what the batch changed, not how many pair aggregates are live.
// The per-job guard above runs on TwoRack(5, 2) — 90 host pairs — and cannot
// see a cost that grows with the fabric. This fixture is a k=8 fat-tree (128
// hosts, 16 256 host pairs) holding a varying number of live, placed
// bystander aggregates. The victim's 128 pairs are among them at every size,
// so its bookings charge and release placed aggregates and the placement
// pass has nothing to place: what is timed is the shard phase, the delta
// merge and the pass finding that out. (Scoring a new pair legitimately costs
// O(aggregates on its links), DESIGN.md §12.2, and would drown the signal.)

const (
	commitVictimJob      = 1
	commitVictimMaps     = 16 // one intent each, from hosts[0..16)
	commitVictimReducers = 8  // on hosts[64..72)
)

// commitFixture is a bare single-shard collector on a k=8 fat-tree whose
// bystander job 0 holds `live` placed pair aggregates.
type commitFixture struct {
	py    *Pythia
	hosts []topology.NodeID
	live  int
}

// reducerHost is where reducer r of either job runs: hosts[64], hosts[65], …
// wrapping, so the first 64 reducers share no host with the first 64 maps.
func (f *commitFixture) reducerHost(r int) topology.NodeID { return f.hosts[(64+r)%len(f.hosts)] }

func (f *commitFixture) reducerUps(job, reducers int) []Op {
	ops := make([]Op, reducers)
	for r := range ops {
		ops[r] = Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: job, Reduce: r, Host: f.reducerHost(r)}}
	}
	return ops
}

// newCommitFixture books bystander demand from hosts[0..maps) to `reducers`
// reducers: maps x reducers placed aggregates, less the same-host pairs.
func newCommitFixture(maps, reducers int) *commitFixture {
	eng := sim.NewEngine()
	g, hosts := topology.FatTree(8, 4, topology.Gbps)
	net := netsim.New(eng, g)
	py := New(eng, net, openflow.NewController(eng, net, 0), Config{Aggregate: true, Shards: 1})
	f := &commitFixture{py: py, hosts: hosts}
	ops := f.reducerUps(0, reducers)
	for m := 0; m < maps; m++ {
		bytes := make([]float64, reducers)
		for r := range bytes {
			bytes[r] = float64(1+(m+r)%7) * 1e6
		}
		ops = append(ops, Op{Kind: OpIntent, Intent: instrument.Intent{Job: 0, Map: m, SrcHost: hosts[m], PredictedWireBytes: bytes}})
	}
	py.ApplyBatch(ops, 1)
	eng.RunUntil(1) // the rule installs land
	f.live = py.liveAggregates()
	return f
}

// victimCycle places the victim's reducers (untimed), then returns how long
// booking its 16 intents and retiring it took.
func (f *commitFixture) victimCycle() time.Duration {
	f.py.ApplyBatch(f.reducerUps(commitVictimJob, commitVictimReducers), 1)
	book := make([]Op, commitVictimMaps)
	for m := range book {
		bytes := make([]float64, commitVictimReducers)
		for r := range bytes {
			bytes[r] = float64(1+m+r) * 1e6
		}
		book[m] = Op{Kind: OpIntent, Intent: instrument.Intent{Job: commitVictimJob, Map: m,
			SrcHost: f.hosts[m], PredictedWireBytes: bytes}}
	}
	done := []Op{{Kind: OpJobDone, Job: commitVictimJob}}
	t0 := time.Now()
	f.py.ApplyBatch(book, 1)
	f.py.ApplyBatch(done, 1)
	return time.Since(t0)
}

// commitCost is the best mean of a few rounds of victim cycles.
func commitCost(f *commitFixture) time.Duration {
	best := time.Duration(1 << 62)
	for round := 0; round < 5; round++ {
		var total time.Duration
		const iters = 100
		for i := 0; i < iters; i++ {
			total += f.victimCycle()
		}
		if mean := total / iters; mean < best {
			best = mean
		}
	}
	return best
}

// TestCommitCostIndependentOfLiveAggregates: with 60x the live placed
// aggregates, booking and retiring the same 16-intent job may cost at most 3x
// as much (cache effects). When the placement pass found its
// candidates by scanning every aggregate, the two scans of a cycle cost
// several times the rest of it.
func TestCommitCostIndependentOfLiveAggregates(t *testing.T) {
	small, large := newCommitFixture(16, 16), newCommitFixture(128, 128)
	if small.live > 256 || large.live < 15000 {
		t.Fatalf("fixtures hold %d and %d live aggregates; the guard needs <= 256 and >= 15000", small.live, large.live)
	}
	for _, f := range []*commitFixture{small, large} {
		placed, demand := f.py.AggregatesPlaced, f.py.OutstandingDemandBits()
		f.victimCycle()
		if f.py.AggregatesPlaced != placed || f.py.liveAggregates() != f.live || len(f.py.unplaced) != 0 ||
			f.py.OutstandingDemandBits() != demand || f.py.OutstandingBookings(commitVictimJob) != 0 {
			t.Fatalf("live=%d: a victim cycle must charge and release placed aggregates only: %d placements, %d aggregates, %d unplaced",
				f.live, f.py.AggregatesPlaced-placed, f.py.liveAggregates(), len(f.py.unplaced))
		}
	}
	lo, hi := commitCost(small), commitCost(large)
	t.Logf("victim cycle: %v at live=%d, %v at live=%d", lo, small.live, hi, large.live)
	if hi > 3*lo {
		t.Errorf("victim cycle costs %v with %d live aggregates but %v with %d: the commit phase scales with the fabric, not the batch",
			hi, large.live, lo, small.live)
	}
}

func BenchmarkApplyBatchLiveAggregates(b *testing.B) {
	for _, n := range []int{16, 64, 128} { // 256, 4096 and 16 256 live aggregates
		f := newCommitFixture(n, n)
		b.Run(fmt.Sprintf("live=%d", f.live), func(b *testing.B) {
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += f.victimCycle()
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "guarded-ns/op")
		})
	}
}

// stationaryStream is the op stream of a serving collector in steady state,
// shaped like the serving benchmark's generator: a sliding window of
// stationaryLive jobs from the open-loop population is always live, each
// placing its reducers, then booking its maps' intents, then retiring with
// JobDone, and a retired job is replaced by the next one. Live jobs take
// turns in runs of stationaryRun ops, so a batch mixes jobs the way
// concurrent clients do. Job sizes are heavy-tailed, so the window holds
// jobs in every phase. The first stationaryJobs jobs are drawn once; later
// jobs repeat them under new IDs.
type stationaryStream struct {
	tmpl [stationaryJobs][]Op // job j's ops, by j mod stationaryJobs
	jobs [stationaryLive][]Op // each slot's current job's remaining ops
	next int                  // next job ID
	turn int                  // slot whose run is next
}

const (
	stationaryLive  = 256 // live jobs, as in the serving benchmark's generator
	stationaryJobs  = 1024
	stationaryRun   = 8 // ops one job contributes per turn
	stationaryBatch = 16
)

func newStationaryStream(hosts []topology.NodeID, seed uint64) *stationaryStream {
	s := &stationaryStream{}
	pop := workload.OpenLoop(workload.OpenLoopConfig{BaseRateJobsPerSec: 0.2, Seed: 1})
	rng := stats.NewRNG(seed)
	for j := range s.tmpl {
		spec := pop.Next().Spec
		ops := make([]Op, 0, spec.NumReduces+spec.NumMaps+1)
		for r := 0; r < spec.NumReduces; r++ {
			ops = append(ops, Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Reduce: r, Host: hosts[rng.Intn(len(hosts))]}})
		}
		for m := 0; m < spec.NumMaps; m++ {
			ops = append(ops, Op{Kind: OpIntent, Intent: instrument.Intent{Map: m,
				SrcHost: hosts[rng.Intn(len(hosts))], PredictedWireBytes: spec.MapOutputs[m]}})
		}
		s.tmpl[j] = append(ops, Op{Kind: OpJobDone})
	}
	for slot := range s.jobs {
		s.admit(slot)
	}
	return s
}

// admit starts the next job in slot.
func (s *stationaryStream) admit(slot int) {
	job := s.next
	s.next++
	ops := append(s.jobs[slot][:0:0], s.tmpl[job%stationaryJobs]...)
	for i := range ops {
		ops[i].Intent.Job, ops[i].Reducer.Job, ops[i].Job = job, job, job
	}
	s.jobs[slot] = ops
}

// batch fills dst with the next stationaryBatch ops of the stream.
func (s *stationaryStream) batch(dst []Op) []Op {
	dst = dst[:0]
	for len(dst) < stationaryBatch {
		slot := s.turn
		n := min(stationaryRun, len(s.jobs[slot]), stationaryBatch-len(dst))
		dst = append(dst, s.jobs[slot][:n]...)
		s.jobs[slot] = s.jobs[slot][n:]
		if len(s.jobs[slot]) == 0 {
			s.admit(slot)
			s.turn = (s.turn + 1) % stationaryLive
		} else if n == stationaryRun {
			s.turn = (s.turn + 1) % stationaryLive
		}
	}
	return dst
}

// BenchmarkApplyBatchStationary is one 16-op batch of a steady-state serving
// collector on a k=8 fat-tree with 4 shards: the stationary stream above,
// the engine advanced by a 1000 Hz logical clock as the server drives it.
// The stream retires three windows' worth of jobs before timing, so
// the live state is the steady state's. Besides ns/op it reports the mean
// wall time of the commit's delta merge (CommitStats.Merge), the leg that
// charges the pair aggregates.
func BenchmarkApplyBatchStationary(b *testing.B) {
	eng := sim.NewEngine()
	g, hosts := topology.FatTree(8, 4, topology.Gbps)
	net := netsim.New(eng, g)
	py := New(eng, net, openflow.NewController(eng, net, 0), Config{Aggregate: true, UseCriticality: true,
		BookingTTL: 30, Shards: 4})
	s := newStationaryStream(hosts, 1)
	ops := make([]Op, 0, stationaryBatch)
	step := func() time.Duration {
		ops = s.batch(ops)
		eng.RunUntil(eng.Now() + sim.Time(len(ops))/1000)
		py.ApplyBatch(ops, 4)
		return py.LastCommit().Merge
	}
	for s.next < 4*stationaryLive {
		step()
	}
	if py.liveAggregates() < 1000 {
		b.Fatalf("only %d live aggregates at steady state", py.liveAggregates())
	}
	var merge time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge += step()
	}
	b.ReportMetric(float64(merge.Nanoseconds())/float64(b.N), "merge-ns/op")
}
