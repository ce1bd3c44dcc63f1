package core

import (
	"fmt"
	"testing"
	"time"

	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
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
	if limit := float64(2*batch + 16); allocs > limit {
		t.Errorf("%.1f allocs per %d-intent batch, want at most %.0f", allocs, batch, limit)
	}
}
