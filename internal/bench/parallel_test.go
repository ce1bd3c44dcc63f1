package bench

import (
	"reflect"
	"sync/atomic"
	"testing"

	"pythia/internal/hadoop"
	"pythia/internal/workload"
)

// withParallelism runs the body at a fixed pool width and restores the
// package default afterwards so test order never matters.
func withParallelism(t *testing.T, n int, body func()) {
	t.Helper()
	prev := parallelism
	SetParallelism(n)
	defer func() { parallelism = prev }()
	body()
}

// The core golden guarantee of the parallel harness: RunTrials assembles
// results in submission order, so serial and wide runs are deeply equal —
// including every FlowRecord of every trial.
func TestRunTrialsParallelMatchesSerial(t *testing.T) {
	cfgs := []TrialConfig{
		{Spec: workload.Sort(1*workload.GB, 6, 1), Scheduler: ECMP,
			Oversub: Oversub{Label: "1:5", Ratio: 5}, Seed: 1, CollectFlowHistory: true},
		{Spec: workload.Sort(1*workload.GB, 6, 1), Scheduler: Pythia,
			Oversub: Oversub{Label: "1:5", Ratio: 5}, Seed: 1, CollectFlowHistory: true},
		{Spec: workload.Nutch(1*workload.GB, 6, 2), Scheduler: Pythia,
			Oversub: Oversub{Label: "1:10", Ratio: 10}, Seed: 2, CollectFlowHistory: true},
		{Spec: workload.Sort(1*workload.GB, 6, 3), Scheduler: Hedera,
			Oversub: Oversub{Label: "1:2", Ratio: 2}, Seed: 3, CollectFlowHistory: true},
		{Spec: workload.Sort(1*workload.GB, 6, 4), Scheduler: Pythia,
			Oversub: Oversub{Label: "none", Ratio: 0}, Seed: 4, CollectFlowHistory: true},
		{Spec: workload.Nutch(1*workload.GB, 6, 5), Scheduler: ECMP,
			Oversub: Oversub{Label: "1:20", Ratio: 20}, Seed: 5, CollectFlowHistory: true},
	}
	var serial, wide []TrialResult
	withParallelism(t, 1, func() { serial = RunTrials(cfgs) })
	withParallelism(t, 8, func() { wide = RunTrials(cfgs) })
	if len(serial) != len(cfgs) || len(wide) != len(cfgs) {
		t.Fatalf("result counts: serial %d, wide %d, want %d", len(serial), len(wide), len(cfgs))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], wide[i]) {
			t.Fatalf("trial %d diverged between serial and parallel:\nserial %+v\nwide   %+v",
				i, serial[i], wide[i])
		}
	}
}

// A figure-level sweep (the Fig. 4 shape, scaled down) must emit identical
// rows — including the float aggregates whose accumulation order would
// betray any reordering — at any pool width.
func TestSpeedupSweepParallelMatchesSerial(t *testing.T) {
	scale := Scale{SortBytes: 2 * workload.GB, Repeats: 2}
	mk := func(seed uint64) *hadoop.JobSpec {
		return workload.Sort(scale.SortBytes, 6, seed)
	}
	levels := []Oversub{{Label: "1:5", Ratio: 5}, {Label: "1:10", Ratio: 10}}
	var serial, wide []SpeedupRow
	withParallelism(t, 1, func() { serial = runSpeedupSweep(mk, scale, levels) })
	withParallelism(t, 8, func() { wide = runSpeedupSweep(mk, scale, levels) })
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("sweep rows diverged:\nserial %+v\nwide   %+v", serial, wide)
	}
}

// A trace replay (multi-job Poisson churn), the unit RunTrace fans out,
// must also be width-independent.
func TestTraceComparisonParallelMatchesSerial(t *testing.T) {
	lvl := Oversub{Label: "1:10", Ratio: 10}
	tcfg := workload.TraceConfig{Seed: 3}
	both := func() [2]TraceResult {
		return [2]TraceResult{RunTraceReplay(ECMP, lvl, tcfg), RunTraceReplay(Pythia, lvl, tcfg)}
	}
	var serial, wide [2]TraceResult
	withParallelism(t, 1, func() { serial = both() })
	withParallelism(t, 6, func() { wide = both() })
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("trace comparison diverged:\nserial %+v\nwide   %+v", serial, wide)
	}
}

// Hammer the pool under -race: many tiny tasks writing disjoint slots plus a
// shared atomic, across repeated rounds, to surface any coordination bug.
func TestForEachIndexRaceHammer(t *testing.T) {
	withParallelism(t, 8, func() {
		for round := 0; round < 50; round++ {
			const n = 257
			out := make([]int, n)
			var calls atomic.Int64
			forEachIndex(n, func(i int) {
				out[i] = i*i + round
				calls.Add(1)
			})
			if calls.Load() != n {
				t.Fatalf("round %d: %d calls, want %d", round, calls.Load(), n)
			}
			for i, v := range out {
				if v != i*i+round {
					t.Fatalf("round %d: slot %d = %d, want %d", round, i, v, i*i+round)
				}
			}
		}
	})
}

// A worker panic must surface on the calling goroutine after the pool drains,
// not crash the process or deadlock.
func TestForEachIndexPanicPropagates(t *testing.T) {
	withParallelism(t, 4, func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want \"boom\"", r)
			}
		}()
		forEachIndex(16, func(i int) {
			if i == 7 {
				panic("boom")
			}
		})
		t.Fatal("forEachIndex returned instead of panicking")
	})
}
