package pythia

import (
	"math"
	"strings"
	"testing"

	"pythia/internal/bench"
)

// Repo-level integration tests: cross-system invariants exercised through
// the public facade and the experiment harness, combining features that the
// per-package tests cover in isolation.

// TestConservationAcrossSchedulers: whatever the scheduler, the reducers
// collectively fetch exactly the spec's shuffle volume.
func TestConservationAcrossSchedulers(t *testing.T) {
	spec := NutchJob(2*GB, 8, 5)
	want := spec.TotalShuffleBytes()
	for _, k := range []SchedulerKind{SchedulerECMP, SchedulerPythia, SchedulerHedera} {
		cl := New(WithScheduler(k), WithOversubscription(10), WithSeed(5))
		res := cl.RunJob(spec)
		if math.Abs(res.ShuffleBytes-want) > 1 {
			t.Fatalf("%v: shuffle bytes %v, want %v", k, res.ShuffleBytes, want)
		}
	}
}

// TestKitchenSink: every optional subsystem at once — Pythia with rack
// aggregation and criticality, HDFS write-back, speculative-capable
// runtime, sequence views — on an oversubscribed fabric.
func TestKitchenSink(t *testing.T) {
	spec := CustomJob(WorkloadConfig{
		Name:         "kitchen-sink",
		InputBytes:   2 * GB,
		NumReduces:   8,
		SkewExponent: 0.8,
		Seed:         9,
	})
	spec.ReduceOutputRatio = 1.0
	cl := New(
		WithScheduler(SchedulerPythia),
		WithRackAggregation(),
		WithCriticality(),
		WithHDFS(),
		WithOversubscription(10),
		WithSeed(9),
	)
	res := cl.RunJob(spec)
	if res.DurationSec <= 0 {
		t.Fatal("job failed")
	}
	if got := cl.HDFSBytesWritten(); math.Abs(got-3*2*GB) > GB*0.01 {
		t.Fatalf("HDFS bytes = %v, want ~6 GB (3 replicas)", got)
	}
	if !strings.Contains(cl.SequenceDiagram(100), "kitchen-sink") {
		t.Fatal("diagram missing")
	}
	if tr, err := cl.ChromeTrace(); err != nil || len(tr) == 0 {
		t.Fatalf("chrome trace: %v", err)
	}
	rep := cl.Overhead()
	if rep.Spills != spec.NumMaps {
		t.Fatalf("spills = %d, want %d", rep.Spills, spec.NumMaps)
	}
}

// TestSpeedupMonotoneInOversubscription: through the facade, the
// Pythia-over-ECMP advantage must not shrink as the network tightens.
func TestSpeedupMonotoneInOversubscription(t *testing.T) {
	spec := SortJob(8*GB, 8, 7)
	prev := -1.0
	for _, n := range []int{0, 5, 20} {
		_, _, speedup := Compare(spec, SchedulerECMP, SchedulerPythia, WithOversubscription(n), WithSeed(7))
		if speedup < prev-0.05 {
			t.Fatalf("speedup shrank at 1:%d: %.2f after %.2f", n, speedup, prev)
		}
		prev = speedup
	}
	if prev < 0.2 {
		t.Fatalf("1:20 speedup only %.1f%%", prev*100)
	}
}

// TestHeadlineNumbersStable: the calibrated headline results (EXPERIMENTS.md)
// must hold within tolerance — a regression gate for the reproduction.
func TestHeadlineNumbersStable(t *testing.T) {
	if testing.Short() {
		t.Skip("headline sweep in -short mode")
	}
	scale := bench.QuickScale()

	fig3 := bench.RunFig3(scale)
	last := fig3[len(fig3)-1]
	if last.Speedup < 0.35 || last.Speedup > 0.55 {
		t.Errorf("Fig3 1:20 speedup = %.1f%%, calibrated ~46%%", last.Speedup*100)
	}
	flatness := last.PythiaSec / fig3[0].PythiaSec
	if flatness > 1.15 {
		t.Errorf("Nutch Pythia curve not flat: %.2fx", flatness)
	}

	fig4 := bench.RunFig4(scale)
	l4 := fig4[len(fig4)-1]
	if l4.Speedup < 0.35 || l4.Speedup > 0.70 {
		t.Errorf("Fig4 1:20 speedup = %.1f%%, calibrated ~55%%", l4.Speedup*100)
	}

	fig5 := bench.RunFig5(scale)
	if fig5.MinLeadSec <= 0 {
		t.Error("prediction not ahead of traffic")
	}
	if fig5.MeanOverestimate < 0.03 || fig5.MeanOverestimate > 0.07 {
		t.Errorf("overestimate %.1f%% outside the paper's 3-7%% band", fig5.MeanOverestimate*100)
	}

	oh := bench.RunOverhead(scale)
	if oh.MeanCPUFraction < 0.02 || oh.MeanCPUFraction > 0.05 {
		t.Errorf("overhead %.1f%% outside the paper's 2-5%% band", oh.MeanCPUFraction*100)
	}
}

// TestWordCountControl: the aggregation-heavy workload barely shuffles, so
// schedulers must tie — a negative control for the whole pipeline.
func TestWordCountControl(t *testing.T) {
	spec := WordCountJob(4*GB, 8, 3)
	e, p, speedup := Compare(spec, SchedulerECMP, SchedulerPythia, WithOversubscription(20), WithSeed(3))
	if math.Abs(speedup) > 0.05 {
		t.Fatalf("wordcount speedup %.1f%% (ecmp %.1fs pythia %.1fs); network scheduling should not matter", speedup*100, e, p)
	}
}

// TestIncastTuning: with the incast model on, Hadoop's ParallelCopies knob
// matters — too many concurrent fetches per reducer collapse receiver
// goodput, and throttling them recovers it. This is the tuning guidance the
// paper's TCP-incast citation motivates.
func TestIncastTuning(t *testing.T) {
	run := func(parallelCopies int, incast bool) float64 {
		opts := []Option{
			WithScheduler(SchedulerPythia),
			WithSeed(8),
			WithParallelCopies(parallelCopies),
		}
		if incast {
			opts = append(opts, WithIncast(4, 0.12, 0.25))
		}
		cl := New(opts...)
		return cl.RunJob(SortJob(4*GB, 8, 8)).DurationSec
	}
	noIncast := run(10, false)
	aggressive := run(10, true)
	throttled := run(2, true)
	if aggressive <= noIncast {
		t.Fatalf("incast model had no effect: %.1fs vs %.1fs", aggressive, noIncast)
	}
	if throttled >= aggressive {
		t.Fatalf("throttling parallel copies did not mitigate incast: %.1fs vs %.1fs",
			throttled, aggressive)
	}
}
