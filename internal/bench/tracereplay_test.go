package bench

import (
	"math"
	"strings"
	"testing"

	"pythia/internal/stats"
	"pythia/internal/workload"
)

func TestTraceReplayCompletesAllJobs(t *testing.T) {
	tcfg := workload.TraceConfig{Jobs: 10, Seed: 4}
	res := RunTraceReplay(ECMP, Oversub{"1:10", 10}, tcfg)
	if res.Jobs != 10 {
		t.Fatalf("jobs = %d", res.Jobs)
	}
	if res.MakespanSec <= 0 || res.MeanJobSec <= 0 || res.P95JobSec < res.MeanJobSec {
		t.Fatalf("metrics: %+v", res)
	}
	if res.ShuffleFraction <= 0 || res.ShuffleFraction >= 1 {
		t.Fatalf("shuffle fraction = %v", res.ShuffleFraction)
	}
}

func TestTraceComparisonPythiaWins(t *testing.T) {
	c := RunTraceComparison(Oversub{"1:10", 10}, 1)
	if c.Pythia.MeanJobSec >= c.ECMP.MeanJobSec {
		t.Fatalf("pythia mean %.1f >= ecmp %.1f", c.Pythia.MeanJobSec, c.ECMP.MeanJobSec)
	}
	if c.MeanJobSpeedup <= 0 {
		t.Fatalf("speedup = %v", c.MeanJobSpeedup)
	}
}

func TestTraceShuffleFractionNearFacebook(t *testing.T) {
	// The trace is calibrated so the ECMP shuffle-time share lands in the
	// neighborhood of the paper's motivating 33% statistic.
	c := RunTrace()
	if c.ECMP.ShuffleFraction < 0.20 || c.ECMP.ShuffleFraction > 0.45 {
		t.Fatalf("ECMP shuffle fraction = %.1f%%, want ~33%%", c.ECMP.ShuffleFraction*100)
	}
	// Pythia shrinks exactly that share.
	if c.Pythia.ShuffleFraction >= c.ECMP.ShuffleFraction {
		t.Fatal("Pythia did not reduce the shuffle share")
	}
}

func TestTraceDeterministicPerSeed(t *testing.T) {
	a := RunTraceReplay(Pythia, Oversub{"1:10", 10}, workload.TraceConfig{Jobs: 8, Seed: 9})
	b := RunTraceReplay(Pythia, Oversub{"1:10", 10}, workload.TraceConfig{Jobs: 8, Seed: 9})
	if a.MakespanSec != b.MakespanSec || a.MeanJobSec != b.MeanJobSec {
		t.Fatal("trace replay nondeterministic")
	}
}

// Cross-seed aggregation must pool the per-job duration samples and take
// percentiles once. The old code averaged per-seed P95s, which on skewed
// samples is a different (wrong) number: percentiles do not commute with
// means.
func TestPoolTraceResultsPoolsPercentiles(t *testing.T) {
	// Seed A: tight cluster. Seed B: same size, one huge outlier. The
	// pooled P95 must reflect the outlier's true weight in the combined
	// sample, not the mean of the two per-seed P95s.
	a := TraceResult{Jobs: 5, MakespanSec: 100, ShuffleFraction: 0.30,
		Durations: []float64{10, 11, 12, 13, 14}}
	b := TraceResult{Jobs: 5, MakespanSec: 200, ShuffleFraction: 0.40,
		Durations: []float64{10, 11, 12, 13, 1000}}
	got := poolTraceResults([]TraceResult{a, b})

	pooled := append(append([]float64(nil), a.Durations...), b.Durations...)
	want := stats.Summarize(pooled)
	if got.P95JobSec != want.P95 || got.MeanJobSec != want.Mean {
		t.Fatalf("pooled stats = mean %v p95 %v, want mean %v p95 %v",
			got.MeanJobSec, got.P95JobSec, want.Mean, want.P95)
	}
	// The regression this guards against: the averaged-percentile value
	// must differ visibly from the pooled one on these samples.
	avgOfP95 := (stats.Summarize(a.Durations).P95 + stats.Summarize(b.Durations).P95) / 2
	if rel := (got.P95JobSec - avgOfP95) / got.P95JobSec; rel < 0.05 && rel > -0.05 {
		t.Fatalf("test premise broken: pooled %v vs averaged %v do not diverge",
			got.P95JobSec, avgOfP95)
	}
	// Makespan stays a cross-seed mean; shuffle fraction pools
	// duration-weighted.
	if got.MakespanSec != 150 {
		t.Fatalf("makespan = %v, want 150", got.MakespanSec)
	}
	ta := 10.0 + 11 + 12 + 13 + 14
	tb := 10.0 + 11 + 12 + 13 + 1000
	wantFrac := (0.30*ta + 0.40*tb) / (ta + tb)
	if math.Abs(got.ShuffleFraction-wantFrac) > 1e-12 {
		t.Fatalf("shuffle fraction = %v, want %v", got.ShuffleFraction, wantFrac)
	}
	if empty := poolTraceResults(nil); empty.Jobs != 0 {
		t.Fatalf("empty pool = %+v", empty)
	}
}

// A deadline that cuts the replay short must surface as an error with the
// starved jobs counted, while the completed jobs' statistics stay usable —
// the TryRunJobs contract.
func TestTryRunTraceReplayDeadline(t *testing.T) {
	tcfg := workload.TraceConfig{Jobs: 10, Seed: 4}
	res, err := TryRunTraceReplay(ECMP, Oversub{"1:10", 10}, tcfg,
		TraceReplayOptions{DeadlineSec: 120})
	if err == nil {
		t.Fatal("120 s deadline on a 10-job trace must starve jobs")
	}
	if !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("error text: %v", err)
	}
	if res.Starved == 0 || res.Starved+len(res.Durations) != res.Jobs {
		t.Fatalf("starved accounting: %+v", res)
	}
	if len(res.Durations) > 0 && res.MeanJobSec <= 0 {
		t.Fatalf("partial stats not populated: %+v", res)
	}
	// The full run of the same trace succeeds — the error is the
	// deadline's doing, not the trace's.
	if _, err := TryRunTraceReplay(ECMP, Oversub{"1:10", 10}, tcfg, TraceReplayOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatTraceComparison(t *testing.T) {
	out := FormatTraceComparison(TraceComparison{
		ECMP:           TraceResult{Jobs: 5, MakespanSec: 100, MeanJobSec: 20, P95JobSec: 50, ShuffleFraction: 0.33},
		Pythia:         TraceResult{Jobs: 5, MakespanSec: 90, MeanJobSec: 15, P95JobSec: 40, ShuffleFraction: 0.2},
		MeanJobSpeedup: 0.33,
	})
	for _, want := range []string{"E13", "ECMP", "Pythia", "33.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q", want)
		}
	}
}

// TestSuiteRunnersReturnResults smokes the sweep's figure, comparison and
// ablation runners (A7 and E14 have tests of their own): each must return a
// non-empty result at tinyScale.
func TestSuiteRunnersReturnResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	s := tinyScale()
	runners := []struct {
		name string
		ok   func() bool
	}{
		{"fig1a", func() bool { ascii, svg := RunFig1a(); return ascii != "" && svg != "" }},
		{"fig1b", func() bool { r := RunFig1b(); return r.AdversarialSec > 0 && r.OptimalSec > 0 }},
		{"fig3", func() bool { return len(RunFig3(s)) > 0 }},
		{"fig4", func() bool { return len(RunFig4(s)) > 0 }},
		{"fig5", func() bool { return len(RunFig5(s).PerHost) > 0 }},
		{"overhead", func() bool { r := RunOverhead(s); return r.IntentsSent > 0 && r.RulesInstalled > 0 }},
		{"hedera", func() bool { return len(RunHederaComparison(s)) > 0 }},
		{"scaleout", func() bool { return len(RunScaleOut(s)) > 0 }},
		{"flowcomb", func() bool { return len(RunFlowCombComparison(s)) > 0 }},
		{"partitioner", func() bool { return len(RunPartitionerComparison(s)) > 0 }},
		{"trace", func() bool { c := RunTrace(); return c.ECMP.Jobs > 0 && c.Pythia.Jobs > 0 }},
		{"bounds", func() bool { return len(RunOptimalityGap(s)) > 0 }},
		{"kpaths", func() bool { return len(RunAblationKPaths(s)) > 0 }},
		{"aggregation", func() bool { return len(RunAblationAggregation(s)) > 0 }},
		{"prediction_delay", func() bool { return len(RunAblationPredictionDelay(s)) > 0 }},
		{"install_latency", func() bool { return len(RunAblationInstallLatency(s)) > 0 }},
		{"scope", func() bool { return len(RunAblationScope(s)) > 0 }},
		{"criticality", func() bool { return len(RunAblationCriticality(s)) > 0 }},
	}
	for _, r := range runners {
		if !r.ok() {
			t.Errorf("%s: empty result", r.name)
		}
	}
}
