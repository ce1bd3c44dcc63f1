package bench

import (
	"math"
	"strings"
	"testing"

	"pythia/internal/sim"
	"pythia/internal/workload"
)

// tinyScale keeps unit tests fast; shape assertions use the real scales in
// the repo-level bench harness.
func tinyScale() Scale {
	return Scale{
		SortBytes:        4 * workload.GB,
		NutchBytes:       2 * workload.GB,
		IntegerSortBytes: 2 * workload.GB,
		Repeats:          1,
	}
}

func TestSchedulerString(t *testing.T) {
	if ECMP.String() != "ECMP" || Pythia.String() != "Pythia" || Hedera.String() != "Hedera" {
		t.Fatal("scheduler strings")
	}
	if Scheduler(9).String() == "" {
		t.Fatal("unknown scheduler empty")
	}
}

func TestStandardLevels(t *testing.T) {
	lv := StandardLevels()
	if len(lv) != 5 || lv[0].Ratio != 0 || lv[4].Ratio != 20 {
		t.Fatalf("levels: %+v", lv)
	}
}

func TestRunTrialAllSchedulers(t *testing.T) {
	spec := workload.Sort(2*workload.GB, 6, 1)
	for _, s := range []Scheduler{ECMP, Pythia, Hedera} {
		res := RunTrial(TrialConfig{Spec: spec, Scheduler: s, Oversub: Oversub{"1:10", 10}, Seed: 1})
		if res.JobSec <= 0 {
			t.Fatalf("%v: job time %v", s, res.JobSec)
		}
		if !(res.MapSec <= res.ShuffleSec && res.ShuffleSec <= res.JobSec) {
			t.Fatalf("%v: phase ordering map=%v shuffle=%v job=%v", s, res.MapSec, res.ShuffleSec, res.JobSec)
		}
		if res.Overhead.Spills != spec.NumMaps {
			t.Fatalf("%v: spills=%d", s, res.Overhead.Spills)
		}
	}
}

func TestRunTrialDeterministic(t *testing.T) {
	spec := workload.Nutch(1*workload.GB, 6, 2)
	cfg := TrialConfig{Spec: spec, Scheduler: Pythia, Oversub: Oversub{"1:10", 10}, Seed: 5}
	a := RunTrial(cfg)
	b := RunTrial(cfg)
	if a.JobSec != b.JobSec {
		t.Fatalf("nondeterministic trials: %v vs %v", a.JobSec, b.JobSec)
	}
}

func TestOversubLoadsTrunksAsymmetrically(t *testing.T) {
	// With higher ratio, ECMP jobs must be slower; monotonicity check.
	spec := workload.Sort(4*workload.GB, 6, 1)
	prev := 0.0
	for _, lvl := range StandardLevels() {
		res := RunTrial(TrialConfig{Spec: spec, Scheduler: ECMP, Oversub: lvl, Seed: 1})
		if res.JobSec < prev-1e-6 {
			t.Fatalf("ECMP time decreased at %s: %v < %v", lvl.Label, res.JobSec, prev)
		}
		prev = res.JobSec
	}
}

func TestFig3Shape(t *testing.T) {
	rows := RunFig3(tinyScale())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Speedup < 0.05 {
		t.Fatalf("Fig3 1:20 speedup = %.1f%%, want >= 5%%", last.Speedup*100)
	}
	// Pythia never loses badly anywhere.
	for _, r := range rows {
		if r.Speedup < -0.05 {
			t.Fatalf("Pythia lost at %s: %.1f%%", r.Oversub, r.Speedup*100)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	rows := RunFig4(tinyScale())
	last := rows[len(rows)-1]
	first := rows[0]
	if last.Speedup <= first.Speedup {
		t.Fatalf("speedup not growing with oversubscription: %v -> %v", first.Speedup, last.Speedup)
	}
	if last.Speedup < 0.10 {
		t.Fatalf("Fig4 1:20 speedup = %.1f%%", last.Speedup*100)
	}
}

func TestFig5PredictionEfficacy(t *testing.T) {
	res := RunFig5(tinyScale())
	if len(res.PerHost) == 0 {
		t.Fatal("no per-host prediction results")
	}
	if res.MinLeadSec <= 0 {
		t.Fatalf("min lead = %v, want positive (prediction ahead of traffic)", res.MinLeadSec)
	}
	if res.MeanOverestimate < 0.01 || res.MeanOverestimate > 0.10 {
		t.Fatalf("overestimate = %.3f, want within the paper's 3–7%% band (loosely)", res.MeanOverestimate)
	}
}

func TestFig1aDiagram(t *testing.T) {
	ascii, svg := RunFig1a()
	for _, want := range []string{"toy-sort", "reduce-0", "reducer-0 fetched"} {
		if !strings.Contains(ascii, want) {
			t.Fatalf("fig1a ascii missing %q", want)
		}
	}
	if !strings.Contains(svg, "<svg") {
		t.Fatal("fig1a svg missing")
	}
}

func TestFig1bAdversarial(t *testing.T) {
	res := RunFig1b()
	if res.AdversarialSec <= res.OptimalSec*2 {
		t.Fatalf("hot-path time %v not clearly worse than clean-path %v",
			res.AdversarialSec, res.OptimalSec)
	}
	if !res.ECMPHitsHotPath {
		t.Fatal("no ECMP hash hit the hot path across 32 ports")
	}
	if !res.PythiaPickedCleanPath {
		t.Fatal("availability-based choice picked the hot path")
	}
}

func TestOverheadBand(t *testing.T) {
	res := RunOverhead(tinyScale())
	if res.MeanCPUFraction < 0.01 || res.MeanCPUFraction > 0.08 {
		t.Fatalf("CPU fraction = %v", res.MeanCPUFraction)
	}
	if res.RulesInstalled == 0 {
		t.Fatal("no rules installed in Pythia run")
	}
	if res.IntentsSent == 0 || res.MgmtBytes <= 0 {
		t.Fatalf("instrumentation accounting empty: %+v", res)
	}
}

func TestHederaComparisonOrdering(t *testing.T) {
	rows := RunHederaComparison(tinyScale())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Hedera is no (much) worse than ECMP. At tiny scale Nutch is
		// compute-bound, so Pythia and ECMP tie within 1% — the strict win
		// is asserted on the network-bound sort.
		if r.Workload == "nutch" && math.Abs(r.PythiaSec-r.ECMPSec) > 0.01*r.ECMPSec {
			t.Fatalf("nutch: pythia %v and ecmp %v do not tie within 1%%", r.PythiaSec, r.ECMPSec)
		}
		if r.HederaSec > r.ECMPSec*1.05 {
			t.Fatalf("%s: hedera %v much worse than ecmp %v", r.Workload, r.HederaSec, r.ECMPSec)
		}
		if r.Workload == "sort" && r.PythiaSec >= r.ECMPSec {
			t.Fatalf("sort: pythia %v >= ecmp %v", r.PythiaSec, r.ECMPSec)
		}
	}
}

func TestFormatters(t *testing.T) {
	rows := []SpeedupRow{{Oversub: "1:10", ECMPSec: 100, PythiaSec: 80, Speedup: 0.25}}
	out := FormatSpeedupTable("T", rows)
	if !strings.Contains(out, "1:10") || !strings.Contains(out, "25.0%") {
		t.Fatalf("table: %s", out)
	}
	f5 := FormatFig5(Fig5Result{PerHost: []HostPrediction{{Name: "h", MinLeadSec: 1, MeanLeadSec: 2, Overestimate: 0.05}}, MinLeadSec: 1, MeanOverestimate: 0.05})
	if !strings.Contains(f5, "min lead") {
		t.Fatalf("fig5 format: %s", f5)
	}
}

func TestInstallLatencyOverride(t *testing.T) {
	spec := workload.Sort(2*workload.GB, 6, 1)
	slow := RunTrial(TrialConfig{Spec: spec, Scheduler: Pythia, Oversub: Oversub{"1:10", 10},
		InstallLatency: 500 * sim.Millisecond, Seed: 1})
	fast := RunTrial(TrialConfig{Spec: spec, Scheduler: Pythia, Oversub: Oversub{"1:10", 10}, Seed: 1})
	// With half-second installs, rules often arrive after flows started
	// (which then fall back to ECMP): never faster than the fast case.
	if slow.JobSec < fast.JobSec-1e-6 {
		t.Fatalf("slow installs beat fast: %v < %v", slow.JobSec, fast.JobSec)
	}
}

func TestExplicitControlPlaneMatchesDefault(t *testing.T) {
	// The full §III control-plane model (management network carrying
	// intents and FLOW_MODs) must reproduce the default pipeline's
	// results within a small tolerance — control traffic is tiny.
	spec := workload.Sort(4*workload.GB, 8, 11)
	base := RunTrial(TrialConfig{Spec: spec, Scheduler: Pythia, Oversub: Oversub{"1:10", 10}, Seed: 11})
	full := RunTrial(TrialConfig{Spec: spec, Scheduler: Pythia, Oversub: Oversub{"1:10", 10}, Seed: 11,
		ExplicitControlPlane: true})
	ratio := full.JobSec / base.JobSec
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("explicit control plane changed the outcome: %.1fs vs %.1fs", full.JobSec, base.JobSec)
	}
}
