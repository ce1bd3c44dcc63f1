package pythia

import (
	"strings"
	"testing"
)

func TestNewDefaultsECMP(t *testing.T) {
	cl := New()
	if cl.Scheduler() != SchedulerECMP {
		t.Fatalf("default scheduler = %v", cl.Scheduler())
	}
}

func TestSchedulerKindString(t *testing.T) {
	if SchedulerECMP.String() != "ECMP" || SchedulerPythia.String() != "Pythia" || SchedulerHedera.String() != "Hedera" {
		t.Fatal("kind strings")
	}
	if SchedulerKind(9).String() == "" {
		t.Fatal("unknown kind")
	}
}

func TestRunJobAllSchedulers(t *testing.T) {
	for _, k := range []SchedulerKind{SchedulerECMP, SchedulerPythia, SchedulerHedera} {
		cl := New(WithScheduler(k), WithOversubscription(10), WithSeed(2))
		res := cl.RunJob(SortJob(2*GB, 6, 2))
		if res.DurationSec <= 0 {
			t.Fatalf("%v: duration %v", k, res.DurationSec)
		}
		if diff := res.ShuffleBytes - 2*GB; diff > 1 || diff < -1 {
			t.Fatalf("%v: shuffle bytes %v", k, res.ShuffleBytes)
		}
		if k == SchedulerPythia && res.RulesInstalled == 0 {
			t.Fatal("Pythia installed no rules")
		}
		if k != SchedulerPythia && res.RulesInstalled != 0 {
			t.Fatalf("%v reported rules", k)
		}
	}
}

func TestPythiaFasterUnderLoad(t *testing.T) {
	spec := SortJob(4*GB, 8, 3)
	ecmpT, pyT, speedup := Compare(spec, SchedulerECMP, SchedulerPythia, WithOversubscription(20), WithSeed(3))
	if pyT >= ecmpT {
		t.Fatalf("Pythia (%.1fs) not faster than ECMP (%.1fs)", pyT, ecmpT)
	}
	if speedup <= 0 {
		t.Fatalf("speedup = %v", speedup)
	}
}

func TestSequenceRecording(t *testing.T) {
	cl := New(WithSeed(1))
	cl.RunJob(ToySortJob())
	diag := cl.SequenceDiagram(100)
	if !strings.Contains(diag, "toy-sort") {
		t.Fatalf("diagram missing job: %s", diag)
	}
	if !strings.Contains(cl.SequenceDiagramSVG(), "<svg") {
		t.Fatal("svg missing")
	}
}

func TestOverheadReport(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia))
	cl.RunJob(NutchJob(1*GB, 6, 1))
	rep := cl.Overhead()
	if rep.Spills == 0 || rep.MeanCPUFraction <= 0 || rep.ManagementBytes <= 0 {
		t.Fatalf("overhead: %+v", rep)
	}
	if rep.MaxCPUFraction < rep.MeanCPUFraction {
		t.Fatal("max < mean")
	}
}

func TestOptionsApply(t *testing.T) {
	cl := New(
		WithHostsPerRack(3),
		WithTrunks(3),
		WithLinkRateGbps(10),
		WithSeed(9),
		WithReduceSlowstart(0.5),
		WithParallelCopies(2),
		WithKShortestPaths(2),
		WithScheduler(SchedulerPythia),
		WithOversubscription(5),
	)
	res := cl.RunJob(SortJob(1*GB, 4, 9))
	if res.DurationSec <= 0 {
		t.Fatal("custom cluster failed")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	for _, spec := range []*JobSpec{
		SortJob(1*GB, 4, 1),
		NutchJob(1*GB, 4, 1),
		WordCountJob(1*GB, 4, 1),
		ToySortJob(),
		IntegerSortJob(1*GB, 4, 1),
		CustomJob(WorkloadConfig{Name: "c", InputBytes: 1 * GB}),
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}

func TestDeterministicFacade(t *testing.T) {
	run := func() float64 {
		cl := New(WithScheduler(SchedulerPythia), WithOversubscription(10), WithSeed(4))
		return cl.RunJob(NutchJob(1*GB, 6, 4)).DurationSec
	}
	if run() != run() {
		t.Fatal("facade nondeterministic")
	}
}

func TestRunJobsConcurrent(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithOversubscription(10), WithSeed(3))
	rs := cl.RunJobs(
		SortJob(2*GB, 6, 3),
		NutchJob(1*GB, 6, 4),
	)
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if r.DurationSec <= 0 {
			t.Fatalf("%s duration %v", r.Name, r.DurationSec)
		}
	}
	if rs[0].Name != "sort" || rs[1].Name != "nutch-indexing" {
		t.Fatalf("result order: %s, %s", rs[0].Name, rs[1].Name)
	}
}

func TestChainedJobsOnOneCluster(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithSeed(5))
	r1 := cl.RunJob(SortJob(1*GB, 4, 5))
	r2 := cl.RunJob(SortJob(1*GB, 4, 6))
	if r1.DurationSec <= 0 || r2.DurationSec <= 0 {
		t.Fatal("chained jobs failed")
	}
}

func TestRackAggregationOption(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithRackAggregation(), WithOversubscription(10), WithSeed(7))
	res := cl.RunJob(SortJob(2*GB, 6, 7))
	if res.DurationSec <= 0 {
		t.Fatal("rack aggregation cluster failed")
	}
	// Rack-pair steering: only inter-rack pairs need rules, and only one
	// steering hop each — far fewer than host-pair scope.
	host := New(WithScheduler(SchedulerPythia), WithOversubscription(10), WithSeed(7))
	hres := host.RunJob(SortJob(2*GB, 6, 7))
	if res.RulesInstalled*3 > hres.RulesInstalled {
		t.Fatalf("rack rules %d not much fewer than host rules %d",
			res.RulesInstalled, hres.RulesInstalled)
	}
}

func TestCriticalityOption(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithCriticality(), WithOversubscription(10), WithSeed(9))
	if res := cl.RunJob(SortJob(2*GB, 6, 9)); res.DurationSec <= 0 {
		t.Fatal("criticality cluster failed")
	}
}

func TestHDFSWritebackOption(t *testing.T) {
	spec := CustomJob(WorkloadConfig{Name: "wb", InputBytes: 1 * GB, NumReduces: 4, Seed: 2})
	spec.ReduceOutputRatio = 1.0

	with := New(WithScheduler(SchedulerPythia), WithHDFS(), WithSeed(2))
	resWith := with.RunJob(spec)
	if got := with.HDFSBytesWritten(); got < 2.9*GB || got > 3.1*GB {
		t.Fatalf("HDFS bytes = %v, want ~3 GB (1 GB output x 3 replicas)", got)
	}

	spec2 := CustomJob(WorkloadConfig{Name: "wb", InputBytes: 1 * GB, NumReduces: 4, Seed: 2})
	spec2.ReduceOutputRatio = 1.0
	without := New(WithScheduler(SchedulerPythia), WithSeed(2))
	resWithout := without.RunJob(spec2)
	if without.HDFSBytesWritten() != 0 {
		t.Fatal("bytes written without HDFS")
	}
	if resWith.DurationSec <= resWithout.DurationSec {
		t.Fatalf("write-back free: %v vs %v", resWith.DurationSec, resWithout.DurationSec)
	}
}

func TestExplicitControlPlaneOption(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithExplicitControlPlane(),
		WithOversubscription(10), WithSeed(6))
	res := cl.RunJob(SortJob(2*GB, 6, 6))
	if res.DurationSec <= 0 || res.RulesInstalled == 0 {
		t.Fatalf("explicit control plane run broken: %+v", res)
	}
	// Same scenario without the model must land within 5%.
	base := New(WithScheduler(SchedulerPythia), WithOversubscription(10), WithSeed(6))
	bres := base.RunJob(SortJob(2*GB, 6, 6))
	if r := res.DurationSec / bres.DurationSec; r > 1.05 || r < 0.95 {
		t.Fatalf("control-plane model shifted results: %.2f", r)
	}
}
