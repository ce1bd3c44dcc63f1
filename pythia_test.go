package pythia

import (
	"reflect"
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

// archivedSpec is a job spec as MarshalSpec wrote it before the HDFS
// substrate was deleted: it still carries ReduceOutputRatio and InputFile.
const archivedSpec = `{
 "Name": "archived",
 "NumMaps": 2,
 "NumReduces": 2,
 "MapDurations": [
  1.5,
  2.25
 ],
 "MapOutputs": [
  [
   1000000,
   2000000
  ],
  [
   3000000,
   0
  ]
 ],
 "ReduceSecPerMB": 0.01,
 "ReduceBaseSec": 0.5,
 "ReduceOutputRatio": 0.5,
 "InputFile": "/input"
}`

// TestLoadArchivedJobSpec: archived specs that name the deleted HDFS fields
// still load and validate, with every surviving field intact.
func TestLoadArchivedJobSpec(t *testing.T) {
	got, err := LoadJobSpec([]byte(archivedSpec))
	if err != nil {
		t.Fatal(err)
	}
	want := &JobSpec{
		Name: "archived", NumMaps: 2, NumReduces: 2,
		MapDurations:   []float64{1.5, 2.25},
		MapOutputs:     [][]float64{{1e6, 2e6}, {3e6, 0}},
		ReduceSecPerMB: 0.01,
		ReduceBaseSec:  0.5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
	if _, err := New().TryRunJob(got); err != nil {
		t.Fatalf("archived spec does not run: %v", err)
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
