package pythia

import (
	"math"
	"strings"
	"testing"
)

// allSchedulers enumerates the three flow-allocation schemes the failure
// plane must serve uniformly.
var allSchedulers = []SchedulerKind{SchedulerECMP, SchedulerHedera, SchedulerPythia}

// runTrunkFault builds a two-rack cluster, fails trunk0 mid-shuffle,
// recovers it later, and returns the job result.
func runTrunkFault(t *testing.T, k SchedulerKind) JobResult {
	t.Helper()
	_, res := runTrunkFaultCluster(t, k)
	return res
}

// runTrunkFaultCluster is runTrunkFault for callers that inspect the cluster
// afterwards (the pinned flow histories).
func runTrunkFaultCluster(t *testing.T, k SchedulerKind) (*Cluster, JobResult) {
	t.Helper()
	cl := New(WithScheduler(k), WithOversubscription(10), WithSeed(11))
	trunks := cl.Trunks()
	if len(trunks) != 2 {
		t.Fatalf("two-rack cluster reports %d trunks, want 2", len(trunks))
	}
	cl.At(10, func() { cl.FailLink(trunks[0]) })
	cl.At(40, func() { cl.RecoverLink(trunks[0]) })
	res, err := cl.TryRunJob(SortJob(4*GB, 8, 5))
	if err != nil {
		t.Fatalf("%v: job did not survive trunk failure: %v", k, err)
	}
	return cl, res
}

// TestTrunkFailureDeterministicAllSchedulers: a mid-shuffle trunk failure
// plus later recovery completes under every scheduler, and identical seeds
// give identical completion times across runs (the facade failure plane
// does not break determinism).
func TestTrunkFailureDeterministicAllSchedulers(t *testing.T) {
	for _, k := range allSchedulers {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			a := runTrunkFault(t, k)
			b := runTrunkFault(t, k)
			if a.DurationSec != b.DurationSec {
				t.Fatalf("%v: same seed, different durations: %.6f vs %.6f",
					k, a.DurationSec, b.DurationSec)
			}
			if a.DurationSec <= 0 {
				t.Fatalf("%v: nonpositive duration %.3f", k, a.DurationSec)
			}
		})
	}
}

// runSwitchFault fails one spine of a 2-leaf/2-spine fabric mid-job and
// recovers it later.
func runSwitchFault(t *testing.T, k SchedulerKind) JobResult {
	t.Helper()
	cl := New(WithScheduler(k), WithSeed(11),
		WithTopology(LeafSpineTopology(2, 2, 4)))
	var spine SwitchID = -1
	for _, sw := range cl.Switches() {
		if sw.Rack < 0 {
			spine = sw.ID
			break
		}
	}
	if spine < 0 {
		t.Fatal("leaf-spine cluster reports no spine switch")
	}
	cl.At(10, func() { cl.FailSwitch(spine) })
	cl.At(40, func() { cl.RecoverSwitch(spine) })
	res, err := cl.TryRunJob(SortJob(4*GB, 8, 5))
	if err != nil {
		t.Fatalf("%v: job did not survive spine failure: %v", k, err)
	}
	return res
}

// TestSwitchFailureDeterministicAllSchedulers: losing a whole spine switch
// (every incident cable at once) mid-job completes deterministically under
// every scheduler.
func TestSwitchFailureDeterministicAllSchedulers(t *testing.T) {
	for _, k := range allSchedulers {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			a := runSwitchFault(t, k)
			b := runSwitchFault(t, k)
			if a.DurationSec != b.DurationSec {
				t.Fatalf("%v: same seed, different durations: %.6f vs %.6f",
					k, a.DurationSec, b.DurationSec)
			}
		})
	}
}

// TestSwitchFailurePersistsAdminLinkDown: recovering a switch must not
// resurrect a cable that was also explicitly failed.
func TestSwitchFailurePersistsAdminLinkDown(t *testing.T) {
	cl := New(WithTopology(LeafSpineTopology(2, 2, 2)))
	trunks := cl.Trunks()
	var spine SwitchID = -1
	for _, sw := range cl.Switches() {
		if sw.Rack < 0 {
			spine = sw.ID
			break
		}
	}
	// Fail a cable into the spine, then the spine, then recover the spine:
	// the cable must stay down until its own recovery.
	var target LinkID = -1
	for _, l := range trunks {
		cl.FailLink(l)
		target = l
		break
	}
	cl.FailSwitch(spine)
	cl.RecoverSwitch(spine)
	if got := cl.LinkCarriedGB(target); got != 0 {
		t.Fatalf("unexpected traffic on failed link: %f GB", got)
	}
	res, err := cl.TryRunJob(SortJob(1*GB, 4, 5))
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.DurationSec <= 0 {
		t.Fatal("job reported nonpositive duration")
	}
}

// TestControlPlaneFaultFallbackAndReconcile: a controller outage makes rule
// installs time out and retry; past the budget Pythia degrades aggregates
// to the ECMP pipeline, and reconciles them once connectivity returns. The
// job completes throughout.
func TestControlPlaneFaultFallbackAndReconcile(t *testing.T) {
	run := func() (JobResult, FaultReport) {
		cl := New(
			WithScheduler(SchedulerPythia),
			WithOversubscription(10),
			WithSeed(5),
			WithControlPlaneFaults(ControlPlaneFaults{
				InstallTimeoutSec: 0.05,
				MaxRetries:        2,
				RetryBackoffSec:   0.1,
			}),
		)
		cl.At(2, func() { cl.FailController() })
		// Recover while degraded aggregates still carry live demand, so
		// reconciliation has something to re-place.
		cl.At(20, func() { cl.RecoverController() })
		res, err := cl.TryRunJob(SortJob(4*GB, 8, 5))
		if err != nil {
			t.Fatalf("job did not survive controller outage: %v", err)
		}
		return res, cl.Faults()
	}
	res, f := run()
	if f.DroppedFlowMods == 0 {
		t.Fatal("controller outage dropped no flow-mods")
	}
	if f.Retransmissions == 0 {
		t.Fatal("no retransmissions despite drops and timeout")
	}
	if f.AggregatesDegraded == 0 {
		t.Fatal("no aggregates degraded to the ECMP pipeline")
	}
	if f.Reconciliations == 0 {
		t.Fatal("no aggregates reconciled after controller recovery")
	}
	res2, _ := run()
	if res.DurationSec != res2.DurationSec {
		t.Fatalf("control-plane faults broke determinism: %.6f vs %.6f",
			res.DurationSec, res2.DurationSec)
	}
}

// TestControlPlaneDropRetry: deterministic message loss without an outage
// is absorbed by the retry machinery — the job completes and nothing
// degrades when retries succeed.
func TestControlPlaneDropRetry(t *testing.T) {
	cl := New(
		WithScheduler(SchedulerPythia),
		WithOversubscription(10),
		WithSeed(5),
		WithControlPlaneFaults(ControlPlaneFaults{
			InstallTimeoutSec: 0.05,
			MaxRetries:        3,
			RetryBackoffSec:   0.05,
			DropEvery:         4,
		}),
	)
	res, err := cl.TryRunJob(SortJob(2*GB, 8, 5))
	if err != nil {
		t.Fatalf("job failed under lossy control plane: %v", err)
	}
	f := cl.Faults()
	if f.DroppedFlowMods == 0 || f.Retransmissions == 0 {
		t.Fatalf("expected drops and retransmissions, got %+v", f)
	}
	if res.RulesInstalled == 0 {
		t.Fatal("no rules installed despite successful retries")
	}
}

// TestPerJobRuleDeltas is the regression for the cumulative-RulesInstalled
// bug: two identical jobs run back to back must each report their own rule
// count, not the running total.
func TestPerJobRuleDeltas(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithOversubscription(10), WithSeed(3))
	spec := SortJob(2*GB, 8, 5)
	r1 := cl.RunJob(spec)
	r2 := cl.RunJob(spec)
	if r1.RulesInstalled == 0 || r2.RulesInstalled == 0 {
		t.Fatalf("expected rules for both jobs, got %d and %d", r1.RulesInstalled, r2.RulesInstalled)
	}
	// With the bug, job 2 reported the cumulative counter: at least double
	// job 1's own installs.
	if r2.RulesInstalled >= 2*r1.RulesInstalled {
		t.Fatalf("job 2 reports cumulative rules: job1=%d job2=%d", r1.RulesInstalled, r2.RulesInstalled)
	}
}

// TestTryRunJobsDeadline: a fully partitioned fabric cannot complete a job;
// with a deadline TryRunJobs reports the starvation as an error instead of
// looping in virtual time or panicking.
func TestTryRunJobsDeadline(t *testing.T) {
	cl := New(WithScheduler(SchedulerECMP), WithSeed(2), WithDeadline(120))
	for _, tr := range cl.Trunks() {
		cl.FailLink(tr)
	}
	// Enough reducers to span both racks, so the shuffle needs the trunks.
	_, err := cl.TryRunJobs(SortJob(4*GB, 10, 5))
	if err == nil {
		t.Fatal("expected starvation error on a partitioned fabric")
	}
	if !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestTryRunJobsSubmitError: an invalid spec surfaces as an error, not a
// panic.
func TestTryRunJobsSubmitError(t *testing.T) {
	cl := New()
	if _, err := cl.TryRunJobs(&JobSpec{}); err == nil {
		t.Fatal("expected a submission error for the zero JobSpec")
	}
}

// TestCompareOptions: the variadic Compare accepts arbitrary options —
// including a non-default topology — and TryCompare matches it.
func TestCompareOptions(t *testing.T) {
	spec := ToySortJob()
	a1, b1, _ := Compare(spec, SchedulerECMP, SchedulerPythia, WithOversubscription(5), WithSeed(9))
	a2, b2, _, err := TryCompare(spec, SchedulerECMP, SchedulerPythia, WithOversubscription(5), WithSeed(9))
	if err != nil {
		t.Fatalf("TryCompare: %v", err)
	}
	if a1 != a2 || b1 != b2 {
		t.Fatalf("TryCompare diverges from Compare: (%.3f,%.3f) vs (%.3f,%.3f)", a1, b1, a2, b2)
	}
	a3, b3, _ := Compare(spec, SchedulerECMP, SchedulerPythia,
		WithTopology(LeafSpineTopology(2, 2, 3)), WithSeed(9))
	if a3 <= 0 || b3 <= 0 {
		t.Fatalf("Compare on leaf-spine produced nonpositive times: %.3f, %.3f", a3, b3)
	}
}

// TestAllocModesAgreeViaFacade pins the schedule of the trial on which the
// facade's allocator and kernel options used to be compared with each other
// (see pins_test.go for where the constants come from).
func TestAllocModesAgreeViaFacade(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithOversubscription(10), WithSeed(7))
	d := cl.RunJob(SortJob(2*GB, 8, 7)).DurationSec
	if got, want := math.Float64bits(d), uint64(0x4030dd8e05a7536a); got != want {
		t.Fatalf("job time %.9f (bits %#x), pinned bits %#x", d, got, want)
	}
	wantFlowHistory(t, cl, 64, 0x19a04917e14078eb)
}
