package pythia

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// The panicking runners' error-contract audit: every panicking entry point
// has a Try counterpart, and every "run stopped with work left" error
// matches ErrUnfinished.

// TestTryRunJobsUnfinishedSentinel: a deadline too short for the job yields
// an ErrUnfinished error from TryRunJobs (and a panic with the same text
// from RunJobs).
func TestTryRunJobsUnfinishedSentinel(t *testing.T) {
	cl := New(WithDeadline(0.001))
	_, err := cl.TryRunJobs(ToySortJob())
	if err == nil {
		t.Fatal("expected an error from a 1ms deadline")
	}
	if !errors.Is(err, ErrUnfinished) {
		t.Fatalf("error %v does not match ErrUnfinished", err)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunJobs did not panic on the same deadline")
		}
		if !strings.Contains(r.(string), ErrUnfinished.Error()) {
			t.Fatalf("panic %q does not carry the ErrUnfinished text", r)
		}
	}()
	New(WithDeadline(0.001)).RunJobs(ToySortJob())
}

// TestTryRunUntilUnfinishedSentinel: jobs past the horizon match the same
// sentinel through the open-loop entry point.
func TestTryRunUntilUnfinishedSentinel(t *testing.T) {
	cl := New()
	cl.SubmitAt(0, ToySortJob())
	if _, err := cl.TryRunUntil(0.001); !errors.Is(err, ErrUnfinished) {
		t.Fatalf("TryRunUntil error %v does not match ErrUnfinished", err)
	}
}

// TestTryCompareUnfinishedSentinel: TryCompare surfaces a failing run as an
// ErrUnfinished error naming the scheduler; Compare panics on it.
func TestTryCompareUnfinishedSentinel(t *testing.T) {
	_, _, _, err := TryCompare(ToySortJob(), SchedulerECMP, SchedulerPythia, WithDeadline(0.001))
	if !errors.Is(err, ErrUnfinished) {
		t.Fatalf("TryCompare error %v does not match ErrUnfinished", err)
	}
	if !strings.Contains(err.Error(), SchedulerECMP.String()) {
		t.Fatalf("TryCompare error %v does not name the failing scheduler", err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Compare did not panic on a failing run")
		}
	}()
	Compare(ToySortJob(), SchedulerECMP, SchedulerPythia, WithDeadline(0.001))
}

// TestTryCompareMatchesCompare: on a healthy run the Try variant returns
// the identical numbers.
func TestTryCompareMatchesCompare(t *testing.T) {
	ta, tb, sp := Compare(ToySortJob(), SchedulerECMP, SchedulerPythia, WithSeed(3))
	ta2, tb2, sp2, err := TryCompare(ToySortJob(), SchedulerECMP, SchedulerPythia, WithSeed(3))
	if err != nil {
		t.Fatalf("TryCompare: %v", err)
	}
	if ta != ta2 || tb != tb2 || sp != sp2 {
		t.Fatalf("TryCompare (%v,%v,%v) != Compare (%v,%v,%v)", ta2, tb2, sp2, ta, tb, sp)
	}
}

// TestOutOfRangeHadoopKnobsPanic: a negative ParallelCopies never starts a
// fetch and a slow-start fraction above 1 never launches a reducer, so a
// run would spin on heartbeats forever. New rejects both, naming the knob;
// in-range values (0 meaning "default") still run.
func TestOutOfRangeHadoopKnobsPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
		knob string // "" when New must not panic
	}{
		{"copies=-1", WithParallelCopies(-1), "ParallelCopies"},
		{"slowstart=1.5", WithReduceSlowstart(1.5), "SlowstartFraction"},
		{"slowstart=-0.1", WithReduceSlowstart(-0.1), "SlowstartFraction"},
		{"slowstart=NaN", WithReduceSlowstart(math.NaN()), "SlowstartFraction"},
		{"copies=0", WithParallelCopies(0), ""},
		{"copies=2", WithParallelCopies(2), ""},
		{"copies=10", WithParallelCopies(10), ""},
		{"slowstart=0", WithReduceSlowstart(0), ""},
		{"slowstart=0.5", WithReduceSlowstart(0.5), ""},
		{"slowstart=0.9", WithReduceSlowstart(0.9), ""},
		{"slowstart=1", WithReduceSlowstart(1), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				switch {
				case tc.knob == "" && r != nil:
					t.Fatalf("in-range value panicked: %v", r)
				case tc.knob != "" && r == nil:
					t.Fatalf("New did not panic")
				case tc.knob != "" && !strings.Contains(fmt.Sprint(r), tc.knob):
					t.Fatalf("panic %q does not name %s", r, tc.knob)
				}
			}()
			cl := New(tc.opt)
			if _, err := cl.TryRunJob(ToySortJob()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNonFiniteLinkRatePanics: a NaN or infinite link rate once reached the
// allocator, where a 2 GB sort never finished under any scheduler. New now
// panics with AddLink's message, as it does for a negative rate, and each
// case must settle within a wall-time bound rather than hang.
func TestNonFiniteLinkRatePanics(t *testing.T) {
	const bound = 20 * time.Second
	for _, sched := range []SchedulerKind{SchedulerECMP, SchedulerPythia, SchedulerHedera} {
		for _, gbps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			t.Run(fmt.Sprintf("%v_%v", sched, gbps), func(t *testing.T) {
				done := make(chan any, 1)
				go func() {
					defer func() { done <- recover() }()
					New(WithScheduler(sched), WithLinkRateGbps(gbps)).TryRunJob(SortJob(2*GB, 5, 1))
				}()
				select {
				case r := <-done:
					if r == nil || !strings.Contains(fmt.Sprint(r), "topology: AddLink with capacity") {
						t.Fatalf("recovered %v, want AddLink's capacity panic", r)
					}
				case <-time.After(bound):
					t.Fatalf("still running after %v", bound)
				}
			})
		}
	}
}

// withCollectorShards partitions the Pythia collector's per-job state across
// n shards, the layout the online service (NewServer) uses for concurrent
// ingest. Placement decisions merge in a deterministic order, so a simulated
// run is bit-identical at any shard count — which is why this is a test
// helper and not a facade option.
func withCollectorShards(n int) Option { return func(c *config) { c.pythiaCfg.Shards = n } }

// TestCollectorShardsInvariantFacade: the collector shard count never changes
// results — the facade-level spelling of the sharding determinism contract.
func TestCollectorShardsInvariantFacade(t *testing.T) {
	run := func(shards int) JobResult {
		cl := New(WithScheduler(SchedulerPythia), WithOversubscription(10),
			WithSeed(7), WithCriticality(), withCollectorShards(shards))
		return cl.RunJob(SortJob(2*GB, 8, 7))
	}
	ref := run(1)
	for _, shards := range []int{2, 8} {
		if got := run(shards); got != ref {
			t.Errorf("shards=%d: result %+v != %+v", shards, got, ref)
		}
	}
}
