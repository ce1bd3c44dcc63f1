package pythia

import (
	"errors"
	"strings"
	"testing"
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
