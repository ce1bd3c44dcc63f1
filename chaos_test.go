package pythia

import "testing"

// The seeded chaos harness: randomized faults in all three planes — data
// (trunk failure), control (controller outage), prediction (management-star
// faults and outage, monitor crashes, noisy predictions) — under every
// scheduler. The invariants: every job completes, no bookings leak past
// completion, and two same-seed runs produce bit-identical histories.

type chaosOutcome struct {
	results []JobResult
	faults  FaultReport
}

// runChaos builds a fully faulted cluster and runs two concurrent jobs
// through the storm.
func runChaos(t *testing.T, k SchedulerKind) chaosOutcome {
	t.Helper()
	cl, results := runChaosCluster(t, k)
	return chaosOutcome{results: results, faults: cl.Faults()}
}

// runChaosCluster is the storm itself, returning the cluster for callers
// that inspect more than results and fault counters (the flight-recorder
// golden tests). Extra options ride on top of the standard fault stack.
func runChaosCluster(t *testing.T, k SchedulerKind, extra ...Option) (*Cluster, []JobResult) {
	t.Helper()
	cl := New(append([]Option{
		WithScheduler(k),
		WithOversubscription(10),
		WithSeed(13),
		WithDeadline(600),
		WithMgmtFaults(MgmtFaults{
			DropProb:     0.10,
			DupProb:      0.15,
			JitterMaxSec: 0.002,
			Seed:         99,
		}),
		WithMonitorFaults(MonitorFaults{CrashProb: 0.10, DowntimeSec: 4, Seed: 7}),
		WithPredictionError(0.25, 3),
		WithBookingTTL(30),
		WithControlPlaneFaults(ControlPlaneFaults{
			InstallTimeoutSec: 0.05,
			MaxRetries:        2,
			RetryBackoffSec:   0.1,
		}),
	}, extra...)...)
	// Data plane: lose a trunk mid-shuffle, recover later.
	trunks := cl.Trunks()
	cl.At(5, func() { cl.FailLink(trunks[0]) })
	cl.At(25, func() { cl.RecoverLink(trunks[0]) })
	// Control plane: controller outage (no-op for ECMP/Hedera).
	cl.At(8, func() { cl.FailController() })
	cl.At(18, func() { cl.RecoverController() })
	// Prediction plane: management-star outage window and a scripted
	// monitor crash (supervised restart after 4 s) on top of the seeded
	// per-message faults.
	cl.At(10, func() { cl.FailMgmt() })
	cl.At(14, func() { cl.RecoverMgmt() })
	cl.At(3, func() { cl.CrashMonitor(1) })

	results, err := cl.TryRunJobs(
		SortJob(4*GB, 8, 5),
		NutchJob(1*GB, 4, 6),
	)
	if err != nil {
		t.Fatalf("%v: jobs did not survive the chaos run: %v", k, err)
	}
	for _, r := range results {
		if r.DurationSec <= 0 {
			t.Fatalf("%v: job %q reports nonpositive duration", k, r.Name)
		}
	}
	return cl, results
}

func TestChaosAllPlanesAllSchedulers(t *testing.T) {
	for _, k := range allSchedulers {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			a := runChaos(t, k)
			// Faults actually happened on the prediction plane.
			f := a.faults
			if f.MgmtDropped == 0 || f.MgmtDuplicated == 0 {
				t.Fatalf("no management faults fired: %+v", f)
			}
			if f.MonitorCrashes == 0 {
				t.Fatal("scripted monitor crash not recorded")
			}
			// No reservations survive their job.
			if f.LeakedBookings != 0 {
				t.Fatalf("%d bookings leaked past job completion", f.LeakedBookings)
			}
			// Same seed, bit-identical history: durations and every fault
			// counter match across independent runs.
			b := runChaos(t, k)
			for i := range a.results {
				if a.results[i].DurationSec != b.results[i].DurationSec {
					t.Fatalf("same seed, different durations for %q: %.9f vs %.9f",
						a.results[i].Name, a.results[i].DurationSec, b.results[i].DurationSec)
				}
			}
			if a.faults != b.faults {
				t.Fatalf("same seed, different fault history:\n%+v\nvs\n%+v", a.faults, b.faults)
			}
		})
	}
}

// TestChaosShardCountInvariant: the full three-plane storm on the Pythia
// scheduler is bit-identical at every collector shard count, and no shard
// layout leaks a booking past job completion.
func TestChaosShardCountInvariant(t *testing.T) {
	run := func(shards int) chaosOutcome {
		cl, results := runChaosCluster(t, SchedulerPythia, withCollectorShards(shards))
		return chaosOutcome{results: results, faults: cl.Faults()}
	}
	ref := run(1)
	if ref.faults.LeakedBookings != 0 {
		t.Fatalf("single-shard storm leaked %d bookings", ref.faults.LeakedBookings)
	}
	for _, shards := range []int{2, 8} {
		got := run(shards)
		for i := range ref.results {
			if got.results[i] != ref.results[i] {
				t.Errorf("shards=%d: job %q result %+v != %+v",
					shards, ref.results[i].Name, got.results[i], ref.results[i])
			}
		}
		if got.faults != ref.faults {
			t.Errorf("shards=%d: fault history diverged:\n%+v\nvs\n%+v", shards, got.faults, ref.faults)
		}
		if got.faults.LeakedBookings != 0 {
			t.Errorf("shards=%d: %d bookings leaked past job completion", shards, got.faults.LeakedBookings)
		}
	}
}

// TestZeroFaultConfigGolden: installing the whole prediction-plane fault
// stack with every probability at zero must be bit-identical to not
// installing it at all — no stray RNG draws, no behavior change.
func TestZeroFaultConfigGolden(t *testing.T) {
	spec := SortJob(4*GB, 8, 5)
	run := func(opts ...Option) JobResult {
		base := []Option{WithScheduler(SchedulerPythia), WithOversubscription(10), WithSeed(11)}
		return New(append(base, opts...)...).RunJob(spec)
	}
	// Fixed-latency management path.
	plain := run()
	armed := run(
		WithMonitorFaults(MonitorFaults{CrashProb: 0, Seed: 42}),
		WithPredictionError(0, 42),
		WithBookingTTL(300),
	)
	if plain.DurationSec != armed.DurationSec {
		t.Fatalf("zero-valued fault stack changed the schedule: %.9f vs %.9f",
			plain.DurationSec, armed.DurationSec)
	}
	// Explicit management network: an all-zero MgmtFaults must match the
	// plain explicit control plane bit for bit.
	explicit := run(WithExplicitControlPlane())
	zeroFaults := run(WithMgmtFaults(MgmtFaults{Seed: 42}))
	if explicit.DurationSec != zeroFaults.DurationSec {
		t.Fatalf("zero-valued MgmtFaults changed the schedule: %.9f vs %.9f",
			explicit.DurationSec, zeroFaults.DurationSec)
	}
}

// TestMgmtTelemetryExposed: the management network's traffic accounting is
// reachable through the facade without internal imports (satellite of the
// prediction-plane issue).
func TestMgmtTelemetryExposed(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithOversubscription(10),
		WithSeed(3), WithExplicitControlPlane())
	res := cl.RunJob(SortJob(2*GB, 8, 5))
	if res.DurationSec <= 0 {
		t.Fatal("job failed")
	}
	f := cl.Faults()
	if f.MgmtMessages == 0 || f.MgmtBytes <= 0 {
		t.Fatalf("management telemetry empty: %+v", f)
	}
	if f.MgmtDropped != 0 || f.MgmtDuplicated != 0 || f.MgmtDeferred != 0 {
		t.Fatalf("fault counters nonzero on a healthy fabric: %+v", f)
	}
	if f.LeakedBookings != 0 {
		t.Fatalf("healthy run leaked %d bookings", f.LeakedBookings)
	}
	// The star carries the middleware's messages plus the controller's
	// FLOW_MODs, so the network-side byte count dominates the
	// middleware-only figure.
	if f.MgmtBytes < cl.Overhead().ManagementBytes {
		t.Fatalf("network bytes %v below middleware bytes %v", f.MgmtBytes, cl.Overhead().ManagementBytes)
	}
}

// TestPredictionErrorDegradesGracefully: large prediction noise may cost
// schedule quality but must never break completion or determinism.
func TestPredictionErrorDegradesGracefully(t *testing.T) {
	run := func(factor float64) float64 {
		cl := New(WithScheduler(SchedulerPythia), WithOversubscription(10),
			WithSeed(5), WithPredictionError(factor, 17))
		return cl.RunJob(SortJob(4*GB, 8, 5)).DurationSec
	}
	noisy := run(0.5)
	if noisy <= 0 {
		t.Fatal("noisy run failed")
	}
	if again := run(0.5); again != noisy {
		t.Fatalf("same noise seed, different schedules: %.9f vs %.9f", noisy, again)
	}
}
