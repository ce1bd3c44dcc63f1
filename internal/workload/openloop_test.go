package workload

import (
	"math"
	"reflect"
	"testing"
)

func TestOpenLoopDeterministicPrefix(t *testing.T) {
	cfg := OpenLoopConfig{BaseRateJobsPerSec: 0.1, DiurnalAmplitude: 0.3, Seed: 11}
	a := OpenLoop(cfg)
	b := OpenLoop(cfg)
	for i := 0; i < 200; i++ {
		ja, jb := a.Next(), b.Next()
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("arrival %d diverged between identically seeded streams:\n%+v\n%+v", i, ja, jb)
		}
	}
}

func TestOpenLoopUntilMatchesNext(t *testing.T) {
	cfg := OpenLoopConfig{BaseRateJobsPerSec: 0.2, Seed: 3}
	jobs := OpenLoop(cfg).Until(600)
	manual := OpenLoop(cfg)
	for i, j := range jobs {
		if got := manual.Next(); !reflect.DeepEqual(got, j) {
			t.Fatalf("Until arrival %d differs from Next sequence", i)
		}
	}
	if len(jobs) == 0 {
		t.Fatal("no arrivals in 600 s at 0.2 job/s")
	}
	last := jobs[len(jobs)-1]
	if last.SubmitAtSec >= 600 {
		t.Fatalf("Until leaked an arrival at %v past the 600 s horizon", last.SubmitAtSec)
	}
}

func TestOpenLoopSeedChangesStream(t *testing.T) {
	a := OpenLoop(OpenLoopConfig{Seed: 1}).Next()
	b := OpenLoop(OpenLoopConfig{Seed: 2}).Next()
	if a.SubmitAtSec == b.SubmitAtSec {
		t.Fatal("different seeds produced the same first arrival time")
	}
}

func TestOpenLoopArrivalRate(t *testing.T) {
	// Homogeneous process (no diurnal swing): the empirical rate over a
	// long horizon must track the configured base rate.
	const rate = 0.5
	const horizon = 20000.0
	jobs := OpenLoop(OpenLoopConfig{BaseRateJobsPerSec: rate, Seed: 5}).Until(horizon)
	got := float64(len(jobs)) / horizon
	if math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("empirical rate = %v, want ~%v", got, rate)
	}
	// Arrival times must be strictly increasing.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitAtSec <= jobs[i-1].SubmitAtSec {
			t.Fatalf("arrivals not increasing at %d: %v then %v",
				i, jobs[i-1].SubmitAtSec, jobs[i].SubmitAtSec)
		}
	}
	// Seq numbers the stream.
	for i, j := range jobs {
		if j.Seq != i {
			t.Fatalf("arrival %d has Seq %d", i, j.Seq)
		}
	}
}

func TestOpenLoopDiurnalModulation(t *testing.T) {
	// With a strong diurnal swing the first half-period (sin > 0) must see
	// visibly more arrivals than the second (sin < 0).
	cfg := OpenLoopConfig{BaseRateJobsPerSec: 0.5, DiurnalAmplitude: 0.8,
		DiurnalPeriodSec: 2000, Seed: 7}
	s := OpenLoop(cfg)
	if peak, trough := s.Rate(500), s.Rate(1500); peak <= trough {
		t.Fatalf("Rate(peak) %v <= Rate(trough) %v", peak, trough)
	}
	jobs := s.Until(20000)
	var up, down int
	for _, j := range jobs {
		phase := math.Mod(j.SubmitAtSec, cfg.DiurnalPeriodSec)
		if phase < cfg.DiurnalPeriodSec/2 {
			up++
		} else {
			down++
		}
	}
	if float64(up) < 1.5*float64(down) {
		t.Fatalf("diurnal swing invisible: %d arrivals in the up phase vs %d down", up, down)
	}
}

func TestOpenLoopTenantMixAndMetadata(t *testing.T) {
	jobs := OpenLoop(OpenLoopConfig{BaseRateJobsPerSec: 1, Seed: 13}).Until(5000)
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.Tenant]++
		if j.Spec == nil || j.Spec.Validate() != nil {
			t.Fatalf("arrival %d has invalid spec", j.Seq)
		}
		switch j.Class {
		case "map-heavy", "transform", "shuffle-heavy":
		default:
			t.Fatalf("arrival %d has unknown class %q", j.Seq, j.Class)
		}
	}
	n := float64(len(jobs))
	// DefaultTenants weights are 0.5 / 0.3 / 0.2.
	for name, want := range map[string]float64{"interactive": 0.5, "analytics": 0.3, "batch": 0.2} {
		got := float64(counts[name]) / n
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("tenant %s share = %.3f, want ~%.2f (counts %v)", name, got, want, counts)
		}
	}
}

func TestOpenLoopSizesRespectTenantBounds(t *testing.T) {
	tenants := DefaultTenants()
	caps := map[string]float64{}
	for _, tn := range tenants {
		caps[tn.Name] = tn.MaxInputBytes
	}
	jobs := OpenLoop(OpenLoopConfig{BaseRateJobsPerSec: 1, Seed: 17}).Until(3000)
	for _, j := range jobs {
		var total float64
		for _, d := range j.Spec.MapOutputs {
			for _, v := range d {
				total += v
			}
		}
		// Shuffle volume is input × class ratio ≤ max input × 1.2.
		if limit := caps[j.Tenant] * 1.3; total > limit {
			t.Fatalf("tenant %s job shuffles %v bytes, above cap-derived limit %v",
				j.Tenant, total, limit)
		}
	}
}

// Each config would otherwise hang: a non-positive weight has no share to
// draw, thinning never accepts at a negative or NaN rate, and an infinite
// rate draws zero gaps, so Until never reaches its horizon.
func TestOpenLoopRejectsNonPositiveWeight(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  OpenLoopConfig
	}{
		{"zero tenant weight", OpenLoopConfig{Tenants: []Tenant{{Name: "bad", Weight: 0}}}},
		{"negative rate", OpenLoopConfig{BaseRateJobsPerSec: -0.05}},
		{"NaN rate", OpenLoopConfig{BaseRateJobsPerSec: math.NaN()}},
		{"infinite rate", OpenLoopConfig{BaseRateJobsPerSec: math.Inf(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			OpenLoop(tc.cfg)
		})
	}
}
