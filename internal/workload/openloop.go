package workload

import (
	"fmt"
	"math"

	"pythia/internal/hadoop"
	"pythia/internal/stats"
)

// This file is the continuous open-loop workload plane: instead of
// materializing a fixed job list the way SyntheticFacebookTrace does, a
// Stream draws an unbounded sequence of jobs from a seeded RNG — a
// non-homogeneous Poisson arrival process (base rate with sinusoidal
// diurnal modulation, generated by thinning), heavy-tailed lognormal job
// sizes, and a multi-tenant mix where each tenant carries its own size
// distribution and job-class mix. The facade's OpenLoopJobs feeds it to
// SubmitAt.

// Tenant is one slice of the open-loop mix. Each arrival is attributed to
// a tenant drawn by Weight; the tenant then shapes the job's size and
// class.
type Tenant struct {
	Name string
	// Weight is the tenant's share of arrivals (normalized over the mix).
	Weight float64
	// MedianInputBytes and InputSigma parameterize the tenant's lognormal
	// job-size distribution; sizes clamp to [64 MB, MaxInputBytes].
	MedianInputBytes float64
	InputSigma       float64
	MaxInputBytes    float64
	// Class mix (fractions; normalized): map-heavy jobs shuffle ~5% of
	// input, transform jobs ~40%, shuffle-heavy jobs ~120%.
	MapHeavyFrac     float64
	TransformFrac    float64
	ShuffleHeavyFrac float64
}

// DefaultTenants is the three-way production mix: latency-sensitive interactive queries, medium analytics, and big
// low-priority batch jobs — the shape BigDataSDNSim-style big-data-cloud
// studies model.
func DefaultTenants() []Tenant {
	return []Tenant{
		{Name: "interactive", Weight: 0.5,
			MedianInputBytes: 256 * MB, InputSigma: 0.7, MaxInputBytes: 2 * GB,
			MapHeavyFrac: 0.7, TransformFrac: 0.3},
		{Name: "analytics", Weight: 0.3,
			MedianInputBytes: 1 * GB, InputSigma: 1.0, MaxInputBytes: 8 * GB,
			MapHeavyFrac: 0.2, TransformFrac: 0.5, ShuffleHeavyFrac: 0.3},
		{Name: "batch", Weight: 0.2,
			MedianInputBytes: 3 * GB, InputSigma: 1.2, MaxInputBytes: 16 * GB,
			MapHeavyFrac: 0.2, TransformFrac: 0.3, ShuffleHeavyFrac: 0.5},
	}
}

// OpenLoopConfig parameterizes the continuous arrival process.
type OpenLoopConfig struct {
	// BaseRateJobsPerSec is the mean Poisson arrival rate before diurnal
	// modulation (the open-loop "offered load" knob the frontier sweeps).
	BaseRateJobsPerSec float64
	// DiurnalAmplitude in [0, 1) swings the instantaneous rate
	// sinusoidally: rate(t) = base · (1 + A·sin(2πt/period)). 0 keeps the
	// process homogeneous.
	DiurnalAmplitude float64
	// DiurnalPeriodSec is the modulation period (a compressed "day").
	DiurnalPeriodSec float64
	// Tenants is the mix; nil takes DefaultTenants.
	Tenants []Tenant
	Seed    uint64
}

// Defaults fills unset fields.
func (c OpenLoopConfig) Defaults() OpenLoopConfig {
	if c.BaseRateJobsPerSec == 0 {
		c.BaseRateJobsPerSec = 1.0 / 20
	}
	if c.DiurnalPeriodSec == 0 {
		c.DiurnalPeriodSec = 3600
	}
	if c.DiurnalAmplitude < 0 {
		c.DiurnalAmplitude = 0
	}
	if c.DiurnalAmplitude >= 1 {
		c.DiurnalAmplitude = 0.99
	}
	if len(c.Tenants) == 0 {
		c.Tenants = DefaultTenants()
	}
	return c
}

// OpenJob is one arrival of the open-loop stream: the job spec plus the
// tenant and class it was drawn for.
type OpenJob struct {
	Spec        *hadoop.JobSpec
	SubmitAtSec float64
	Tenant      string
	Class       string
	// Seq is the arrival's index in the stream (0-based).
	Seq int
}

// Stream draws open-loop arrivals one at a time. It never exhausts: every
// Next call advances the seeded RNG deterministically, so two streams with
// the same config emit identical prefixes regardless of how far either is
// consumed.
type Stream struct {
	cfg       OpenLoopConfig
	arriveRNG *stats.RNG
	thinRNG   *stats.RNG
	tenantRNG *stats.RNG
	sizeRNG   *stats.RNG
	classRNG  *stats.RNG
	cumW      []float64 // cumulative normalized tenant weights
	at        float64
	n         int
}

// OpenLoop starts a stream. The RNG substreams are split up front so the
// draw order of one dimension never perturbs another. It panics on a
// negative, NaN or infinite base rate: thinning never accepts a candidate
// at a rate that is not positive, and an infinite one draws zero gaps, so
// Next or Until would never return.
func OpenLoop(cfg OpenLoopConfig) *Stream {
	cfg = cfg.Defaults()
	if r := cfg.BaseRateJobsPerSec; !(r > 0) || math.IsInf(r, 1) {
		panic(fmt.Sprintf("workload: BaseRateJobsPerSec %v is not a positive finite rate", r))
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x0BE17007)
	s := &Stream{
		cfg:       cfg,
		arriveRNG: rng.Split(1),
		thinRNG:   rng.Split(2),
		tenantRNG: rng.Split(3),
		sizeRNG:   rng.Split(4),
		classRNG:  rng.Split(5),
	}
	total := 0.0
	for _, t := range cfg.Tenants {
		if t.Weight <= 0 {
			panic(fmt.Sprintf("workload: tenant %q needs positive weight", t.Name))
		}
		total += t.Weight
	}
	cum := 0.0
	s.cumW = make([]float64, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		cum += t.Weight / total
		s.cumW[i] = cum
	}
	return s
}

// Rate is the instantaneous arrival intensity at time t — the diurnally
// modulated base rate.
func (s *Stream) Rate(t float64) float64 {
	return s.cfg.BaseRateJobsPerSec *
		(1 + s.cfg.DiurnalAmplitude*math.Sin(2*math.Pi*t/s.cfg.DiurnalPeriodSec))
}

// Next draws the next arrival. Arrival times follow a non-homogeneous
// Poisson process via Lewis–Shedler thinning: candidate gaps are
// exponential at the peak rate, and each candidate survives with
// probability rate(t)/peak.
func (s *Stream) Next() OpenJob {
	peak := s.cfg.BaseRateJobsPerSec * (1 + s.cfg.DiurnalAmplitude)
	for {
		s.at += s.arriveRNG.Exp(1 / peak)
		if s.thinRNG.Float64()*peak <= s.Rate(s.at) {
			break
		}
	}

	// Tenant draw by cumulative weight, then the tenant's size and class.
	u := s.tenantRNG.Float64()
	ti := len(s.cumW) - 1
	for i, c := range s.cumW {
		if u < c {
			ti = i
			break
		}
	}
	tn := s.cfg.Tenants[ti]

	input := tn.MedianInputBytes * s.sizeRNG.LogNormal(0, tn.InputSigma)
	if input < 64*MB {
		input = 64 * MB
	}
	if tn.MaxInputBytes > 0 && input > tn.MaxInputBytes {
		input = tn.MaxInputBytes
	}

	classTotal := tn.MapHeavyFrac + tn.TransformFrac + tn.ShuffleHeavyFrac
	if classTotal <= 0 {
		classTotal = 1
		tn.TransformFrac = 1
	}
	v := s.classRNG.Float64() * classTotal
	var (
		class string
		ratio float64
		skew  float64
	)
	switch {
	case v < tn.MapHeavyFrac:
		class, ratio, skew = "map-heavy", 0.05, 1.0
	case v < tn.MapHeavyFrac+tn.TransformFrac:
		class, ratio, skew = "transform", 0.4, 0.6
	default:
		class, ratio, skew = "shuffle-heavy", 1.2, 0.8
	}
	reduces := 4 + int(input/(2*GB))*2
	if reduces > 16 {
		reduces = 16
	}
	spec := Generate(Config{
		Name:         fmt.Sprintf("open-%05d-%s-%s", s.n, tn.Name, class),
		InputBytes:   input,
		BlockBytes:   HDFSBlock,
		NumReduces:   reduces,
		OutputRatio:  ratio,
		SkewExponent: skew,
		// Same calibration as the closed-loop trace: production maps are
		// compute-bound well below raw disk rates.
		MapRateBytesPerSec: 15 * MB,
		Seed:               s.cfg.Seed + uint64(s.n)*104729,
	})
	j := OpenJob{
		Spec:        spec,
		SubmitAtSec: s.at,
		Tenant:      tn.Name,
		Class:       class,
		Seq:         s.n,
	}
	s.n++
	return j
}

// Until materializes every arrival with SubmitAtSec < horizonSec, in
// arrival order. The first arrival at or past the horizon is consumed and
// discarded — the horizon censors the stream's tail, so callers wanting to
// continue past it should use Next directly.
func (s *Stream) Until(horizonSec float64) []OpenJob {
	var out []OpenJob
	for {
		j := s.Next()
		if j.SubmitAtSec >= horizonSec {
			return out
		}
		out = append(out, j)
	}
}
