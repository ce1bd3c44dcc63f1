// Package stats provides the deterministic random-number machinery and the
// small statistical helpers the simulators and the experiment harness rely
// on: a splitmix64 PRNG (so every experiment is exactly reproducible from a
// seed), Zipf weights for modeling MapReduce key skew, and
// summary-statistics utilities.
package stats

import "math"

// RNG is a splitmix64 pseudo-random generator. It is deliberately tiny and
// allocation-free; distinct simulation components derive independent streams
// via Split so that adding randomness in one component does not perturb the
// sequences seen by another.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state and the label, and advancing
// the child does not advance the parent beyond this call.
func (r *RNG) Split(label uint64) *RNG {
	return &RNG{state: r.Uint64() ^ Mix64(label^0x9e3779b97f4a7c15)}
}

// Mix64 is the splitmix64 finalizer: an avalanche mix in which every output
// bit depends on every input bit. The RNG, the ECMP flow hash and the
// switches' table-miss hash all finish with it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed value whose underlying normal
// has parameters mu, sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}
