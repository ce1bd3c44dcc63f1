package stats

// zipfWeight is the unnormalized Zipf weight 1/(rank+1)^s. MapReduce key
// spaces are commonly Zipf-distributed, which is the root cause of the
// reducer skew the Pythia paper targets (Fig. 1a shows reducer-0 receiving
// 5x the bytes of reducer-1).
func zipfWeight(rank int, s float64) float64 {
	x := float64(rank + 1)
	// x^-s without math.Pow in the common integer cases keeps this hot
	// path cheap; fall back to the general form otherwise.
	switch s {
	case 0:
		return 1
	case 1:
		return 1 / x
	case 2:
		return 1 / (x * x)
	}
	return pow(x, -s)
}

func pow(x, y float64) float64 {
	return exp(y * ln(x))
}

// Thin wrappers so the dependency on math stays localized and mockable in
// tests.
func exp(x float64) float64 { return mathExp(x) }
func ln(x float64) float64  { return mathLog(x) }

// SkewWeights distributes a total across n buckets with the given Zipf
// exponent: weights[i] is the fraction of total assigned to bucket i. The
// weights sum to 1. This is how the workload generators shape per-reducer
// partition sizes.
func SkewWeights(n int, s float64) []float64 {
	if n <= 0 {
		panic("stats: SkewWeights with non-positive n")
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = zipfWeight(i, s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
