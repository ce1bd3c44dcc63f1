package stats

import (
	"math"
	"sort"
)

// mathExp and mathLog are indirections used by zipf.go.
var (
	mathExp = math.Exp
	mathLog = math.Log
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Summarize computes descriptive statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(varsum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P95 = Percentile(sorted, 0.95)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending-sorted
// sample using linear interpolation. It panics on an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tTable holds two-sided 95% t-distribution critical values for small
// degrees of freedom (df = index); larger samples use the normal 1.96.
var tTable = []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042}

// CI95 returns the half-width of the 95% confidence interval of the sample
// mean (Student's t for n ≤ 31, normal beyond). Samples of fewer than two
// points yield 0.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := Summarize(xs)
	df := n - 1
	t := 1.96
	if df < len(tTable) {
		t = tTable[df]
	}
	return t * s.Stddev / math.Sqrt(float64(n))
}

// Speedup returns the relative improvement of new over old as used in the
// paper's Figures 3 and 4: (old - new) / new. A positive value means new is
// faster; 0.46 corresponds to the paper's headline "46%".
func Speedup(oldTime, newTime float64) float64 {
	if newTime <= 0 {
		return 0
	}
	return (oldTime - newTime) / newTime
}
