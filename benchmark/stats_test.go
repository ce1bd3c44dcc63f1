package main

import (
	"math"
	"testing"
)

func TestPercentileFewSamples(t *testing.T) {
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := percentile([]float64{7}, q); got != 7 {
			t.Errorf("one sample, q=%v: got %v, want 7", q, got)
		}
	}
	two := []float64{3, 9}
	if got := percentile(two, 0.5); got != 3 {
		t.Errorf("two samples p50: got %v, want 3 (nearest rank)", got)
	}
	if got := percentile(two, 0.99); got != 9 {
		t.Errorf("two samples p99: got %v, want 9", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(s, q); got != want {
			t.Errorf("q=%v: got %v, want %v", q, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{4}, 4}, {[]float64{9, 1}, 5}, {[]float64{5, 1, 9}, 5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2}, 0, 6, 12},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
	} {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
