package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(9)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered %d values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(5)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with different labels produced same first draw")
	}
	// Advancing a child must not perturb the parent's future stream.
	p2 := NewRNG(5)
	p2.Split(1)
	p2.Split(2)
	child := NewRNG(5).Split(1)
	for i := 0; i < 1000; i++ {
		child.Uint64()
	}
	// parent consumed two Uint64s for the two Splits; p2 likewise.
	if parent.Uint64() != p2.Uint64() {
		t.Fatal("advancing a child perturbed the parent stream")
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(10, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(3)
		if x < 0 {
			t.Fatalf("Exp returned negative %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Fatalf("exp mean = %v, want ~3", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSkewWeights(t *testing.T) {
	w := SkewWeights(5, 1)
	sum := 0.0
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Fatalf("weights not decreasing: %v", w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	// s=1, n=2 gives ratio 2:1; larger exponents give larger ratios.
	w2 := SkewWeights(2, 1)
	if math.Abs(w2[0]/w2[1]-2) > 1e-9 {
		t.Fatalf("s=1 two-bucket ratio = %v, want 2", w2[0]/w2[1])
	}
}

// Property: SkewWeights always sums to 1 and is nonincreasing for any valid
// (n, s).
func TestPropertySkewWeights(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%64) + 1
		s := float64(sRaw%40) / 10
		w := SkewWeights(n, s)
		sum := 0.0
		for i, v := range w {
			sum += v
			if v < 0 || (i > 0 && v > w[i-1]+1e-12) {
				return false
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Stddev = %v", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty Summarize = %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if p := Percentile(sorted, 0); p != 10 {
		t.Fatalf("P0 = %v", p)
	}
	if p := Percentile(sorted, 1); p != 40 {
		t.Fatalf("P100 = %v", p)
	}
	if p := Percentile(sorted, 0.5); p != 25 {
		t.Fatalf("P50 = %v, want 25", p)
	}
}

func TestSummarizeSingleSample(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single-sample Summarize = %+v", s)
	}
	// With one observation there is no spread and every percentile is the
	// observation itself.
	if s.Stddev != 0 {
		t.Fatalf("single-sample Stddev = %v, want 0", s.Stddev)
	}
	if s.P50 != 7 || s.P95 != 7 || s.P99 != 7 {
		t.Fatalf("single-sample percentiles = p50 %v p95 %v p99 %v, want all 7",
			s.P50, s.P95, s.P99)
	}
}

func TestPercentileDuplicates(t *testing.T) {
	// Heavy ties must interpolate within the runs, never off the data range.
	sorted := []float64{5, 5, 5, 5, 9}
	for _, tc := range []struct {
		p, want float64
	}{{0, 5}, {0.5, 5}, {0.75, 5}, {1, 9}} {
		if got := Percentile(sorted, tc.p); got != tc.want {
			t.Fatalf("P%v of %v = %v, want %v", tc.p*100, sorted, got, tc.want)
		}
	}
	allSame := []float64{3, 3, 3, 3}
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if got := Percentile(allSame, p); got != 3 {
			t.Fatalf("all-equal P%v = %v, want 3", p*100, got)
		}
	}
}

func TestExpVariance(t *testing.T) {
	// Exponential(mean m) has variance m²; a far-off variance would mean
	// the inverse-CDF draw is warped even if the mean happens to match.
	r := NewRNG(37)
	const n = 200000
	const mean = 3.0
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(mean)
		sum += x
		sumsq += x * x
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(variance-mean*mean)/(mean*mean) > 0.05 {
		t.Fatalf("exp variance = %v, want ~%v", variance, mean*mean)
	}
}

func TestPercentilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Percentile(empty) did not panic")
		}
	}()
	Percentile(nil, 0.5)
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(146, 100); math.Abs(s-0.46) > 1e-12 {
		t.Fatalf("Speedup = %v, want 0.46", s)
	}
	if s := Speedup(100, 100); s != 0 {
		t.Fatalf("Speedup equal = %v", s)
	}
	if s := Speedup(100, 0); s != 0 {
		t.Fatalf("Speedup div-zero guard = %v", s)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[float64]string{
		512:     "512B",
		2048:    "2.00KiB",
		1 << 20: "1.00MiB",
		1 << 30: "1.00GiB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	bins := Histogram([]float64{0, 1, 2, 3, 9.9, -5, 100}, 0, 10, 10)
	if bins[0] != 3 { // 0, 1(->bin1? no: width=1 so 1 is bin 1)... recompute
		// width = 1: 0->bin0, 1->bin1, 2->bin2, 3->bin3, 9.9->bin9,
		// -5 clamps to bin0, 100 clamps to bin9.
		t.Logf("bins: %v", bins)
	}
	if bins[0] != 2 || bins[1] != 1 || bins[9] != 2 {
		t.Fatalf("Histogram = %v", bins)
	}
	total := 0
	for _, b := range bins {
		total += b
	}
	if total != 7 {
		t.Fatalf("histogram total %d, want 7", total)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad Histogram params did not panic")
		}
	}()
	Histogram(nil, 5, 5, 10)
}

// Property: Summarize invariants Min ≤ P50 ≤ Max and Min ≤ Mean ≤ Max.
func TestPropertySummarizeBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95(t *testing.T) {
	if CI95(nil) != 0 || CI95([]float64{5}) != 0 {
		t.Fatal("degenerate samples must yield 0")
	}
	// n=2, values {0, 2}: mean 1, stddev sqrt(2), t(df=1)=12.706.
	ci := CI95([]float64{0, 2})
	want := 12.706 * math.Sqrt2 / math.Sqrt(2)
	if math.Abs(ci-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", ci, want)
	}
	// Large n converges to 1.96 * sd/sqrt(n).
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2) // alternating 0/1: sd ≈ 0.5025
	}
	s := Summarize(xs)
	want = 1.96 * s.Stddev / 10
	if math.Abs(CI95(xs)-want) > 1e-9 {
		t.Fatalf("large-n CI = %v, want %v", CI95(xs), want)
	}
}

func TestJainFairness(t *testing.T) {
	if JainFairness(nil) != 0 {
		t.Fatal("empty != 0")
	}
	if f := JainFairness([]float64{5, 5, 5, 5}); math.Abs(f-1) > 1e-12 {
		t.Fatalf("equal shares fairness = %v", f)
	}
	if f := JainFairness([]float64{1, 0, 0, 0}); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("monopolized fairness = %v, want 1/n", f)
	}
	if f := JainFairness([]float64{0, 0}); f != 1 {
		t.Fatalf("all-zero fairness = %v", f)
	}
	// Invariance under scaling.
	a := JainFairness([]float64{1, 2, 3})
	b := JainFairness([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Fatal("not scale-invariant")
	}
}
