package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateValidSpec(t *testing.T) {
	spec := Generate(Config{Name: "g", InputBytes: 1 * GB, Seed: 1})
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.NumMaps != 16 { // 1 GB / 64 MB
		t.Fatalf("maps = %d, want 16", spec.NumMaps)
	}
}

func TestGeneratePartialLastBlock(t *testing.T) {
	spec := Generate(Config{Name: "g", InputBytes: 16*HDFSBlock + 1*MB, Seed: 1})
	if spec.NumMaps != 17 {
		t.Fatalf("maps = %d, want 17 (partial last block)", spec.NumMaps)
	}
	// Last map's output should be much smaller than a full block's.
	lastOut, firstOut := 0.0, 0.0
	for r := 0; r < spec.NumReduces; r++ {
		lastOut += spec.MapOutputs[16][r]
		firstOut += spec.MapOutputs[0][r]
	}
	if lastOut >= firstOut/10 {
		t.Fatalf("partial block output %v not smaller than full %v", lastOut, firstOut)
	}
}

// Inputs that are exact block multiples in real arithmetic but built from
// the decimal MB/GB float constants leave an epsilon-sized remainder in
// float64 (34.24 GB = 535 × 64 MB exactly, but 34.24*GB - 535*HDFSBlock ≈
// 3.8e-6 bytes). Before the sliver fix, Generate turned that remainder
// into an extra near-zero-byte map; it must fold into the last full block.
func TestGenerateExactMultipleNoSliverMap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		input    float64
		block    float64
		wantMaps int
	}{
		{"34.24GB/64MB", 34.24 * GB, HDFSBlock, 535},
		{"68.48GB/64MB", 68.48 * GB, HDFSBlock, 1070},
		{"136.96GB/256MB", 136.96 * GB, 256 * MB, 535},
	} {
		spec := Generate(Config{Name: tc.name, InputBytes: tc.input, BlockBytes: tc.block, Seed: 1})
		if spec.NumMaps != tc.wantMaps {
			t.Fatalf("%s: maps = %d, want %d (sliver remainder must not become a map)",
				tc.name, spec.NumMaps, tc.wantMaps)
		}
		// The last map must be a full block, not a few-microbyte sliver:
		// within noise of the first map's output.
		lastOut, firstOut := 0.0, 0.0
		for r := 0; r < spec.NumReduces; r++ {
			lastOut += spec.MapOutputs[spec.NumMaps-1][r]
			firstOut += spec.MapOutputs[0][r]
		}
		if lastOut < firstOut/2 {
			t.Fatalf("%s: last map output %v vs first %v — sliver block leaked through",
				tc.name, lastOut, firstOut)
		}
	}
}

// A genuinely partial last block (well above the epsilon guard) must still
// get its own map — the fix only folds sub-epsilon remainders.
func TestGenerateRealRemainderStillGetsMap(t *testing.T) {
	spec := Generate(Config{Name: "g", InputBytes: 10*HDFSBlock + 5*MB, Seed: 1})
	if spec.NumMaps != 11 {
		t.Fatalf("maps = %d, want 11 (5 MB remainder deserves a map)", spec.NumMaps)
	}
}

func TestOutputVolumeMatchesRatio(t *testing.T) {
	for _, ratio := range []float64{0.05, 1.0, 1.2} {
		spec := Generate(Config{Name: "g", InputBytes: 2 * GB, OutputRatio: ratio, Seed: 3})
		got := spec.TotalShuffleBytes()
		want := 2 * GB * ratio
		if math.Abs(got-want)/want > 1e-9 {
			t.Fatalf("ratio %v: shuffle bytes = %v, want %v", ratio, got, want)
		}
	}
}

func TestSkewShapesReducers(t *testing.T) {
	flat := Generate(Config{Name: "flat", InputBytes: 4 * GB, SkewExponent: 1e-9, Seed: 5})
	skewed := Generate(Config{Name: "skew", InputBytes: 4 * GB, SkewExponent: 1.2, Seed: 5})
	fb, sb := flat.ReducerBytes(), skewed.ReducerBytes()
	flatRatio := maxOf(fb) / minOf(fb)
	skewRatio := maxOf(sb) / minOf(sb)
	if flatRatio > 1.5 {
		t.Fatalf("near-zero skew produced ratio %v", flatRatio)
	}
	if skewRatio < 3 {
		t.Fatalf("skew 1.2 produced ratio only %v", skewRatio)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func TestDeterministicAcrossCalls(t *testing.T) {
	a := Generate(Config{Name: "a", InputBytes: 1 * GB, Seed: 7})
	b := Generate(Config{Name: "a", InputBytes: 1 * GB, Seed: 7})
	for m := range a.MapOutputs {
		if a.MapDurations[m] != b.MapDurations[m] {
			t.Fatal("durations nondeterministic")
		}
		for r := range a.MapOutputs[m] {
			if a.MapOutputs[m][r] != b.MapOutputs[m][r] {
				t.Fatal("outputs nondeterministic")
			}
		}
	}
}

func TestSeedChangesJob(t *testing.T) {
	a := Generate(Config{Name: "a", InputBytes: 1 * GB, Seed: 1})
	b := Generate(Config{Name: "a", InputBytes: 1 * GB, Seed: 2})
	same := true
	for m := range a.MapOutputs {
		for r := range a.MapOutputs[m] {
			if a.MapOutputs[m][r] != b.MapOutputs[m][r] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical jobs")
	}
}

func TestSortShape(t *testing.T) {
	spec := Sort(24*GB, 10, 1)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.NumMaps != 94 { // ceil(24 GB / 256 MB) = ceil(93.75)
		t.Fatalf("sort maps = %d, want 94", spec.NumMaps)
	}
	if math.Abs(spec.TotalShuffleBytes()-24*GB)/GB > 1e-6 {
		t.Fatalf("sort shuffle = %v, want 24 GB", spec.TotalShuffleBytes())
	}
}

func TestNutchSmallerFlowsThanSort(t *testing.T) {
	sort := Sort(8*GB, 10, 1)
	nutch := Nutch(8*GB, 10, 1)
	sortFlow := sort.TotalShuffleBytes() / float64(sort.NumMaps*sort.NumReduces)
	nutchFlow := nutch.TotalShuffleBytes() / float64(nutch.NumMaps*nutch.NumReduces)
	if nutchFlow >= sortFlow {
		t.Fatalf("nutch mean flow %v not smaller than sort %v", nutchFlow, sortFlow)
	}
	if nutch.NumMaps <= sort.NumMaps {
		t.Fatal("nutch should have more maps (64 MB blocks)")
	}
}

func TestWordCountTinyShuffle(t *testing.T) {
	wc := WordCount(8*GB, 10, 1)
	if got := wc.TotalShuffleBytes(); got > 0.5*GB {
		t.Fatalf("wordcount shuffle = %v, want ~5%% of input", got)
	}
}

func TestToySortMatchesFig1a(t *testing.T) {
	toy := ToySort()
	if err := toy.Validate(); err != nil {
		t.Fatal(err)
	}
	if toy.NumMaps != 3 || toy.NumReduces != 2 {
		t.Fatalf("toy shape: %d maps %d reduces", toy.NumMaps, toy.NumReduces)
	}
	rb := toy.ReducerBytes()
	if math.Abs(rb[0]/rb[1]-5) > 1e-9 {
		t.Fatalf("toy skew ratio = %v, want exactly 5 (reducer-0 gets 5x)", rb[0]/rb[1])
	}
}

func TestIntegerSortNearUniform(t *testing.T) {
	spec := IntegerSort(6*GB, 10, 1)
	rb := spec.ReducerBytes()
	if maxOf(rb)/minOf(rb) > 2.5 {
		t.Fatalf("integer sort skew ratio %v too high", maxOf(rb)/minOf(rb))
	}
}

func TestGeneratePanicsOnZeroInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero input did not panic")
		}
	}()
	Generate(Config{Name: "bad"})
}

func TestMapDurationsPositiveWithJitter(t *testing.T) {
	spec := Generate(Config{Name: "g", InputBytes: 10 * GB, MapJitterSigma: 0.3, Seed: 11})
	for m, d := range spec.MapDurations {
		if d <= 0 {
			t.Fatalf("map %d duration %v", m, d)
		}
	}
}

// Property: for any sane config, the generated spec validates, the shuffle
// volume equals input*ratio, and every cell is nonnegative.
func TestPropertyGenerate(t *testing.T) {
	f := func(inputMB uint16, reducesRaw, skewRaw uint8, seed uint64) bool {
		input := (float64(inputMB%2000) + 64) * MB
		reduces := int(reducesRaw%20) + 1
		skew := float64(skewRaw%30) / 10
		spec := Generate(Config{
			Name: "p", InputBytes: input, NumReduces: reduces,
			SkewExponent: skew, Seed: seed,
		})
		if spec.Validate() != nil {
			return false
		}
		if math.Abs(spec.TotalShuffleBytes()-input)/input > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateSort24GB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Sort(24*GB, 10, uint64(i))
	}
}

func TestSpecRoundTrip(t *testing.T) {
	orig := Sort(2*GB, 6, 7)
	orig.ReduceOutputRatio = 0.5
	data, err := MarshalSpec(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.NumMaps != orig.NumMaps || got.ReduceOutputRatio != 0.5 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	for m := range orig.MapOutputs {
		if got.MapDurations[m] != orig.MapDurations[m] {
			t.Fatal("durations changed")
		}
		for r := range orig.MapOutputs[m] {
			if got.MapOutputs[m][r] != orig.MapOutputs[m][r] {
				t.Fatal("outputs changed")
			}
		}
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	bad := Sort(1*GB, 4, 1)
	bad.MapDurations = bad.MapDurations[:1]
	if _, err := MarshalSpec(bad); err == nil {
		t.Fatal("invalid spec serialized")
	}
}

func TestUnmarshalRejectsGarbageAndInvalid(t *testing.T) {
	if _, err := UnmarshalSpec([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := UnmarshalSpec([]byte(`{"Name":"x","NumMaps":0,"NumReduces":1}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRebalancePartitions(t *testing.T) {
	spec := Generate(Config{Name: "s", InputBytes: 2 * GB, NumReduces: 8, SkewExponent: 1.2, Seed: 3})
	before := spec.TotalShuffleBytes()
	rb := spec.ReducerBytes()
	skewBefore := maxOf(rb) / minOf(rb)

	RebalancePartitions(spec, 1.0)
	after := spec.TotalShuffleBytes()
	rb = spec.ReducerBytes()
	skewAfter := maxOf(rb) / minOf(rb)

	if math.Abs(after-before) > 1 {
		t.Fatalf("rebalance changed total volume: %v -> %v", before, after)
	}
	if math.Abs(skewAfter-1) > 1e-9 {
		t.Fatalf("full rebalance left skew %v", skewAfter)
	}
	if skewBefore < 3 {
		t.Fatalf("test premise broken: skew before = %v", skewBefore)
	}
}

func TestRebalancePartialAndNoop(t *testing.T) {
	spec := Generate(Config{Name: "s", InputBytes: 1 * GB, NumReduces: 4, SkewExponent: 1.0, Seed: 3})
	orig := spec.ReducerBytes()
	RebalancePartitions(spec, 0)
	same := spec.ReducerBytes()
	for i := range orig {
		if orig[i] != same[i] {
			t.Fatal("strength 0 modified the matrix")
		}
	}
	RebalancePartitions(spec, 0.5)
	half := spec.ReducerBytes()
	// Skew must strictly decrease but not vanish.
	if maxOf(half)/minOf(half) >= maxOf(orig)/minOf(orig) {
		t.Fatal("partial rebalance did not reduce skew")
	}
	if math.Abs(maxOf(half)/minOf(half)-1) < 1e-9 {
		t.Fatal("partial rebalance flattened completely")
	}
	// Strength > 1 clamps.
	RebalancePartitions(spec, 5)
	if flat := spec.ReducerBytes(); math.Abs(maxOf(flat)/minOf(flat)-1) > 1e-9 {
		t.Fatal("clamped strength did not flatten")
	}
}
