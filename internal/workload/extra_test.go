package workload

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// A TeraSort-style sampled range partitioner (RebalancePartitions over a
// skewed sort) leaves the reducers near-uniform without moving a byte.
func TestTeraSortNearUniformDespiteSkew(t *testing.T) {
	spec := Generate(Config{
		Name:         "terasort",
		InputBytes:   8 * GB,
		BlockBytes:   256 * MB,
		NumReduces:   10,
		OutputRatio:  1.0,
		SkewExponent: 1.0,
		Seed:         3,
	})
	RebalancePartitions(spec, 0.95)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	rb := spec.ReducerBytes()
	if ratio := maxOf(rb) / minOf(rb); ratio > 1.3 {
		t.Fatalf("terasort reducer skew %v despite sampled partitioner", ratio)
	}
	if math.Abs(spec.TotalShuffleBytes()-8*GB)/GB > 1e-6 {
		t.Fatalf("volume changed: %v", spec.TotalShuffleBytes())
	}
}

func TestSyntheticTraceShape(t *testing.T) {
	trace := SyntheticFacebookTrace(TraceConfig{Jobs: 40, Seed: 3})
	if len(trace) != 40 {
		t.Fatalf("jobs = %d", len(trace))
	}
	prev := -1.0
	classes := map[string]int{}
	for _, tj := range trace {
		if tj.SubmitAtSec <= prev {
			t.Fatal("arrivals not strictly increasing")
		}
		prev = tj.SubmitAtSec
		if err := tj.Spec.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, class := range []string{"map-heavy", "transform", "shuffle-heavy"} {
			if strings.HasSuffix(tj.Spec.Name, class) {
				classes[class]++
			}
		}
	}
	if len(classes) != 3 {
		t.Fatalf("classes seen: %v", classes)
	}
	// Map-heavy dominates the mix.
	if classes["map-heavy"] < classes["shuffle-heavy"] {
		t.Fatalf("mix inverted: %v", classes)
	}
}

func TestSyntheticTraceDeterministic(t *testing.T) {
	a := SyntheticFacebookTrace(TraceConfig{Jobs: 10, Seed: 5})
	b := SyntheticFacebookTrace(TraceConfig{Jobs: 10, Seed: 5})
	for i := range a {
		if a[i].SubmitAtSec != b[i].SubmitAtSec || a[i].Spec.NumMaps != b[i].Spec.NumMaps {
			t.Fatal("trace nondeterministic")
		}
	}
}

func TestSyntheticTraceHeavyTail(t *testing.T) {
	trace := SyntheticFacebookTrace(TraceConfig{Jobs: 60, Seed: 7})
	var sizes []float64
	for _, tj := range trace {
		total := 0.0
		for _, row := range tj.Spec.MapOutputs {
			for _, v := range row {
				total += v
			}
		}
		_ = total
		sizes = append(sizes, float64(tj.Spec.NumMaps))
	}
	// Heavy tail: the biggest job has many times the median's maps.
	sort.Float64s(sizes)
	med := sizes[len(sizes)/2]
	max := 0.0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	if max < 4*med {
		t.Fatalf("no heavy tail: max %v vs median %v maps", max, med)
	}
}
