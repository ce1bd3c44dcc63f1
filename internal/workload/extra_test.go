package workload

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestTeraSortNearUniformDespiteSkew(t *testing.T) {
	spec := TeraSort(8*GB, 10, 3)
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

func TestPageRankPipeline(t *testing.T) {
	specs := PageRank(4*GB, 8, 3, 5)
	if len(specs) != 3 {
		t.Fatalf("iterations = %d", len(specs))
	}
	names := map[string]bool{}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if names[s.Name] {
			t.Fatalf("duplicate iteration name %q", s.Name)
		}
		names[s.Name] = true
	}
	// Iterations differ (fresh jitter per round).
	if specs[0].MapDurations[0] == specs[1].MapDurations[0] {
		t.Fatal("iterations identical")
	}
}

func TestPageRankPanicsOnZeroIterations(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero iterations did not panic")
		}
	}()
	PageRank(1*GB, 4, 0, 1)
}

func TestJoinShufflesBothSides(t *testing.T) {
	spec := Join(4*GB, 2*GB, 8, 7)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(spec.TotalShuffleBytes()-6*GB)/GB > 1e-6 {
		t.Fatalf("join shuffle = %v, want both sides (6 GB)", spec.TotalShuffleBytes())
	}
}

func TestJoinPanicsOnEmptySide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty side did not panic")
		}
	}()
	Join(1*GB, 0, 4, 1)
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
