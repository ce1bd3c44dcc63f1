package workload

import (
	"fmt"

	"pythia/internal/hadoop"
)

// TeraSort returns a TeraSort-shaped job: like Sort, but range-partitioned
// from an input sample, so reducers are near-uniform regardless of the key
// distribution — the canonical application-level skew fix (TeraSort's
// TotalOrderPartitioner), built by composing the Sort generator with
// RebalancePartitions.
func TeraSort(inputBytes float64, numReduces int, seed uint64) *hadoop.JobSpec {
	spec := Generate(Config{
		Name:         "terasort",
		InputBytes:   inputBytes,
		BlockBytes:   256 * MB,
		NumReduces:   numReduces,
		OutputRatio:  1.0,
		SkewExponent: 1.0, // raw keys are skewed...
		Seed:         seed,
	})
	RebalancePartitions(spec, 0.95) // ...the sampled partitioner fixes it
	return spec
}

// PageRankIteration returns one iteration of a PageRank-shaped job: the
// rank vector plus adjacency contributions are exchanged each round, with
// power-law in-degree skew concentrating traffic on the reducers owning
// high-degree vertices. Chain iterations by feeding each one's output size
// into the next.
func PageRankIteration(graphBytes float64, numReduces int, iteration int, seed uint64) *hadoop.JobSpec {
	return Generate(Config{
		Name:         fmt.Sprintf("pagerank-iter%d", iteration),
		InputBytes:   graphBytes,
		BlockBytes:   HDFSBlock,
		NumReduces:   numReduces,
		OutputRatio:  1.0,
		SkewExponent: 1.1, // power-law in-degree
		// Edge-list processing is lightweight per byte.
		MapRateBytesPerSec: 40 * MB,
		ReduceSecPerMB:     0.006,
		Seed:               seed + uint64(iteration)*7919,
	})
}

// PageRank returns a full n-iteration PageRank pipeline; run the specs in
// order on one cluster (each consumes the ranks the previous one produced).
func PageRank(graphBytes float64, numReduces, iterations int, seed uint64) []*hadoop.JobSpec {
	if iterations <= 0 {
		panic("workload: PageRank needs positive iterations")
	}
	specs := make([]*hadoop.JobSpec, iterations)
	for i := range specs {
		specs[i] = PageRankIteration(graphBytes, numReduces, i, seed)
	}
	return specs
}

// Join returns a repartition-join-shaped job over two inputs: both tables
// are shuffled in full (output ratio > 1 relative to the probe side), with
// moderate key skew — the join-key hot spot. This is the other classic
// shuffle-heavy pattern after sort.
func Join(leftBytes, rightBytes float64, numReduces int, seed uint64) *hadoop.JobSpec {
	if leftBytes <= 0 || rightBytes <= 0 {
		panic("workload: Join needs two positive inputs")
	}
	total := leftBytes + rightBytes
	spec := Generate(Config{
		Name:         "repartition-join",
		InputBytes:   total,
		BlockBytes:   HDFSBlock,
		NumReduces:   numReduces,
		OutputRatio:  1.0, // both sides shuffled in full
		SkewExponent: 0.7,
		Seed:         seed,
	})
	return spec
}
