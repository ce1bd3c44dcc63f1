package pythia_test

import (
	"fmt"
	"strings"

	"pythia"
)

// The smallest end-to-end use: run the paper's Fig. 1a toy job and inspect
// its phases. All simulations are deterministic per seed, so the output is
// exact.
func Example() {
	cl := pythia.New(pythia.WithSeed(1))
	res := cl.RunJob(pythia.ToySortJob())
	fmt.Printf("%s: maps done at %.1fs, shuffle barrier at %.1fs\n",
		res.Name, res.MapPhaseSec, res.ShuffleSec)
	// Output:
	// toy-sort: maps done at 22.0s, shuffle barrier at 25.8s
}

// Comparing schedulers on identical conditions is one call.
func ExampleCompare() {
	spec := pythia.ToySortJob()
	ecmpSec, pythiaSec, _ := pythia.Compare(
		spec, pythia.SchedulerECMP, pythia.SchedulerPythia, pythia.WithSeed(1))
	// On an uncontended network the toy job ties.
	fmt.Printf("tie: %v\n", ecmpSec == pythiaSec)
	// Output:
	// tie: true
}

// The sequence diagram reproduces the paper's Fig. 1a visualization.
func ExampleCluster_SequenceDiagram() {
	cl := pythia.New(pythia.WithSeed(1))
	cl.RunJob(pythia.ToySortJob())
	diagram := cl.SequenceDiagram(80)
	// The skew annotation shows reducer-0's 5x share.
	for _, line := range strings.Split(diagram, "\n") {
		if strings.HasPrefix(line, "reducer-") {
			fmt.Println(line)
		}
	}
	// Output:
	// reducer-0 fetched 522.5 MB
	// reducer-1 fetched 104.5 MB
}

// Open-loop arrivals enter at their own times, whether or not earlier jobs
// have finished; TryRunUntil reports every timed submission.
func ExampleCluster_SubmitAt() {
	jobs := pythia.OpenLoopJobs(pythia.OpenLoopConfig{Seed: 7, BaseRateJobsPerSec: 0.05}, 600)
	cl := pythia.New(pythia.WithScheduler(pythia.SchedulerPythia),
		pythia.WithOversubscription(10))
	for _, j := range jobs {
		cl.SubmitAt(j.SubmitAtSec, j.Spec) // timed submission in virtual time
	}
	res, err := cl.TryRunUntil(3600) // errors list any unfinished jobs
	fmt.Println(len(res), err)
	// Output:
	// 29 <nil>
}

// Workload generators produce the paper's benchmark shapes at any scale.
func ExampleSortJob() {
	spec := pythia.SortJob(24*pythia.GB, 10, 42)
	fmt.Printf("%s: %d maps, %d reducers, %.0f GB intermediate data\n",
		spec.Name, spec.NumMaps, spec.NumReduces, spec.TotalShuffleBytes()/1e9)
	// Output:
	// sort: 94 maps, 10 reducers, 24 GB intermediate data
}
