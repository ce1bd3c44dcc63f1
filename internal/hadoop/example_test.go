package hadoop_test

import (
	"fmt"

	"pythia/internal/ecmp"
	"pythia/internal/hadoop"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

// Running the Fig. 1a toy job on the simulated Hadoop runtime.
func ExampleCluster_Submit() {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cluster := hadoop.NewCluster(eng, net, hosts, ecmp.New(g, 1), hadoop.Config{})
	job, err := cluster.Submit(workload.ToySort())
	if err != nil {
		panic(err)
	}
	eng.Run()
	fmt.Printf("maps done %.1fs, barrier %.1fs, job %.1fs\n",
		float64(job.MapPhaseEnd), float64(job.ShuffleEnd), float64(job.Finished))
	// Output:
	// maps done 22.0s, barrier 25.8s, job 28.8s
}

// The instrumentation hooks expose exactly the events Pythia's middleware
// consumes: spills with per-reducer partition sizes.
func ExampleCluster_OnMapSpilled() {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cluster := hadoop.NewCluster(eng, net, hosts, ecmp.New(g, 1), hadoop.Config{})
	cluster.OnMapSpilled(func(j *hadoop.Job, m *hadoop.MapTask, partitions []float64) {
		if m.ID == 0 {
			fmt.Printf("map-0 spilled %.0f MB for reducer-0, %.0f MB for reducer-1\n",
				partitions[0]/1e6, partitions[1]/1e6)
		}
	})
	cluster.Submit(workload.ToySort())
	eng.Run()
	// Output:
	// map-0 spilled 167 MB for reducer-0, 33 MB for reducer-1
}
