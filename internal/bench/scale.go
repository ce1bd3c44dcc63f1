package bench

import (
	"pythia/internal/flight"
	"pythia/internal/workload"
)

// ScaleFatTreeConfig sizes one scale-benchmark run: a sort job spread over
// a k-ary fat-tree, scheduled by Pythia. The point is not a paper figure
// but simulator throughput — how fast the hot paths (telemetry polls,
// max-min recomputation, bin packing) handle fabrics far beyond the
// 16-server testbed.
type ScaleFatTreeConfig struct {
	// K is the fat-tree arity (even, ≥ 4). Hosts = k³/4 with the default
	// k/2 hosts per edge switch: k=4 → 16, k=6 → 54, k=8 → 128.
	K int
	// SortBytes is the job input size; 0 defaults to hosts × 128 MB
	// (one sort block per two hosts — enough concurrent flows that every
	// poll and recompute crosses the whole fabric). The k=16/k=24 rows set
	// it explicitly: the default grows cubically with k and would put half
	// a million flows through a single trial.
	SortBytes float64
	// Reduces overrides the reducer count; 0 defaults to the host count
	// (one reducer per server, the canonical full-fabric shuffle).
	Reduces int
	Seed    uint64
}

// ScaleFatTreeResult reports the run.
type ScaleFatTreeResult struct {
	Hosts       int
	JobSec      float64
	FlowHistory []FlowRecord
	// Faults are the prediction-plane robustness counters; the scale run is
	// healthy, so BenchmarkScaleFatTree asserts they all read zero.
	Faults FaultCounters
	// Quality carries the flight recorder's prediction scores (lead time,
	// late fraction, byte error) into BenchmarkScaleFatTree's metric columns.
	Quality *flight.Quality
}

// FatTreeHosts returns the host count of the k-ary fat-tree used by
// RunScaleFatTree.
func FatTreeHosts(k int) int { return k * (k / 2) * (k / 2) }

// RunScaleFatTree executes one scale trial and returns its outcome,
// including the full flow history so callers can assert determinism.
func RunScaleFatTree(cfg ScaleFatTreeConfig) ScaleFatTreeResult {
	hosts := FatTreeHosts(cfg.K)
	bytes := cfg.SortBytes
	if bytes == 0 {
		bytes = float64(hosts) * 128 * workload.MB
	}
	reduces := cfg.Reduces
	if reduces == 0 {
		reduces = hosts
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 7
	}
	res := RunTrial(TrialConfig{
		Spec:               workload.Sort(bytes, reduces, seed),
		Scheduler:          Pythia,
		FatTreeK:           cfg.K,
		Seed:               seed,
		CollectFlowHistory: true,
		CollectFlight:      true,
	})
	return ScaleFatTreeResult{Hosts: hosts, JobSec: res.JobSec, FlowHistory: res.FlowHistory,
		Faults: res.Faults, Quality: res.Quality}
}
