package bench

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"pythia/internal/core"
	"pythia/internal/hadoop"
	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

// The simulator has one allocator and one event kernel, so "every mode
// agrees" is no longer something a test can run. What replaced the
// cross-mode comparisons is (a) the step-by-step full-scan oracle in
// internal/netsim/reference_test.go and the heap differential in
// internal/sim, and (b) the digests below: FNV-1a fingerprints of the flow
// history of each trial the mode matrix used to compare, captured from the
// default configuration (incremental allocator, calendar kernel) of commit
// 7238f54 — the last one that shipped the matrix — by dropping this file into
// a checkout of that commit and reading the "got" values from
//
//	go test ./internal/bench -run 'TestAllocatorsMatchOnSortTrial|TestIndexedMatchesScanUnderLinkFailure|TestScaleFatTreeDeterminism|TestTraceReplayAllocatorsMatch'
//
// A digest that moves means simulated results changed, not just their cost.

func mix(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// recordsDigest fingerprints what RunTrial exposes of a flow history:
// identity and the exact start/finish instants, in completion order.
func recordsDigest(recs []FlowRecord) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		mix(h, uint64(r.ID), uint64(r.Job), uint64(r.Map), uint64(r.Reduce),
			math.Float64bits(r.StartSec), math.Float64bits(r.EndSec))
	}
	return h.Sum64()
}

// historyDigest fingerprints a network's completed flows including the path
// each one finished on, for trials where the test owns the Network.
func historyDigest(net *netsim.Network) uint64 {
	h := fnv.New64a()
	net.ForEachCompleted(func(f *netsim.Flow) {
		mix(h, uint64(f.ID), uint64(len(f.Path.Links)))
		for _, l := range f.Path.Links {
			mix(h, uint64(l))
		}
		mix(h, math.Float64bits(float64(f.Started())), math.Float64bits(float64(f.Finished())))
	})
	return h.Sum64()
}

func wantDigest(t *testing.T, label string, flows, wantFlows int, got, want uint64) {
	t.Helper()
	if flows != wantFlows || got != want {
		t.Fatalf("%s: got %d flows, digest %#x; pinned %d flows, digest %#x",
			label, flows, got, wantFlows, want)
	}
}

// The Fig. 4 shape — a sort under oversubscription scheduled by Pythia.
func TestAllocatorsMatchOnSortTrial(t *testing.T) {
	recs := RunTrial(TrialConfig{
		Spec:               workload.Sort(2*workload.GB, 8, 42),
		Scheduler:          Pythia,
		Oversub:            Oversub{Label: "1:5", Ratio: 5},
		Seed:               42,
		CollectFlowHistory: true,
	}).FlowHistory
	wantDigest(t, "sort 1:5", len(recs), 64, recordsDigest(recs), 0x18ecbdde9390bc1b)
}

// The §IV fault-tolerance scenario: a trunk failure mid-job exercises
// reroutes, re-placements and the per-link index maintenance on every one of
// those transitions.
func TestIndexedMatchesScanUnderLinkFailure(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	py := core.New(eng, net, ofc, core.Config{}.EnableAggregation())
	cluster := hadoop.NewCluster(eng, net, hosts, ofc, hadoop.Config{})
	instrument.Attach(eng, cluster, py, instrument.Config{})
	job, err := cluster.Submit(workload.Sort(8*workload.GB, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	eng.At(20, func() {
		// One direction through the network's notification, the other a raw
		// graph edit: single-direction, poll-granularity discovery.
		g.SetLinkUp(trunks[0], false)
		net.NotifyTopology()
		if rev, ok := g.Reverse(trunks[0]); ok {
			g.SetLinkUp(rev, false)
		}
	})
	eng.Run()
	if !job.Done {
		t.Fatal("job did not survive the trunk failure")
	}
	wantDigest(t, "trunk failure", net.CompletedFlows(), 256, historyDigest(net), 0x949ec5aa42909d56)
}

// The scale harness on the two fabrics small enough for tier-1.
func TestScaleFatTreeDeterminism(t *testing.T) {
	for _, c := range []struct {
		k, hosts, flows int
		jobSecBits      uint64
		digest          uint64
	}{
		{k: 4, hosts: 16, flows: 128, jobSecBits: 0x402455b7b376184f, digest: 0xd2a0f90ef50baae8},
		{k: 6, hosts: 54, flows: 1458, jobSecBits: 0x402c64cbfd147c38, digest: 0xb80ef7d033073ad4},
	} {
		res := RunScaleFatTree(ScaleFatTreeConfig{K: c.k})
		if res.Hosts != c.hosts {
			t.Fatalf("k=%d fat-tree hosts = %d, want %d", c.k, res.Hosts, c.hosts)
		}
		if got := math.Float64bits(res.JobSec); got != c.jobSecBits {
			t.Fatalf("k=%d job time %v (bits %#x), pinned bits %#x", c.k, res.JobSec, got, c.jobSecBits)
		}
		wantDigest(t, "fat-tree sort", len(res.FlowHistory), c.flows, recordsDigest(res.FlowHistory), c.digest)
	}
}

// The trace replay exercises multi-job churn (Poisson arrivals, queueing,
// overlapping shuffles); every summary statistic and every job duration is
// pinned.
func TestTraceReplayAllocatorsMatch(t *testing.T) {
	res := RunTraceReplay(Pythia, Oversub{Label: "1:10", Ratio: 10}, workload.TraceConfig{Seed: 9})
	if res.Jobs == 0 || res.MakespanSec <= 0 {
		t.Fatalf("degenerate trace result: %+v", res)
	}
	h := fnv.New64a()
	mix(h, uint64(res.Jobs), uint64(res.Starved), math.Float64bits(res.MakespanSec),
		math.Float64bits(res.MeanJobSec), math.Float64bits(res.P95JobSec), math.Float64bits(res.ShuffleFraction))
	for _, d := range res.Durations {
		mix(h, math.Float64bits(d))
	}
	wantDigest(t, "trace replay 1:10", len(res.Durations), 30, h.Sum64(), 0xbda2ea2bd8da03d3)
}
