package pythia

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"pythia/internal/netsim"
)

// Pinned flow histories. The simulator used to prove its allocator modes and
// event kernels equivalent by running each trial once per mode and comparing;
// with one allocator and one kernel that comparison has nothing to compare.
// These digests hold the results still instead: each is the FNV-1a
// fingerprint (flow ID, path links, exact start and finish instants, in
// completion order) that the default configuration of commit 7238f54 — the
// last to ship the mode matrix — produced for the trial, captured by dropping
// this file and the faults_test.go hunk into a checkout of that commit and
// reading the "got" values from
//
//	go test . -run 'TestPinnedFlowHistories|TestAllocModesAgreeViaFacade'
//
// A digest that moves means simulated results changed, not just their cost.
//
// The ECMP and Hedera digests were re-captured, the same way at the commit
// that made the baseline the controller's table-miss walk on empty tables
// (ecmp.Walk, per-hop ecmp.Hash salted with the run's seed) in place of a
// seeded FNV hash over a path list: both schedulers' first placements are a
// new hash draw. Every Pythia digest is the original.

func flowHistoryDigest(cl *Cluster) (flows int, digest uint64) {
	h := fnv.New64a()
	var b [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	cl.net.ForEachCompleted(func(f *netsim.Flow) {
		flows++
		mix(uint64(f.ID))
		mix(uint64(len(f.Path.Links)))
		for _, l := range f.Path.Links {
			mix(uint64(l))
		}
		mix(math.Float64bits(float64(f.Started())))
		mix(math.Float64bits(float64(f.Finished())))
	})
	return flows, h.Sum64()
}

func wantFlowHistory(t *testing.T, cl *Cluster, wantFlows int, want uint64) {
	t.Helper()
	flows, got := flowHistoryDigest(cl)
	if flows != wantFlows || got != want {
		t.Fatalf("got %d flows, digest %#x; pinned %d flows, digest %#x", flows, got, wantFlows, want)
	}
}

func TestPinnedFlowHistories(t *testing.T) {
	type pin struct {
		flows  int
		digest uint64
	}
	// Trunk failure at 10 s, recovery at 40 s (runTrunkFaultCluster).
	trunk := map[SchedulerKind]pin{
		SchedulerECMP:   {128, 0x8cd3a6250d62dcba},
		SchedulerHedera: {128, 0x8cd3a6250d62dcba},
		SchedulerPythia: {128, 0x8bfea73fc031233},
	}
	// The three-plane fault storm (runChaosCluster).
	chaos := map[SchedulerKind]pin{
		SchedulerECMP:   {192, 0x9bb18249fdaa44a5},
		SchedulerHedera: {192, 0xb194ef85e121b164},
		SchedulerPythia: {192, 0xf628999be1292040},
	}
	for _, k := range allSchedulers {
		k := k
		t.Run("trunk-fault/"+k.String(), func(t *testing.T) {
			cl, _ := runTrunkFaultCluster(t, k)
			wantFlowHistory(t, cl, trunk[k].flows, trunk[k].digest)
		})
		t.Run("chaos/"+k.String(), func(t *testing.T) {
			cl, _ := runChaosCluster(t, k)
			wantFlowHistory(t, cl, chaos[k].flows, chaos[k].digest)
		})
	}
}
