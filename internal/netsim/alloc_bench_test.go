package netsim_test

import (
	"math/rand"
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// BenchmarkAllocPassFatTree times one allocator pass of the shape a k = 8
// sort trial runs some 16 k times: ≈ 340 active flows between seeded random
// host pairs of the 128-host fat-tree, each on the path the fabric's ECMP
// walk gives it. NotifyTopology at an unchanged instant and topology is
// exactly one pass. Like BenchmarkAllocPass, the pass must not allocate.
func BenchmarkAllocPassFatTree(b *testing.B) {
	eng := sim.NewEngine()
	g, hosts := topology.FatTree(8, 4, topology.Gbps)
	n := netsim.New(eng, g)
	rng := rand.New(rand.NewSource(1))
	var hops []topology.LinkID
	for started := 0; started < 340; {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		tuple := netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 50060, Protocol: 6}
		p, err := ecmp.Walk(g, tuple, 0, nil, &hops)
		if err != nil {
			b.Fatal(err)
		}
		n.StartFlow(tuple, p, 1e15, 0, started, 0, nil)
		started++
	}
	n.NotifyTopology() // warm scratch capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.NotifyTopology()
	}
	b.StopTimer()
	if got := testing.AllocsPerRun(3, n.NotifyTopology); got > 0 {
		b.Fatalf("allocation pass allocated %v times/op, want 0", got)
	}
}
