package netsim

import (
	"testing"

	"pythia/internal/flight"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// BenchmarkRecorderDisabled guards the flight recorder's disabled-path
// overhead contract: with no sink attached, the fabric's record hook must be
// one nil compare — zero allocations per call. CI runs this with
// -benchtime=1x as a smoke check; the AllocsPerRun assertion is what holds
// the contract, independent of b.N.
func BenchmarkRecorderDisabled(b *testing.B) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	n := New(eng, g)
	p := g.EqualCostPaths(hosts[0], hosts[5], 4)[0]
	f := &Flow{
		Tuple: FiveTuple{SrcHost: hosts[0], DstHost: hosts[5], SrcPort: 1, DstPort: 2, Protocol: 6},
		Path:  p, SizeBits: 1e9,
		Job: 0, Map: 1, Reduce: 2,
		started: eng.Now(),
	}
	if n.fl != nil {
		b.Fatal("recorder unexpectedly attached")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		n.recordFlow(flight.FlowAdmitted, f)
		n.recordFlow(flight.FlowCompleted, f)
	}); allocs != 0 {
		b.Fatalf("disabled recorder allocates: %v allocs/op", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.recordFlow(flight.FlowAdmitted, f)
		n.recordFlow(flight.FlowCompleted, f)
	}
}

// BenchmarkRecorderEnabled is the companion datum: the cost of one recorded
// fabric event (event construction + timestamp + append).
func BenchmarkRecorderEnabled(b *testing.B) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	n := New(eng, g)
	n.SetFlightRecorder(flight.NewRecorder(eng))
	p := g.EqualCostPaths(hosts[0], hosts[5], 4)[0]
	f := &Flow{
		Tuple: FiveTuple{SrcHost: hosts[0], DstHost: hosts[5], SrcPort: 1, DstPort: 2, Protocol: 6},
		Path:  p, SizeBits: 1e9,
		Job: 0, Map: 1, Reduce: 2,
		started: eng.Now(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.recordFlow(flight.FlowAdmitted, f)
	}
}
