package netsim_test

import (
	"fmt"

	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// A single flow on an uncontended 1 Gbps path moves at line rate.
func ExampleNetwork_StartFlow() {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	path := g.EqualCostPaths(hosts[0], hosts[5], 1)[0]
	tuple := netsim.FiveTuple{SrcHost: hosts[0], DstHost: hosts[5], SrcPort: 50060, DstPort: 20000, Protocol: 6}
	net.StartFlow(tuple, path, 1e9, 0, 0, 0, func(f *netsim.Flow) {
		fmt.Printf("1 Gbit delivered in %s\n", f.Finished().Sub(f.Started()))
	})
	eng.Run()
	// Output:
	// 1 Gbit delivered in 1.000s
}

// CBR background traffic (the paper's iperf streams) takes its rate off the
// top; TCP flows share what remains max-min fairly.
func ExampleNetwork_SetBackground() {
	eng := sim.NewEngine()
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	net.SetBackground(trunks[0], 0.75*topology.Gbps)
	paths := g.EqualCostPaths(hosts[0], hosts[5], 2)
	var overTrunk0 topology.Path
	for _, p := range paths {
		for _, l := range p.Links {
			if l == trunks[0] {
				overTrunk0 = p
			}
		}
	}
	tuple := netsim.FiveTuple{SrcHost: hosts[0], DstHost: hosts[5], SrcPort: 50060, DstPort: 20000, Protocol: 6}
	net.StartFlow(tuple, overTrunk0, 1e9, 0, 0, 0, func(f *netsim.Flow) {
		fmt.Printf("through the 75%%-loaded trunk: %s\n", f.Finished().Sub(f.Started()))
	})
	eng.Run()
	// Output:
	// through the 75%-loaded trunk: 4.000s
}
