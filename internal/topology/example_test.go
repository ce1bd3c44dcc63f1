package topology_test

import (
	"fmt"

	"pythia/internal/topology"
)

// Build the paper's testbed and inspect the inter-rack path diversity.
func ExampleTwoRack() {
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	paths := g.EqualCostPaths(hosts[0], hosts[5], 4)
	fmt.Printf("%d hosts, %d trunks, %d inter-rack paths of %d hops\n",
		len(hosts), len(trunks), len(paths), paths[0].Hops())
	// Output:
	// 10 hosts, 2 trunks, 2 inter-rack paths of 3 hops
}

// Failure injection reroutes around the dead link.
func ExampleGraph_SetLinkUp() {
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	g.SetLinkUp(trunks[0], false)
	paths := g.EqualCostPaths(hosts[0], hosts[5], 4)
	fmt.Printf("paths after failing one trunk: %d\n", len(paths))
	// Output:
	// paths after failing one trunk: 1
}

// Leaf-spine fabrics offer one equal-cost path per spine.
func ExampleLeafSpine() {
	g, hosts := topology.LeafSpine(4, 3, 5, topology.Gbps)
	paths := g.EqualCostPaths(hosts[0], hosts[6], 3)
	fmt.Printf("%d hosts, shortest inter-rack paths: %d x %d hops\n",
		len(hosts), len(paths), paths[0].Hops())
	// Output:
	// 20 hosts, shortest inter-rack paths: 3 x 4 hops
}
