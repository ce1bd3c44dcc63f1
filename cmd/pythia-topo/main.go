// Command pythia-topo inspects the simulated testbed topologies: node and
// link inventory, the first k equal-cost paths between two hosts, and
// Graphviz DOT export.
//
// Usage:
//
//	pythia-topo [-topology tworack|leafspine|fattree] [-hosts N] [-trunks N]
//	            [-leaves N] [-spines N] [-arity K] [-gbps N]
//	            [-paths SRC,DST] [-k N] [-dot out.dot]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pythia/internal/topology"
)

func main() {
	topoName := flag.String("topology", "tworack", "tworack, leafspine or fattree")
	hostsPerRack := flag.Int("hosts", 5, "hosts per rack (tworack/leafspine)")
	trunks := flag.Int("trunks", 2, "inter-rack trunks (tworack)")
	leaves := flag.Int("leaves", 4, "leaf switches (leafspine)")
	spines := flag.Int("spines", 2, "spine switches (leafspine)")
	arity := flag.Int("arity", 4, "fat-tree arity k (fattree)")
	gbps := flag.Float64("gbps", 1, "link rate in Gbps")
	pathsArg := flag.String("paths", "", "print the first k equal-cost paths between two host indices, e.g. 0,7")
	k := flag.Int("k", 4, "number of equal-cost paths to print")
	dotPath := flag.String("dot", "", "write a Graphviz DOT file to this path")
	flag.Parse()

	var g *topology.Graph
	var hosts []topology.NodeID
	bps := *gbps * 1e9
	switch *topoName {
	case "tworack":
		g, hosts, _ = topology.TwoRack(*hostsPerRack, *trunks, bps)
	case "leafspine":
		g, hosts = topology.LeafSpine(*leaves, *spines, *hostsPerRack, bps)
	case "fattree":
		g, hosts = topology.FatTree(*arity, *arity/2, bps)
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topoName)
		os.Exit(2)
	}

	fmt.Printf("%s: %d nodes (%d hosts, %d switches), %d directed links\n",
		*topoName, g.NumNodes(), len(hosts), len(g.Switches()), g.NumLinks())

	if *pathsArg != "" {
		parts := strings.SplitN(*pathsArg, ",", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "-paths wants SRC,DST host indices")
			os.Exit(2)
		}
		si, err1 := strconv.Atoi(parts[0])
		di, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || si < 0 || di < 0 || si >= len(hosts) || di >= len(hosts) {
			fmt.Fprintf(os.Stderr, "host indices out of range [0,%d)\n", len(hosts))
			os.Exit(2)
		}
		paths := g.EqualCostPaths(hosts[si], hosts[di], *k)
		fmt.Printf("%d shortest paths %s -> %s:\n", len(paths),
			g.Node(hosts[si]).Name, g.Node(hosts[di]).Name)
		for i, p := range paths {
			fmt.Printf("  [%d] %d hops: %s\n", i, p.Hops(), p.Format(g))
		}
	}

	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(topology.ToDOT(g)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing dot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
}
