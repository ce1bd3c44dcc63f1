// Command pythia-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	pythia-bench [-experiment all|fig1a|fig1b|fig3|fig4|fig5|overhead|hedera|
//	              scaleout|flowcomb|partitioner|trace|bounds|ablations]
//	             [-full] [-parallel N]
//	             [-svg fig1a.svg] [-svgdir DIR] [-json results.json]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -full runs the paper's published input sizes (240 GB sort, 8 GB Nutch,
// 60 GB integer sort); the default quick scale divides the sort inputs by 10
// so the whole suite completes in seconds. -svgdir emits the figure charts;
// -json emits machine-readable results for downstream analysis. -parallel
// bounds how many trials run concurrently (default 0 = one per CPU;
// -parallel 1 restores fully serial execution). Every trial is an
// independent deterministic simulation and results are reassembled in
// submission order, so the output is byte-identical at any setting.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (`go tool pprof` reads them); `make profile` wraps the common
// hot-path capture. Profile with -parallel 1 when attributing cost to a
// single trial's call tree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"pythia/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: all, fig1a, fig1b, fig3, fig4, fig5, overhead, hedera, scaleout, flowcomb, partitioner, trace, bounds, ablations")
	full := flag.Bool("full", false, "run at the paper's full input sizes")
	svgPath := flag.String("svg", "", "also write the fig1a diagram as SVG to this path")
	svgDir := flag.String("svgdir", "", "write figure SVGs (fig3/fig4/fig5) into this directory")
	jsonPath := flag.String("json", "", "also write all executed experiments' results as JSON to this path")
	parallel := flag.Int("parallel", 0, "max concurrent trials (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the experiments) to this path")
	flag.Parse()

	bench.SetParallelism(*parallel)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating %s: %v\n", *memProfile, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live + cumulative truthfully
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing heap profile: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *memProfile)
		}()
	}

	scale := bench.QuickScale()
	if *full {
		scale = bench.PaperScale()
	}

	results := map[string]any{}

	writeSVG := func(name, svg string) {
		if *svgDir == "" || svg == "" {
			return
		}
		path := *svgDir + "/" + name
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	run := map[string]func(){
		"fig1a": func() {
			ascii, svg := bench.RunFig1a()
			fmt.Println("=== Fig. 1a: toy sort sequence diagram ===")
			fmt.Println(ascii)
			results["fig1a"] = ascii
			if *svgPath != "" {
				if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "writing svg: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", *svgPath)
			}
		},
		"fig1b": func() {
			r := bench.RunFig1b()
			results["fig1b"] = r
			fmt.Println("=== Fig. 1b: adversarial ECMP allocation (159 MB flow) ===")
			fmt.Printf("on 95%%-loaded path: %.1fs   on 25%%-loaded path: %.1fs (%.0fx)\n",
				r.AdversarialSec, r.OptimalSec, r.AdversarialSec/r.OptimalSec)
			fmt.Printf("ECMP can hash onto the hot path: %v; availability-based choice avoids it: %v\n",
				r.ECMPHitsHotPath, r.PythiaPickedCleanPath)
		},
		"fig3": func() {
			rows := bench.RunFig3(scale)
			results["fig3"] = rows
			fmt.Print(bench.FormatSpeedupTable("=== Fig. 3: Nutch indexing, Pythia vs ECMP ===", rows))
			writeSVG("fig3.svg", bench.SpeedupSVG("Fig.3 — Nutch indexing", rows))
		},
		"fig4": func() {
			rows := bench.RunFig4(scale)
			results["fig4"] = rows
			fmt.Print(bench.FormatSpeedupTable("=== Fig. 4: Sort, Pythia vs ECMP ===", rows))
			writeSVG("fig4.svg", bench.SpeedupSVG("Fig.4 — Sort", rows))
		},
		"fig5": func() {
			res := bench.RunFig5(scale)
			results["fig5"] = res
			fmt.Print(bench.FormatFig5(res))
			if len(res.PerHost) > 0 {
				// The paper plots a single server; pick the one with the
				// largest mean lead, as a representative.
				best := res.PerHost[0]
				for _, h := range res.PerHost {
					if h.MeanLeadSec > best.MeanLeadSec {
						best = h
					}
				}
				writeSVG("fig5.svg", bench.Fig5SVG(best))
			}
		},
		"overhead": func() {
			r := bench.RunOverhead(scale)
			results["overhead"] = r
			fmt.Println("=== §V-C: instrumentation overhead ===")
			fmt.Printf("mean CPU %.1f%%  max CPU %.1f%%  (paper: 2–5%%)\n",
				r.MeanCPUFraction*100, r.MaxCPUFraction*100)
			fmt.Printf("management-network traffic: %.1f KB over %d intents; %d OpenFlow rules installed\n",
				r.MgmtBytes/1e3, r.IntentsSent, r.RulesInstalled)
		},
		"hedera": func() {
			rows := bench.RunHederaComparison(scale)
			results["hedera"] = rows
			fmt.Println("=== E7: ECMP vs Hedera-like vs Pythia at 1:10 ===")
			fmt.Printf("%-8s %10s %12s %12s\n", "workload", "ECMP (s)", "Hedera (s)", "Pythia (s)")
			for _, r := range rows {
				fmt.Printf("%-8s %10.1f %12.1f %12.1f\n", r.Workload, r.ECMPSec, r.HederaSec, r.PythiaSec)
			}
		},
		"scaleout": func() {
			rows := bench.RunScaleOut(scale)
			results["scaleout"] = rows
			fmt.Print(bench.FormatScaleOutTable("=== E8: leaf-spine scale-out (sort, 1:10) ===", rows))
		},
		"flowcomb": func() {
			rows := bench.RunFlowCombComparison(scale)
			results["flowcomb"] = rows
			fmt.Print(bench.FormatRelatedTable("=== E9: FlowComb-like comparison (sort, 1:10) ===", rows))
		},
		"partitioner": func() {
			rows := bench.RunPartitionerComparison(scale)
			results["partitioner"] = rows
			fmt.Print(bench.FormatRelatedTable("=== E10: network-level vs application-level skew handling (skewed sort, 1:10) ===", rows))
		},
		"trace": func() {
			c := bench.RunTrace()
			results["trace"] = c
			fmt.Print(bench.FormatTraceComparison(c))
		},
		"bounds": func() {
			rows := bench.RunOptimalityGap(scale)
			results["bounds"] = rows
			fmt.Print(bench.FormatGapTable("=== E11: gap to the omniscient lower bound (sort) ===", rows))
			fmt.Println("(the bound ignores phase sequencing, so gaps at low contention are loose;")
			fmt.Println(" the signal is the trend: Pythia converges toward the bound as the network binds)")
		},
		"ablations": func() {
			a1 := bench.RunAblationKPaths(scale)
			a2 := bench.RunAblationAggregation(scale)
			a3 := bench.RunAblationPredictionDelay(scale)
			a4 := bench.RunAblationInstallLatency(scale)
			a5 := bench.RunAblationScope(scale)
			a6 := bench.RunAblationCriticality(scale)
			a7 := bench.RunAblationTimeliness(scale)
			results["ablations"] = map[string]any{
				"kpaths": a1, "aggregation": a2, "prediction_delay": a3,
				"install_latency": a4, "scope": a5, "criticality": a6,
				"timeliness": a7,
			}
			fmt.Print(bench.FormatAblationTable("=== A1: k-shortest paths (4 trunks, sort, 1:10) ===", a1))
			fmt.Println()
			fmt.Print(bench.FormatAblationTable("=== A2: flow aggregation (nutch, 1:20) ===", a2))
			fmt.Println()
			fmt.Print(bench.FormatAblationTable("=== A3: prediction delay (sort, 1:10) ===", a3))
			fmt.Println()
			fmt.Print(bench.FormatAblationTable("=== A4: rule-install latency (sort, 1:10) ===", a4))
			fmt.Println()
			fmt.Print(bench.FormatScopeTable("=== A5: aggregation scope — TCAM occupancy (sort, 1:10) ===", a5))
			fmt.Println()
			fmt.Print(bench.FormatAblationTable("=== A6: flow criticality (skewed sort, 1:10) ===", a6))
			fmt.Println()
			fmt.Print(bench.FormatTimelinessTable("=== A7: timeliness insensitivity (integer sort, 1:5) ===", a7))
		},
	}

	order := []string{"fig1a", "fig1b", "fig3", "fig4", "fig5", "overhead", "hedera", "scaleout", "flowcomb", "partitioner", "trace", "bounds", "ablations"}
	if *experiment == "all" {
		for _, name := range order {
			run[name]()
			fmt.Println()
		}
	} else {
		fn, ok := run[*experiment]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, %v)\n", *experiment, order)
			os.Exit(2)
		}
		fn()
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding results: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
