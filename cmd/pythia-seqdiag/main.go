// Command pythia-seqdiag renders MapReduce job sequence diagrams — the
// visualization tool behind the paper's Fig. 1a.
//
// Usage:
//
//	pythia-seqdiag [-workload toy|sort|nutch|wordcount] [-input-gb N]
//	               [-reduces N] [-scheduler ecmp|pythia|hedera]
//	               [-oversub N] [-width N] [-svg out.svg] [-seed N]
//	               [-trace out.json] [-chrome merged.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"pythia"
)

func main() {
	workloadName := flag.String("workload", "toy", "toy, sort, nutch or wordcount")
	inputGB := flag.Float64("input-gb", 4, "input size in GB (ignored for toy)")
	reduces := flag.Int("reduces", 6, "number of reducers (ignored for toy)")
	scheduler := flag.String("scheduler", "ecmp", "ecmp, pythia or hedera")
	oversub := flag.Int("oversub", 0, "oversubscription ratio N (0 = none)")
	width := flag.Int("width", 100, "diagram width in columns")
	svgPath := flag.String("svg", "", "also write an SVG to this path")
	tracePath := flag.String("trace", "", "also write a Chrome trace-event JSON (chrome://tracing / Perfetto) to this path")
	chromePath := flag.String("chrome", "", "also write a merged Chrome trace (fabric spans + control-plane flight lanes) to this path")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	var kind pythia.SchedulerKind
	switch *scheduler {
	case "ecmp":
		kind = pythia.SchedulerECMP
	case "pythia":
		kind = pythia.SchedulerPythia
	case "hedera":
		kind = pythia.SchedulerHedera
	default:
		fmt.Fprintf(os.Stderr, "unknown scheduler %q\n", *scheduler)
		os.Exit(2)
	}

	var spec *pythia.JobSpec
	switch *workloadName {
	case "toy":
		spec = pythia.ToySortJob()
	case "sort":
		spec = pythia.SortJob(*inputGB*pythia.GB, *reduces, *seed)
	case "nutch":
		spec = pythia.NutchJob(*inputGB*pythia.GB, *reduces, *seed)
	case "wordcount":
		spec = pythia.WordCountJob(*inputGB*pythia.GB, *reduces, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
		os.Exit(2)
	}

	opts := []pythia.Option{
		pythia.WithScheduler(kind),
		pythia.WithOversubscription(*oversub),
		pythia.WithSeed(*seed),
	}
	if *chromePath != "" {
		opts = append(opts, pythia.WithFlightRecorder())
	}
	cl := pythia.New(opts...)
	res := cl.RunJob(spec)
	fmt.Println(cl.SequenceDiagram(*width))
	fmt.Printf("scheduler=%s oversub=%d job=%.1fs (maps %.1fs, shuffle barrier %.1fs)\n",
		kind, *oversub, res.DurationSec, res.MapPhaseSec, res.ShuffleSec)

	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(cl.SequenceDiagramSVG()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing svg: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	if *tracePath != "" {
		data, err := cl.ChromeTrace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building trace: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *tracePath)
	}
	if *chromePath != "" {
		data, err := cl.MergedChromeTrace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building merged trace: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*chromePath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing merged trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *chromePath)
	}
}
