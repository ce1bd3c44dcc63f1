// Command bench2json converts `go test -bench` text output into a stable
// JSON artifact, and compares two such artifacts.
//
// Emit mode (default) reads benchmark output on stdin and writes a JSON
// array of {name, iterations, ns_per_op, bytes_per_op, allocs_per_op}
// records to stdout (or -o FILE):
//
//	go test -bench=ScaleFatTree -benchmem -run='^$' . | bench2json -o BENCH_scale.json
//
// Compare mode takes two artifacts and prints a per-benchmark delta table,
// exiting nonzero if any benchmark present in both files slowed down by
// more than -max-regress percent:
//
//	bench2json -compare BENCH_scale_old.json BENCH_scale.json -max-regress 20
//
// The tool is intentionally line-oriented and stdlib-only so CI can run it
// without any extra tooling.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. Custom b.ReportMetric units (anything
// beyond the standard ns/op, B/op, allocs/op triple — e.g. sim-job-s,
// lead-p50-s, late-frac-%) land in Metrics keyed by unit.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	compare := flag.Bool("compare", false, "compare two JSON artifacts: bench2json -compare OLD NEW")
	maxRegress := flag.Float64("max-regress", 0, "in compare mode, exit 1 if any ns/op regressed by more than this percent (0 = report only)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench2json -compare OLD.json NEW.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
		return
	}

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines on stdin")
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// parseBench extracts benchmark result lines from go test output. A result
// line looks like:
//
//	BenchmarkScaleFatTree/k8/hosts128-8  3  41031201 ns/op  5102 B/op  37 allocs/op
func parseBench(r *os.File) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		res := Result{Name: fields[0], Iterations: iters, NsPerOp: ns}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		results = append(results, res)
	}
	return results, sc.Err()
}

func load(path string) (map[string]Result, []string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var list []Result
	if err := json.Unmarshal(buf, &list); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	m := make(map[string]Result, len(list))
	order := make([]string, 0, len(list))
	for _, r := range list {
		if _, dup := m[r.Name]; !dup {
			order = append(order, r.Name)
		}
		m[r.Name] = r
	}
	return m, order, nil
}

func runCompare(oldPath, newPath string, maxRegress float64) error {
	oldM, _, err := load(oldPath)
	if err != nil {
		return err
	}
	newM, order, err := load(newPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-60s %14s %14s %9s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs")
	regressed := false
	for _, name := range order {
		nw := newM[name]
		old, ok := oldM[name]
		if !ok {
			fmt.Fprintf(w, "%-60s %14s %14.0f %9s %10.0f\n", name, "-", nw.NsPerOp, "new", nw.AllocsOp)
			continue
		}
		pct := 0.0
		if old.NsPerOp > 0 {
			pct = (nw.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %+8.1f%% %10.0f\n",
			name, old.NsPerOp, nw.NsPerOp, pct, nw.AllocsOp)
		if maxRegress > 0 && pct > maxRegress {
			regressed = true
		}
	}
	w.Flush()
	if regressed {
		return fmt.Errorf("ns/op regression beyond %.1f%% threshold", maxRegress)
	}
	return nil
}
