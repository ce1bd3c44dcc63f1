package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun runs one workload in a child process — a fresh heap, a fresh
// VmHWM, no state shared with the previous workload — echoes its report,
// and returns the contract object from its last line.
func childRun(name string, o options) (*result, bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	tr := "0"
	if o.trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(int(o.window.Seconds())), "--trace", tr, "--out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if runErr != nil {
		return nil, false, fmt.Errorf("%s: %w", name, runErr)
	}
	res := new(result)
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, false, fmt.Errorf("%s: last line is not a result object: %w", name, err)
	}
	return res, strings.Contains(stdout.String(), "noisy=1"), nil
}

// runAll runs the five workloads in sequence.
func runAll(o options) int {
	code := 0
	for _, name := range workloads {
		if _, _, err := childRun(name, o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	return code
}

// runStability runs sets sets of the five workloads untraced, set i on seed
// o.seed+i, and prints min/median/max and the relative spread
// (Q3-Q1)/median of every end-to-end metric per workload, quartiles as
// Python's statistics.quantiles gives them. It exits non-zero if a spread
// other than setup_s's exceeds the metric's bound — the acceptance rule a
// driver applies to this benchmark. A set the interference guard marks
// noisy is re-run once rather than averaged in.
func runStability(sets int, o options) int {
	o.trace = false
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	for _, name := range workloads {
		values[name] = map[string][]float64{}
		for i := 0; i < sets; i++ {
			so := o
			so.seed = o.seed + uint64(i)
			res, noisy, err := childRun(name, so)
			if err == nil && noisy {
				fmt.Printf("set %d of %s was noisy; re-running it once\n", i, name)
				res, _, err = childRun(name, so)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for metric, v := range res.Metrics {
				values[name][metric] = append(values[name][metric], v.Value)
			}
		}
	}
	code := 0
	fmt.Printf("\n%-13s %-12s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, name := range workloads {
		for _, d := range endToEndDefs {
			v := sortedCopy(values[name][d.Name])
			q1, q2, q3 := quartiles(v)
			spread := ratio(q3-q1, q2)
			verdict := ""
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-13s %-12s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n",
				name, d.Name, v[0], q2, v[len(v)-1], 100*spread, 100*d.Bound, verdict)
		}
	}
	return code
}
