// Command benchmark is the repository's one performance benchmark: five
// time-boxed workloads over the serving stack, crash recovery and the
// simulator, each measured from outside through the layers' public
// surfaces. See README.md for the workloads, the metrics and how to read
// them; BENCHMARK.json at the repository root is the contract a driver
// runs it under.
//
//	bash benchmark/run.sh --workload serve_mem --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                  # all five workloads, one child process each
//	bash benchmark/run.sh --sets 5         # stability: spread of every end-to-end metric
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads in reporting order. The names are final: later changes cite
// them.
var workloads = []string{"serve_mem", "serve_wal", "serve_fabric", "recover_tail", "sim_k8"}

// options are one run's inputs.
type options struct {
	seed   uint64
	warmup time.Duration // serve workloads: discarded lead-in (window fill, cold path queries, lazy allocation)
	window time.Duration // measured window
	trace  bool
	// probeOps bounds the request prefix the layer probes replay: about a
	// second of collector work at the default.
	probeOps int
	outDir   string // traces and scratch files, git-ignored
	scratch  string // this process's private directory under outDir
}

func runWorkload(name string, o options) (*report, error) {
	switch name {
	case "serve_mem", "serve_wal", "serve_fabric":
		return runServe(name, o)
	case "recover_tail":
		return runRecover(o)
	case "sim_k8":
		return runSim(o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs all five, each in its own child process")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics from an instrumented run and writes a Chrome trace; 0 the end-to-end metrics")
		sets     = flag.Int("sets", 0, "stability mode: run this many sets of all workloads (seeds seed, seed+1, ...) and check every end-to-end spread against its bound")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for traces and scratch files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds n] [--trace 0|1] [--sets n] [--out dir]")
		os.Exit(2)
	}
	o := options{seed: *seed, warmup: 2 * time.Second, probeOps: 24_000, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: *outDir}
	switch {
	case *sets > 0:
		os.Exit(runStability(*sets, o))
	case *workload == "":
		os.Exit(runAll(o))
	}
	os.Exit(runOne(*workload, o))
}

// runOne runs a single workload in this process and prints its report. The
// exit code is 0 only for a correct run.
func runOne(name string, o options) int {
	start := time.Now()
	o.scratch = filepath.Join(o.outDir, fmt.Sprintf("tmp-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cleanup := func() { os.RemoveAll(o.scratch) }

	// The watchdog turns a hang into a failed run: every phase but set-up
	// and the probes is time-boxed, so 30 s over the window (20 more for a
	// traced run) is several times what a quiet box needs.
	limit := 30*time.Second + o.window
	if o.trace {
		limit += 20 * time.Second
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %v watchdog\n", name, limit)
		cleanup()
		os.Exit(3)
	})
	rep, err := runWorkload(name, o)
	watchdog.Stop()
	cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	if rep.traced {
		path := filepath.Join(o.outDir, "trace_"+name+".json")
		if err := writeChromeTrace(path, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: writing trace: %v\n", name, err)
			return 1
		}
	}
	res := rep.finish()
	if err := rep.print(os.Stdout, res, time.Since(start)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
