package bench

import (
	"fmt"
	"strings"

	"pythia/internal/hadoop"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/testbed"
	"pythia/internal/workload"
)

// TraceResult summarizes one trace replay.
type TraceResult struct {
	Jobs        int
	MakespanSec float64
	MeanJobSec  float64
	P95JobSec   float64
	// ShuffleFraction is Σ per-job shuffle-phase time (map-phase end to
	// barrier) over Σ job time — the statistic behind the paper's
	// motivating "33% of the execution time ... spent at the shuffle
	// phase" Facebook measurement.
	ShuffleFraction float64
	// Starved counts jobs that had not completed when the event queue
	// drained; zero on a healthy run.
	Starved int
	// Durations holds the completed jobs' completion times so cross-seed
	// aggregation can pool samples before taking percentiles. Excluded
	// from JSON artifacts.
	Durations []float64 `json:"-"`
}

// RunTraceReplay (E13) replays a synthesized Facebook/SWIM-shaped job
// stream — Poisson arrivals, heavy-tailed inputs, a mixed map-heavy /
// transform / shuffle-heavy class distribution — under the given scheduler
// and oversubscription level on the paper testbed. It panics if any job
// fails to complete; saturation-tolerant callers use TryRunTraceReplay.
func RunTraceReplay(scheduler Scheduler, lvl Oversub, tcfg workload.TraceConfig) TraceResult {
	res, err := TryRunTraceReplay(scheduler, lvl, tcfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return res
}

// TryRunTraceReplay replays the trace and reports failures as errors the
// way pythia.TryRunJobs does: submission errors and starved jobs yield a
// non-nil error alongside the statistics of whatever did complete, so
// saturated runs stay measurable instead of panicking.
func TryRunTraceReplay(scheduler Scheduler, lvl Oversub, tcfg workload.TraceConfig) (TraceResult, error) {
	tb, err := testbed.Build(TrialConfig{Scheduler: scheduler, Oversub: lvl, Seed: 1}.toTestbed())
	if err != nil {
		return TraceResult{}, err
	}
	eng, cluster := tb.Eng, tb.Cluster

	trace := workload.SyntheticFacebookTrace(tcfg)
	jobs := make([]*hadoop.Job, 0, len(trace))
	specs := make([]*hadoop.JobSpec, 0, len(trace))
	var submitErr error
	for _, tj := range trace {
		tj := tj
		eng.At(sim.Time(tj.SubmitAtSec), func() {
			j, err := cluster.Submit(tj.Spec)
			if err != nil {
				if submitErr == nil {
					submitErr = fmt.Errorf("trace submit %q: %w", tj.Spec.Name, err)
				}
				return
			}
			jobs = append(jobs, j)
			specs = append(specs, tj.Spec)
		})
	}
	eng.Run()
	if submitErr != nil {
		return TraceResult{}, submitErr
	}

	res := TraceResult{Jobs: len(jobs)}
	var starved []string
	var totalTime, totalShuffle float64
	for i, j := range jobs {
		if !j.Done {
			starved = append(starved, specs[i].Name)
			continue
		}
		d := float64(j.Duration())
		res.Durations = append(res.Durations, d)
		totalTime += d
		if float64(j.Finished) > res.MakespanSec {
			res.MakespanSec = float64(j.Finished)
		}
		shuffle := float64(j.ShuffleEnd.Sub(j.MapPhaseEnd))
		if shuffle > 0 {
			totalShuffle += shuffle
		}
	}
	res.Starved = len(starved)
	s := stats.Summarize(res.Durations)
	res.MeanJobSec = s.Mean
	res.P95JobSec = s.P95
	if totalTime > 0 {
		res.ShuffleFraction = totalShuffle / totalTime
	}
	if len(starved) > 0 {
		return res, fmt.Errorf("%d of %d trace jobs did not complete (starved network): %v",
			len(starved), len(jobs), starved)
	}
	return res, nil
}

// TraceComparison pairs the replay under ECMP and Pythia.
type TraceComparison struct {
	ECMP   TraceResult
	Pythia TraceResult
	// MeanJobSpeedup is the paper-style relative improvement on mean job
	// completion time.
	MeanJobSpeedup float64
}

// poolTraceResults aggregates per-seed replays of one scheduler by pooling
// the per-job duration samples and computing statistics once — averaging
// per-seed P95s is NOT a P95 (percentiles do not commute with means, and
// on the trace's heavy-tailed durations the two visibly diverge).
// MakespanSec stays a cross-seed mean: it is a per-replay scalar, not a
// sample statistic. ShuffleFraction pools duration-weighted, recovering
// Σ shuffle over Σ time across every job of every seed.
func poolTraceResults(rs []TraceResult) TraceResult {
	var agg TraceResult
	if len(rs) == 0 {
		return agg
	}
	var pooled []float64
	var totalTime, totalShuffle float64
	for _, r := range rs {
		agg.Jobs = r.Jobs
		agg.Starved += r.Starved
		agg.MakespanSec += r.MakespanSec / float64(len(rs))
		pooled = append(pooled, r.Durations...)
		var t float64
		for _, d := range r.Durations {
			t += d
		}
		totalTime += t
		totalShuffle += r.ShuffleFraction * t
	}
	agg.Durations = pooled
	s := stats.Summarize(pooled)
	agg.MeanJobSec = s.Mean
	agg.P95JobSec = s.P95
	if totalTime > 0 {
		agg.ShuffleFraction = totalShuffle / totalTime
	}
	return agg
}

// RunTrace (E13) aggregates the comparison over several trace seeds at
// 1:10, pooling the per-job samples across seeds. Every (seed, scheduler)
// replay is independent, so they all fan out across the worker pool;
// aggregation keeps the serial seed order so the result is identical at
// any parallelism.
func RunTrace() TraceComparison {
	lvl := Oversub{Label: "1:10", Ratio: 10}
	results := make([]TraceResult, 2*len(ablationSeeds))
	forEachIndex(len(results), func(i int) {
		tcfg := workload.TraceConfig{Seed: ablationSeeds[i/2]}
		sch := ECMP
		if i%2 == 1 {
			sch = Pythia
		}
		results[i] = RunTraceReplay(sch, lvl, tcfg)
	})
	ecmpRuns := make([]TraceResult, 0, len(ablationSeeds))
	pyRuns := make([]TraceResult, 0, len(ablationSeeds))
	for i := range ablationSeeds {
		ecmpRuns = append(ecmpRuns, results[2*i])
		pyRuns = append(pyRuns, results[2*i+1])
	}
	agg := TraceComparison{
		ECMP:   poolTraceResults(ecmpRuns),
		Pythia: poolTraceResults(pyRuns),
	}
	agg.MeanJobSpeedup = stats.Speedup(agg.ECMP.MeanJobSec, agg.Pythia.MeanJobSec)
	return agg
}

// FormatTraceComparison renders the E13 result.
func FormatTraceComparison(c TraceComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== E13: Facebook/SWIM-shaped trace replay (%d jobs, 1:10) ===\n", c.ECMP.Jobs)
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %16s\n", "sched", "makespan(s)", "mean job(s)", "p95 job(s)", "shuffle fraction")
	for _, row := range []struct {
		name string
		r    TraceResult
	}{{"ECMP", c.ECMP}, {"Pythia", c.Pythia}} {
		fmt.Fprintf(&b, "%-8s %12.1f %12.1f %12.1f %15.1f%%\n",
			row.name, row.r.MakespanSec, row.r.MeanJobSec, row.r.P95JobSec, row.r.ShuffleFraction*100)
	}
	fmt.Fprintf(&b, "mean-job speedup: %.1f%% (paper motivation: FB traces spend ~33%% of job time in shuffle)\n",
		c.MeanJobSpeedup*100)
	return b.String()
}
