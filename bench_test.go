// Repo-level benchmark harness: one testing.B benchmark per table/figure in
// the paper's evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured values). Each benchmark regenerates
// its artifact — completion-time sweep, prediction curves, sequence diagram,
// overhead report — and publishes the headline quantity via b.ReportMetric
// so `go test -bench=.` prints the reproduced numbers.
//
// Scales: benchmarks default to bench.QuickScale (sort inputs /10, Nutch at
// its published 8 GB). Set -paperscale to rerun at the full published input
// sizes.
package pythia

import (
	"flag"
	"fmt"
	"testing"

	"pythia/internal/bench"
)

var paperScale = flag.Bool("paperscale", false, "run benchmarks at the paper's full input sizes")

func benchScale() bench.Scale {
	if *paperScale {
		return bench.PaperScale()
	}
	s := bench.QuickScale()
	s.Repeats = 1 // testing.B supplies the repetition
	return s
}

// BenchmarkFig1aSequenceDiagram regenerates the Fig. 1a toy-sort sequence
// diagram (3 maps, 2 reducers, 5:1 reducer skew, non-blocking network).
func BenchmarkFig1aSequenceDiagram(b *testing.B) {
	var ascii string
	for i := 0; i < b.N; i++ {
		ascii, _ = bench.RunFig1a()
	}
	if ascii == "" {
		b.Fatal("no diagram")
	}
}

// BenchmarkFig1bAdversarialECMP regenerates the Fig. 1b motivational
// numbers: a 159 MB shuffle flow on a 95%-loaded vs 25%-loaded path.
func BenchmarkFig1bAdversarialECMP(b *testing.B) {
	var res bench.Fig1bResult
	for i := 0; i < b.N; i++ {
		res = bench.RunFig1b()
	}
	b.ReportMetric(res.AdversarialSec, "hotpath-s")
	b.ReportMetric(res.OptimalSec, "cleanpath-s")
}

// BenchmarkFig3Nutch regenerates Figure 3: Nutch completion times under
// Pythia vs ECMP across oversubscription ratios. Reported metric: the 1:20
// relative speedup (the paper's 46% headline).
func BenchmarkFig3Nutch(b *testing.B) {
	var rows []bench.SpeedupRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunFig3(benchScale())
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Speedup*100, "speedup-1:20-%")
	b.ReportMetric(last.PythiaSec, "pythia-1:20-s")
	b.ReportMetric(rows[0].PythiaSec, "pythia-none-s")
}

// BenchmarkFig4Sort regenerates Figure 4: the Sort sweep (paper max 43%).
func BenchmarkFig4Sort(b *testing.B) {
	var rows []bench.SpeedupRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunFig4(benchScale())
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Speedup*100, "speedup-1:20-%")
	b.ReportMetric(last.PythiaSec, "pythia-1:20-s")
}

// BenchmarkFig5Prediction regenerates Figure 5: prediction promptness
// (the paper saw ≥ ~9 s minimum lead) and accuracy (3–7% overestimate) on
// the integer sort.
func BenchmarkFig5Prediction(b *testing.B) {
	var res bench.Fig5Result
	for i := 0; i < b.N; i++ {
		res = bench.RunFig5(benchScale())
	}
	b.ReportMetric(res.MinLeadSec, "min-lead-s")
	b.ReportMetric(res.MeanOverestimate*100, "overestimate-%")
}

// BenchmarkOverheadInstrumentation regenerates §V-C: per-server CPU cost of
// the prediction middleware (paper: 2–5%).
func BenchmarkOverheadInstrumentation(b *testing.B) {
	var res bench.OverheadResult
	for i := 0; i < b.N; i++ {
		res = bench.RunOverhead(benchScale())
	}
	b.ReportMetric(res.MeanCPUFraction*100, "cpu-%")
	b.ReportMetric(res.MgmtBytes/1e3, "mgmt-KB")
}

// BenchmarkHederaComparison regenerates E7: ECMP vs Hedera-like vs Pythia at
// 1:10 (§II/§VI discussion — reactive load-awareness closes part of the
// gap).
func BenchmarkHederaComparison(b *testing.B) {
	var rows []bench.HederaRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunHederaComparison(benchScale())
	}
	b.ReportMetric(rows[0].ECMPSec, "sort-ecmp-s")
	b.ReportMetric(rows[0].HederaSec, "sort-hedera-s")
	b.ReportMetric(rows[0].PythiaSec, "sort-pythia-s")
}

// BenchmarkAblationKPaths (A1): k-shortest-paths diversity on a 4-trunk
// testbed.
func BenchmarkAblationKPaths(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunAblationKPaths(benchScale())
	}
	b.ReportMetric(rows[0].PythiaSec, "k1-s")
	b.ReportMetric(rows[2].PythiaSec, "k4-s")
}

// BenchmarkAblationAggregation (A2): host-pair flow aggregation on/off.
func BenchmarkAblationAggregation(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunAblationAggregation(benchScale())
	}
	b.ReportMetric(rows[0].PythiaSec, "agg-on-s")
	b.ReportMetric(rows[1].PythiaSec, "agg-off-s")
}

// BenchmarkAblationPredictionDelay (A3): how late predictions erode the
// benefit.
func BenchmarkAblationPredictionDelay(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunAblationPredictionDelay(benchScale())
	}
	b.ReportMetric(rows[0].Speedup*100, "prompt-speedup-%")
	b.ReportMetric(rows[len(rows)-1].Speedup*100, "delayed-speedup-%")
}

// BenchmarkAblationInstallLatency (A4): per-rule switch programming cost
// sweep (paper budget: 3–5 ms/flow).
func BenchmarkAblationInstallLatency(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunAblationInstallLatency(benchScale())
	}
	b.ReportMetric(rows[1].Speedup*100, "4ms-speedup-%")
	b.ReportMetric(rows[len(rows)-1].Speedup*100, "500ms-speedup-%")
}

// BenchmarkAblationScope (A5): host-pair vs rack-pair aggregation — the
// §IV forwarding-state-conservation policy. Reported metrics: completion
// time and installed-rule count per scope.
func BenchmarkAblationScope(b *testing.B) {
	var rows []bench.ScopeRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunAblationScope(benchScale())
	}
	b.ReportMetric(rows[0].PythiaSec, "hostpair-s")
	b.ReportMetric(float64(rows[0].Rules), "hostpair-rules")
	b.ReportMetric(rows[1].PythiaSec, "rackpair-s")
	b.ReportMetric(float64(rows[1].Rules), "rackpair-rules")
}

// BenchmarkAblationCriticality (A6): the §VI flow-priority criterion on a
// heavily skewed sort. Expect near-parity on this small testbed (first-fit
// decreasing already orders by the gating demand).
func BenchmarkAblationCriticality(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunAblationCriticality(benchScale())
	}
	b.ReportMetric(rows[0].PythiaSec, "crit-off-s")
	b.ReportMetric(rows[1].PythiaSec, "crit-on-s")
}

// BenchmarkScaleOut (E8): sort under ECMP vs Pythia on growing leaf-spine
// fabrics — the §IV "larger-scale future SDN setup".
func BenchmarkScaleOut(b *testing.B) {
	var rows []bench.ScaleOutRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunScaleOut(benchScale())
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Speedup*100, "4x4-speedup-%")
}

// BenchmarkFlowCombComparison (E9): the §VI related-work system — same
// predictive architecture, slower detection, software switches.
func BenchmarkFlowCombComparison(b *testing.B) {
	var rows []bench.RelatedRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunFlowCombComparison(benchScale())
	}
	b.ReportMetric(rows[0].JobSec, "ecmp-s")
	b.ReportMetric(rows[1].JobSec, "flowcomb-s")
	b.ReportMetric(rows[2].JobSec, "pythia-s")
}

// BenchmarkPartitionerComparison (E10): §II's application-level skew remedy
// (adaptive partitioning) vs and composed with network-level Pythia.
func BenchmarkPartitionerComparison(b *testing.B) {
	var rows []bench.RelatedRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunPartitionerComparison(benchScale())
	}
	b.ReportMetric(rows[0].JobSec, "ecmp-hash-s")
	b.ReportMetric(rows[3].JobSec, "pythia-balanced-s")
}

// BenchmarkAblationTimeliness (A7): the paper's proposed follow-up
// experiment — prediction lead vs Hadoop parameters (parallel copies,
// completion-event poll period). Expected: insensitivity.
func BenchmarkAblationTimeliness(b *testing.B) {
	var rows []bench.TimelinessRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunAblationTimeliness(benchScale())
	}
	b.ReportMetric(rows[0].MinLeadSec, "default-minlead-s")
	b.ReportMetric(rows[len(rows)-1].MinLeadSec, "poll6s-minlead-s")
}

// BenchmarkTraceReplay (E13): a Facebook/SWIM-shaped multi-job trace under
// ECMP vs Pythia; reports the shuffle-time share (the paper's motivating
// 33% statistic) and the mean-job speedup.
func BenchmarkTraceReplay(b *testing.B) {
	var c bench.TraceComparison
	for i := 0; i < b.N; i++ {
		c = bench.RunTrace()
	}
	b.ReportMetric(c.ECMP.ShuffleFraction*100, "ecmp-shuffle-%")
	b.ReportMetric(c.MeanJobSpeedup*100, "meanjob-speedup-%")
}

// BenchmarkOptimalityGap (E11): distance to the omniscient lower bound
// across the oversubscription sweep (Pythia converges; ECMP does not).
func BenchmarkOptimalityGap(b *testing.B) {
	var rows []bench.GapRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunOptimalityGap(benchScale())
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.PythiaGap*100, "pythia-gap-1:20-%")
	b.ReportMetric(last.ECMPGap*100, "ecmp-gap-1:20-%")
}

// BenchmarkScaleFatTree measures simulator throughput on k-ary fat-trees
// far beyond the paper's 16-server testbed, one row per fabric size.
func BenchmarkScaleFatTree(b *testing.B) {
	type row struct {
		name string
		cfg  bench.ScaleFatTreeConfig
	}
	var rows []row
	for _, k := range []int{4, 6, 8} {
		rows = append(rows, row{
			name: fmt.Sprintf("k%d/hosts%d", k, bench.FatTreeHosts(k)),
			cfg:  bench.ScaleFatTreeConfig{K: k},
		})
	}
	// Order-of-magnitude fabrics: k=16 (1024 hosts, 1280 switches) and k=24
	// (3456 hosts, 4320 switches) with a calibrated job — the default sizing
	// grows cubically with k and would put half a million flows through one
	// trial; a fixed 4 GB / 64-reducer sort keeps the flow population
	// comparable across rows so the fabric itself (topology build, path
	// computation, telemetry, allocation) is what scales.
	for _, k := range []int{16, 24} {
		rows = append(rows, row{
			name: fmt.Sprintf("k%d/hosts%d", k, bench.FatTreeHosts(k)),
			cfg:  bench.ScaleFatTreeConfig{K: k, SortBytes: 4 * GB, Reduces: 64},
		})
	}
	for _, r := range rows {
		r := r
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			var res bench.ScaleFatTreeResult
			for i := 0; i < b.N; i++ {
				res = bench.RunScaleFatTree(r.cfg)
			}
			b.ReportMetric(res.JobSec, "sim-job-s")
			b.ReportMetric(float64(len(res.FlowHistory)), "flows")
			// Prediction-plane robustness counters ride along in the
			// artifact; a healthy scale run must keep them at zero.
			f := res.Faults
			b.ReportMetric(float64(f.DedupHits+f.DuplicateIntents), "dup-intents")
			b.ReportMetric(float64(f.ExpiredBookings+f.ExpiredIntents), "expired-bookings")
			b.ReportMetric(float64(f.LateIntents+f.InFlightDropped), "late-intents")
			if f != (bench.FaultCounters{}) {
				b.Fatalf("healthy scale run recorded faults: %+v", f)
			}
			// Flight-recorder prediction-quality scores: how far ahead
			// of each shuffle flow its rules landed, and how far the
			// predicted bytes missed the wire bytes.
			if q := res.Quality; q != nil {
				b.ReportMetric(q.LeadP50Sec, "lead-p50-s")
				b.ReportMetric(q.LeadP95Sec, "lead-p95-s")
				b.ReportMetric(q.LeadMaxSec, "lead-max-s")
				b.ReportMetric(q.LateFraction*100, "late-frac-%")
				b.ReportMetric(q.ByteErrMeanAbsFrac*100, "byte-err-%")
			}
		})
	}
}
