package bench

import (
	"fmt"
	"strings"

	"pythia/internal/hadoop"
	"pythia/internal/netsim"
	"pythia/internal/plot"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/testbed"
	"pythia/internal/topology"
	"pythia/internal/trace"
	"pythia/internal/workload"
)

// Scale selects the experiment input sizes. Paper scale reproduces the
// exact published input volumes; Quick scale divides them by 10 so the full
// suite runs in seconds.
type Scale struct {
	SortBytes        float64
	NutchBytes       float64
	IntegerSortBytes float64
	Repeats          int
}

// QuickScale keeps Nutch at its published 8 GB (it is cheap to simulate)
// and divides the two sort inputs by 10 so the full suite runs in seconds.
func QuickScale() Scale {
	return Scale{
		SortBytes:        24 * workload.GB,
		NutchBytes:       8 * workload.GB,
		IntegerSortBytes: 6 * workload.GB,
		Repeats:          3,
	}
}

// PaperScale matches §V-A: 240 GB sort, 8 GB Nutch, 60 GB integer sort.
func PaperScale() Scale {
	return Scale{
		SortBytes:        240 * workload.GB,
		NutchBytes:       8 * workload.GB,
		IntegerSortBytes: 60 * workload.GB,
		Repeats:          3,
	}
}

// SpeedupRow is one oversubscription level of Figs. 3/4: mean job completion
// times under ECMP and Pythia and the relative speedup (ECMP-Pythia)/Pythia,
// matching the figures' right axis.
type SpeedupRow struct {
	Oversub   string
	ECMPSec   float64
	PythiaSec float64
	Speedup   float64
	// ECMPCI and PythiaCI are 95% confidence half-widths over the repeat
	// runs (0 for single runs).
	ECMPCI   float64
	PythiaCI float64
}

// runSpeedupSweep executes the Fig. 3/4 protocol for one workload: for each
// oversubscription level, run Repeats trials per scheduler (varying the
// seed, which reshuffles ECMP hashing and workload jitter — the paper
// reports averages of multiple executions) and average.
func runSpeedupSweep(mkSpec func(seed uint64) *hadoop.JobSpec, scale Scale, levels []Oversub) []SpeedupRow {
	// Every (level, repeat, scheduler) trial is an independent simulation
	// with its seed fixed here, so the whole sweep fans out across the
	// worker pool; aggregation below walks the results in the same nested
	// order the serial loop used, keeping the output byte-identical at any
	// parallelism.
	cfgs := make([]TrialConfig, 0, len(levels)*scale.Repeats*2)
	for _, lvl := range levels {
		for rep := 0; rep < scale.Repeats; rep++ {
			seed := uint64(rep)*1000 + 17
			spec := mkSpec(seed)
			cfgs = append(cfgs,
				TrialConfig{Spec: spec, Scheduler: ECMP, Oversub: lvl, Seed: seed},
				TrialConfig{Spec: spec, Scheduler: Pythia, Oversub: lvl, Seed: seed})
		}
	}
	results := RunTrials(cfgs)
	rows := make([]SpeedupRow, 0, len(levels))
	i := 0
	for _, lvl := range levels {
		var ecmpTimes, pythiaTimes []float64
		for rep := 0; rep < scale.Repeats; rep++ {
			ecmpTimes = append(ecmpTimes, results[i].JobSec)
			pythiaTimes = append(pythiaTimes, results[i+1].JobSec)
			i += 2
		}
		e, p := stats.Mean(ecmpTimes), stats.Mean(pythiaTimes)
		rows = append(rows, SpeedupRow{
			Oversub:   lvl.Label,
			ECMPSec:   e,
			PythiaSec: p,
			Speedup:   stats.Speedup(e, p),
			ECMPCI:    stats.CI95(ecmpTimes),
			PythiaCI:  stats.CI95(pythiaTimes),
		})
	}
	return rows
}

// RunFig3 reproduces Figure 3: Nutch indexing completion times under Pythia
// and ECMP across oversubscription ratios, with relative speedup. The paper
// reports speedups up to 46% at 1:20 and near-flat Pythia times.
func RunFig3(scale Scale) []SpeedupRow {
	return runSpeedupSweep(func(seed uint64) *hadoop.JobSpec {
		return workload.Nutch(scale.NutchBytes, 12, seed)
	}, scale, StandardLevels())
}

// RunFig4 reproduces Figure 4: the Sort counterpart (speedups up to 43%;
// Pythia times degrade somewhat with oversubscription, unlike Nutch,
// because sort's fewer larger flows pack less evenly).
func RunFig4(scale Scale) []SpeedupRow {
	return runSpeedupSweep(func(seed uint64) *hadoop.JobSpec {
		return workload.Sort(scale.SortBytes, 10, seed)
	}, scale, StandardLevels())
}

// Fig5Result is the prediction promptness/accuracy outcome for the 60 GB
// integer sort: the paper observed a minimum ~9 s lead and a 3–7%
// traffic-volume overestimate, consistent across servers.
type Fig5Result struct {
	PerHost []HostPrediction
	// MinLeadSec is the smallest lead across all hosts and volume levels.
	MinLeadSec float64
	// MeanOverestimate averages the per-host overestimation factors.
	MeanOverestimate float64
}

// RunFig5 reproduces Figure 5 under Pythia scheduling at moderate load.
func RunFig5(scale Scale) Fig5Result {
	res := RunTrial(TrialConfig{
		Spec:              workload.IntegerSort(scale.IntegerSortBytes, 10, 7),
		Scheduler:         Pythia,
		Oversub:           Oversub{Label: "1:5", Ratio: 5},
		Seed:              7,
		CollectPrediction: true,
	})
	out := Fig5Result{PerHost: res.Prediction.Hosts}
	first := true
	var overSum float64
	for _, h := range res.Prediction.Hosts {
		if first || h.MinLeadSec < out.MinLeadSec {
			out.MinLeadSec = h.MinLeadSec
			first = false
		}
		overSum += h.Overestimate
	}
	if n := len(res.Prediction.Hosts); n > 0 {
		out.MeanOverestimate = overSum / float64(n)
	}
	return out
}

// RunFig1a reproduces the Figure 1a sequence diagram: the toy sort job
// (three maps, two reducers, reducer-0 fetching 5x reducer-1) on a
// non-blocking 1 Gbps network, rendered by the trace tool.
func RunFig1a() (ascii, svg string) {
	tb := mustBuild(testbed.Config{
		Seed:   1,
		Hadoop: hadoop.Config{MapSlots: 1, ReduceSlots: 1},
	})
	job, err := tb.Cluster.Submit(workload.ToySort())
	if err != nil {
		panic(err)
	}
	tb.Eng.Run()
	seq := trace.Of(job, tb.Net.History())
	return seq.Render(100), seq.RenderSVG()
}

// mustBuild is testbed.Build for the runners whose configuration is fixed.
func mustBuild(cfg testbed.Config) *testbed.Testbed {
	tb, err := testbed.Build(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return tb
}

// Fig1bResult quantifies the §II motivational example: a 159 MB shuffle
// flow and the two candidate paths (95% vs 25% occupied). ECMP's
// load-unaware hash can land the flow on the hot path; allocation by
// available bandwidth cannot.
type Fig1bResult struct {
	// AdversarialSec is the large flow's transfer time when hashed onto
	// the 95%-loaded path.
	AdversarialSec float64
	// OptimalSec is its time on the 25%-loaded path.
	OptimalSec float64
	// ECMPHitsHotPath reports whether an actual ECMP hash over the flow's
	// five-tuple picked the hot path in this instantiation.
	ECMPHitsHotPath bool
	// PythiaPickedCleanPath reports the availability-based choice.
	PythiaPickedCleanPath bool
}

// RunFig1b builds the Fig. 1b scenario and measures both allocations.
func RunFig1b() Fig1bResult {
	const flowBytes = 159e6
	// The default (ECMP) testbed with Path-1 at 95%, Path-2 at 25% (both
	// directions).
	build := func() *testbed.Testbed {
		tb := mustBuild(testbed.Config{Seed: 1})
		for i, load := range []float64{0.95, 0.25} {
			tb.Net.SetBackground(tb.Trunks[i], load*topology.Gbps)
			if r, ok := tb.Graph.Reverse(tb.Trunks[i]); ok {
				tb.Net.SetBackground(r, load*topology.Gbps)
			}
		}
		return tb
	}

	timeOn := func(trunkIdx int) float64 {
		tb := build()
		hosts := tb.Hosts
		var path topology.Path
		for _, p := range tb.Graph.EqualCostPaths(hosts[0], hosts[5], 2) {
			for _, l := range p.Links {
				if l == tb.Trunks[trunkIdx] {
					path = p
				}
			}
		}
		var done sim.Time
		tb.Net.StartFlow(netsim.FiveTuple{SrcHost: hosts[0], DstHost: hosts[5], SrcPort: hadoop.ShufflePort, DstPort: 20000, Protocol: 6},
			path, flowBytes*8, 0, 0, 0, func(f *netsim.Flow) { done = f.Finished() })
		tb.Eng.Run()
		return float64(done)
	}

	res := Fig1bResult{
		AdversarialSec: timeOn(0),
		OptimalSec:     timeOn(1),
	}

	// Does a concrete ECMP hash hit the hot path? Scan ephemeral ports
	// until one does (the paper's point is that nothing prevents it).
	tb := build()
	g, net, hosts, trunks, alloc := tb.Graph, tb.Net, tb.Hosts, tb.Trunks, tb.ECMP
	for port := uint16(20000); port < 20032; port++ {
		p, _ := alloc.Resolve(netsim.FiveTuple{SrcHost: hosts[0], DstHost: hosts[5], SrcPort: hadoop.ShufflePort, DstPort: port, Protocol: 6})
		for _, l := range p.Links {
			if l == trunks[0] {
				res.ECMPHitsHotPath = true
			}
		}
	}
	// Availability-based choice: pick the path with max available bw.
	paths := g.EqualCostPaths(hosts[0], hosts[5], 2)
	bestAvail, bestIdx := -1.0, -1
	for i, p := range paths {
		avail := 1e18
		for _, l := range p.Links {
			if a := net.AvailableBps(l); a < avail {
				avail = a
			}
		}
		if avail > bestAvail {
			bestAvail, bestIdx = avail, i
		}
	}
	for _, l := range paths[bestIdx].Links {
		if l == trunks[1] {
			res.PythiaPickedCleanPath = true
		}
	}
	return res
}

// OverheadResult is the §V-C cost summary.
type OverheadResult struct {
	MeanCPUFraction float64
	MaxCPUFraction  float64
	MgmtBytes       float64
	RulesInstalled  uint64
	IntentsSent     int
}

// RunOverhead measures instrumentation overhead on the sort workload under
// Pythia (the configuration §V-C reports: 2–5% CPU, insignificant memory,
// low control traffic).
func RunOverhead(scale Scale) OverheadResult {
	res := RunTrial(TrialConfig{
		Spec:      workload.Sort(scale.SortBytes, 10, 3),
		Scheduler: Pythia,
		Oversub:   Oversub{Label: "1:10", Ratio: 10},
		Seed:      3,
	})
	return OverheadResult{
		MeanCPUFraction: res.Overhead.MeanCPUFraction,
		MaxCPUFraction:  res.Overhead.MaxCPUFraction,
		MgmtBytes:       res.Overhead.MgmtBytes,
		RulesInstalled:  res.RulesInstalled,
		IntentsSent:     res.Overhead.Spills,
	}
}

// HederaRow compares all three schedulers on one workload at one level.
type HederaRow struct {
	Workload  string
	ECMPSec   float64
	HederaSec float64
	PythiaSec float64
}

// RunHederaComparison is the E7 extension: §II argues a Hedera-like scheme
// avoids some adversarial allocations but cannot exploit flow criticality or
// advance knowledge; expect ECMP ≥ Hedera ≥ Pythia at 1:10.
func RunHederaComparison(scale Scale) []HederaRow {
	lvl := Oversub{Label: "1:10", Ratio: 10}
	jobs := []struct {
		name string
		spec *hadoop.JobSpec
	}{
		{"sort", workload.Sort(scale.SortBytes, 10, 17)},
		{"nutch", workload.Nutch(scale.NutchBytes, 12, 17)},
	}
	var cfgs []TrialConfig
	for _, j := range jobs {
		for _, sch := range []Scheduler{ECMP, Hedera, Pythia} {
			cfgs = append(cfgs, TrialConfig{Spec: j.spec, Scheduler: sch, Oversub: lvl, Seed: 17})
		}
	}
	results := RunTrials(cfgs)
	rows := make([]HederaRow, len(jobs))
	for i, j := range jobs {
		rows[i] = HederaRow{
			Workload:  j.name,
			ECMPSec:   results[3*i].JobSec,
			HederaSec: results[3*i+1].JobSec,
			PythiaSec: results[3*i+2].JobSec,
		}
	}
	return rows
}

// ScaleOutRow is one topology size of the E8 scale-out experiment.
type ScaleOutRow struct {
	Topology  string
	ECMPSec   float64
	PythiaSec float64
	Speedup   float64
}

// RunScaleOut (E8, extension) runs the sort under ECMP and Pythia on
// leaf-spine fabrics of growing size — the "larger-scale future SDN setup"
// §IV anticipates. Pythia's win should persist beyond the 2-rack testbed.
func RunScaleOut(scale Scale) []ScaleOutRow {
	lvl := Oversub{Label: "1:10", Ratio: 10}
	shapes := []struct {
		label          string
		leaves, spines int
	}{
		{"2x2 leaf-spine", 2, 2},
		{"4x2 leaf-spine", 4, 2},
		{"4x4 leaf-spine", 4, 4},
	}
	var cfgs []TrialConfig
	for _, sh := range shapes {
		spec := workload.Sort(scale.SortBytes, 2*sh.leaves, 21)
		cfgs = append(cfgs,
			TrialConfig{Spec: spec, Scheduler: ECMP, Oversub: lvl,
				Leaves: sh.leaves, Spines: sh.spines, Seed: 21},
			TrialConfig{Spec: spec, Scheduler: Pythia, Oversub: lvl,
				Leaves: sh.leaves, Spines: sh.spines, Seed: 21})
	}
	results := RunTrials(cfgs)
	rows := make([]ScaleOutRow, len(shapes))
	for i, sh := range shapes {
		e, p := results[2*i].JobSec, results[2*i+1].JobSec
		rows[i] = ScaleOutRow{
			Topology: sh.label, ECMPSec: e, PythiaSec: p,
			Speedup: stats.Speedup(e, p),
		}
	}
	return rows
}

// FormatScaleOutTable renders the E8 sweep.
func FormatScaleOutTable(title string, rows []ScaleOutRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s %12s %12s %10s\n", "topology", "ECMP (s)", "Pythia (s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.1f %12.1f %9.1f%%\n", r.Topology, r.ECMPSec, r.PythiaSec, r.Speedup*100)
	}
	return b.String()
}

// FormatSpeedupTable renders Fig. 3/4 rows as the text table the paper's
// figures plot.
func FormatSpeedupTable(title string, rows []SpeedupRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %18s %18s %10s\n", "oversub", "ECMP (s)", "Pythia (s)", "speedup")
	for _, r := range rows {
		ecmp := fmt.Sprintf("%.1f", r.ECMPSec)
		pythia := fmt.Sprintf("%.1f", r.PythiaSec)
		if r.ECMPCI > 0 {
			ecmp = fmt.Sprintf("%.1f ±%.1f", r.ECMPSec, r.ECMPCI)
		}
		if r.PythiaCI > 0 {
			pythia = fmt.Sprintf("%.1f ±%.1f", r.PythiaSec, r.PythiaCI)
		}
		fmt.Fprintf(&b, "%-8s %18s %18s %9.1f%%\n", r.Oversub, ecmp, pythia, r.Speedup*100)
	}
	return b.String()
}

// SpeedupSVG renders Fig. 3/4 rows in the paper's presentation: grouped
// completion-time bars per oversubscription level with the relative-speedup
// line on the right axis.
func SpeedupSVG(title string, rows []SpeedupRow) string {
	c := plot.BarChart{
		Title:     title,
		YLabel:    "job completion time (s)",
		Series:    []string{"ECMP", "Pythia"},
		LineLabel: "relative speedup",
		LinePct:   true,
	}
	for _, r := range rows {
		c.Groups = append(c.Groups, plot.BarGroup{Label: r.Oversub, Values: []float64{r.ECMPSec, r.PythiaSec}})
		c.Line = append(c.Line, r.Speedup)
	}
	return c.Render()
}

// Fig5SVG renders one server's predicted vs measured cumulative curves (the
// paper shows Server4; pass any entry of Fig5Result.PerHost).
func Fig5SVG(h HostPrediction) string {
	pred := plot.LineSeries{Name: "predicted (cumulative)", Step: true}
	for _, p := range h.Predicted.Points() {
		pred.X = append(pred.X, float64(p.T))
		pred.Y = append(pred.Y, p.Bytes)
	}
	meas := plot.LineSeries{Name: "measured (NetFlow)"}
	for _, p := range h.Measured {
		meas.X = append(meas.X, float64(p.T))
		meas.Y = append(meas.Y, p.Bytes)
	}
	return plot.LineChart{
		Title:  fmt.Sprintf("Fig.5 — traffic sourced by %s", h.Name),
		XLabel: "time (s)",
		YLabel: "cumulative bytes",
		Series: []plot.LineSeries{pred, meas},
	}.Render()
}

// FormatFig5 renders the prediction-efficacy summary.
func FormatFig5(r Fig5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.5 prediction efficacy (integer sort)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %14s\n", "server", "min lead(s)", "mean lead(s)", "overestimate")
	for _, h := range r.PerHost {
		fmt.Fprintf(&b, "%-16s %12.2f %12.2f %13.1f%%\n", h.Name, h.MinLeadSec, h.MeanLeadSec, h.Overestimate*100)
	}
	fmt.Fprintf(&b, "overall: min lead %.2fs, mean overestimate %.1f%%\n", r.MinLeadSec, r.MeanOverestimate*100)
	return b.String()
}
