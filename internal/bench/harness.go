// Package bench is the experiment harness: one runner per table/figure in
// the paper's evaluation (§II motivation and §V results), each reproducing
// the corresponding workload, oversubscription setup, scheduler pairing and
// reported metric. See EXPERIMENTS.md for paper-vs-measured values.
package bench

import (
	"fmt"

	"pythia/internal/core"
	"pythia/internal/flight"
	"pythia/internal/hadoop"
	"pythia/internal/instrument"
	"pythia/internal/netflow"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/testbed"
	"pythia/internal/topology"
)

// Scheduler selects the flow-allocation scheme for a trial.
type Scheduler = testbed.Scheduler

const (
	ECMP   = testbed.ECMP
	Pythia = testbed.Pythia
	Hedera = testbed.Hedera
)

// Oversub describes one oversubscription level, realized the way the paper
// did it: CBR background streams on the trunks (see testbed.Config.Oversub).
type Oversub struct {
	// Label as printed in the figures ("none", "1:2", ...).
	Label string
	// Ratio N: Hadoop's usable inter-rack bandwidth is hostAggregate/N.
	// 0 means no background traffic at all.
	Ratio int
}

// StandardLevels are the sweep used for Figs. 3 and 4.
func StandardLevels() []Oversub {
	return []Oversub{
		{Label: "none", Ratio: 0},
		{Label: "1:2", Ratio: 2},
		{Label: "1:5", Ratio: 5},
		{Label: "1:10", Ratio: 10},
		{Label: "1:20", Ratio: 20},
	}
}

// TrialConfig fully describes one simulated job run.
type TrialConfig struct {
	Spec      *hadoop.JobSpec
	Scheduler Scheduler
	Oversub   Oversub
	// Testbed shape; zero values take the paper's testbed (2 racks x 5
	// hosts, 2 trunks, 1 Gbps). Setting Spines > 0 switches to a
	// leaf-spine fabric with Leaves racks instead (the "larger-scale
	// future SDN setup" shape of §IV). Setting FatTreeK > 0 instead
	// builds a k-ary fat-tree with HostsPerRack hosts per edge switch
	// (defaulting to k/2 — the canonical full fat-tree) for the scale
	// benchmarks.
	HostsPerRack int
	Trunks       int
	Leaves       int
	Spines       int
	FatTreeK     int
	LinkBps      float64

	Hadoop hadoop.Config
	// PythiaCfg configures the collector; its K is the trial's path
	// diversity for whichever scheduler runs (default 4).
	PythiaCfg  core.Config
	Instrument instrument.Config
	// DisableAggregation turns off Pythia's host-pair flow aggregation
	// (ablation A2).
	DisableAggregation bool
	// ExplicitControlPlane routes prediction notifications and FLOW_MOD
	// messages over a modeled management network (per-sender FIFO +
	// transmission time) instead of fixed latencies — the full §III
	// architecture.
	ExplicitControlPlane bool
	// InstallLatency overrides the controller's per-rule latency when
	// positive (ablation A4).
	InstallLatency sim.Duration
	Seed           uint64

	// CollectPrediction enables Fig. 5 instrumentation-efficacy capture
	// (per-host predicted and measured cumulative curves).
	CollectPrediction bool
	// CollectFlowHistory records every completed flow's identity and
	// timing in the result — the golden data for determinism tests.
	CollectFlowHistory bool
	// CollectFlight attaches the cross-plane flight recorder and scores the
	// run's prediction quality (lead time, late fraction, byte error) into
	// TrialResult.Quality. Pure observer: results are unchanged.
	CollectFlight bool
}

// toTestbed translates the trial into the shared deployment description.
func (c TrialConfig) toTestbed() testbed.Config {
	if !c.DisableAggregation {
		c.PythiaCfg = c.PythiaCfg.EnableAggregation()
	}
	return testbed.Config{
		Scheduler:            c.Scheduler,
		Seed:                 c.Seed,
		K:                    c.PythiaCfg.K,
		HostsPerRack:         c.HostsPerRack,
		Trunks:               c.Trunks,
		Leaves:               c.Leaves,
		Spines:               c.Spines,
		FatTreeK:             c.FatTreeK,
		LinkBps:              c.LinkBps,
		Oversub:              c.Oversub.Ratio,
		Hadoop:               c.Hadoop,
		Pythia:               c.PythiaCfg,
		Instrument:           c.Instrument,
		InstallLatency:       c.InstallLatency,
		ExplicitControlPlane: c.ExplicitControlPlane,
		Flight:               c.CollectFlight,
	}
}

// TrialResult captures one run's outcome.
type TrialResult struct {
	JobSec     float64
	MapSec     float64
	ShuffleSec float64
	// Scheduler-specific metrics.
	RulesInstalled uint64
	HederaMoves    int
	Overhead       instrument.OverheadReport
	// Faults carries the prediction-plane robustness counters; all zero on
	// a healthy run.
	Faults FaultCounters
	// Fig. 5 capture (CollectPrediction only).
	Prediction *PredictionCapture
	// FlowHistory lists every completed flow in completion order
	// (CollectFlowHistory only).
	FlowHistory []FlowRecord
	// Quality scores the prediction plane's race against the shuffle
	// (CollectFlight only).
	Quality *flight.Quality
}

// FaultCounters aggregates one trial's prediction-plane fault and recovery
// accounting: collector dedup and TTL reclamation, monitor crash recovery,
// and management-network message faults. The scale-benchmark artifact
// includes these so the robustness trajectory stays comparable across
// revisions — a healthy run must keep them all at zero.
type FaultCounters struct {
	DedupHits        int
	DuplicateIntents int
	ExpiredBookings  int
	ExpiredIntents   int
	MonitorCrashes   int
	MissedSpills     int
	LateIntents      int
	InFlightDropped  int
	MgmtDropped      uint64
	MgmtDuplicated   uint64
	MgmtDeferred     uint64
}

// FlowRecord is one completed flow's identity and exact timing, used to
// compare runs for bit-identical behavior.
type FlowRecord struct {
	ID               netsim.FlowID
	Job, Map, Reduce int
	StartSec         float64
	EndSec           float64
}

// PredictionCapture is the Fig. 5 data: per source host, the predicted and
// measured cumulative curves with lead/accuracy statistics.
type PredictionCapture struct {
	Hosts []HostPrediction
}

// HostPrediction is one server's promptness/accuracy result.
type HostPrediction struct {
	Host         topology.NodeID
	Name         string
	MinLeadSec   float64
	MeanLeadSec  float64
	Overestimate float64
	Predicted    *netflow.PredictionCurve
	Measured     []netflow.Point
}

// teeSink records intents while forwarding them to the testbed's sink
// (Pythia, or the null sink of baseline runs).
type teeSink struct {
	next    instrument.Sink
	intents []instrument.Intent
	ups     []instrument.ReducerUp
}

func (t *teeSink) ShuffleIntent(i instrument.Intent) {
	t.intents = append(t.intents, i)
	t.next.ShuffleIntent(i)
}

func (t *teeSink) ReducerUp(u instrument.ReducerUp) {
	t.ups = append(t.ups, u)
	t.next.ReducerUp(u)
}

func (t *teeSink) JobDone(job int) {
	if jd, ok := t.next.(instrument.JobDoneSink); ok {
		jd.JobDone(job)
	}
}

// RunTrial executes one job under the configured scheduler and
// oversubscription level.
func RunTrial(cfg TrialConfig) TrialResult {
	tee := &teeSink{}
	tcfg := cfg.toTestbed()
	tcfg.WrapSink = func(next instrument.Sink) instrument.Sink {
		tee.next = next
		return tee
	}
	tb := mustBuild(tcfg)

	var nfc *netflow.Collector
	if cfg.CollectPrediction {
		nfc = netflow.NewCollector(tb.Eng, tb.Net, tb.Hosts, 0)
	}

	job, err := tb.Cluster.Submit(cfg.Spec)
	if err != nil {
		panic(fmt.Sprintf("bench: submit: %v", err))
	}
	tb.Eng.Run()
	if !job.Done {
		panic("bench: job did not complete")
	}

	mw := tb.Middleware
	res := TrialResult{
		JobSec:     float64(job.Duration()),
		MapSec:     float64(job.MapPhaseEnd.Sub(job.Submitted)),
		ShuffleSec: float64(job.ShuffleEnd.Sub(job.Submitted)),
		Overhead:   mw.Overhead(),
	}
	if tb.Controller != nil {
		res.RulesInstalled = tb.Controller.RulesInstalled
	}
	res.Faults = FaultCounters{
		MonitorCrashes:  mw.MonitorCrashes,
		MissedSpills:    mw.MissedSpills,
		LateIntents:     mw.LateIntents,
		InFlightDropped: mw.InFlightDropped,
	}
	if py := tb.Pythia; py != nil {
		res.Faults.DedupHits = py.DedupHits()
		res.Faults.DuplicateIntents = py.DuplicateIntents()
		res.Faults.ExpiredBookings = py.ExpiredBookings()
		res.Faults.ExpiredIntents = py.ExpiredIntents()
	}
	if mn := tb.Mgmt; mn != nil {
		res.Faults.MgmtDropped = mn.Dropped
		res.Faults.MgmtDuplicated = mn.Duplicated
		res.Faults.MgmtDeferred = mn.Deferred
	}
	if tb.Hedera != nil {
		res.HederaMoves = tb.Hedera.Moves
	}
	if cfg.CollectPrediction {
		res.Prediction = buildPredictionCapture(tb.Graph, tb.Cluster, job, tee, nfc)
	}
	if tb.Flight != nil {
		q := flight.ComputeQuality(tb.Flight.Events())
		res.Quality = &q
	}
	if cfg.CollectFlowHistory {
		res.FlowHistory = make([]FlowRecord, 0, tb.Net.CompletedFlows())
		tb.Net.ForEachCompleted(func(f *netsim.Flow) {
			res.FlowHistory = append(res.FlowHistory, FlowRecord{
				ID:       f.ID,
				Job:      f.Job,
				Map:      f.Map,
				Reduce:   f.Reduce,
				StartSec: float64(f.Started()),
				EndSec:   float64(f.Finished()),
			})
		})
	}
	return res
}

// buildPredictionCapture assembles the Fig. 5 curves: predicted cumulative
// bytes per source host (counting only partitions whose reducer landed on a
// different server — local partitions never reach the wire) versus the
// NetFlow-measured cumulative TX bytes.
func buildPredictionCapture(g *topology.Graph, cluster *hadoop.Cluster, job *hadoop.Job, tee *teeSink, nfc *netflow.Collector) *PredictionCapture {
	reducerHost := make(map[int]topology.NodeID)
	for _, r := range job.Reduces {
		reducerHost[r.ID] = cluster.HostOf(r.Tracker)
	}
	curves := make(map[topology.NodeID]*netflow.PredictionCurve)
	for _, in := range tee.intents {
		if in.Job != job.ID {
			continue
		}
		remote := 0.0
		for r, bytes := range in.PredictedWireBytes {
			if reducerHost[r] != in.SrcHost {
				remote += bytes
			}
		}
		if remote <= 0 {
			continue
		}
		c := curves[in.SrcHost]
		if c == nil {
			c = &netflow.PredictionCurve{}
			curves[in.SrcHost] = c
		}
		c.Add(in.EmittedAt, remote)
	}
	out := &PredictionCapture{}
	for _, h := range cluster.Hosts() {
		c := curves[h]
		if c == nil {
			continue
		}
		min, mean, over, ok := netflow.LeadStats(c, nfc, h, 20)
		if !ok {
			continue
		}
		out.Hosts = append(out.Hosts, HostPrediction{
			Host:         h,
			Name:         g.Node(h).Name,
			MinLeadSec:   float64(min),
			MeanLeadSec:  float64(mean),
			Overestimate: over,
			Predicted:    c,
			Measured:     nfc.Series(h),
		})
	}
	return out
}
