// Package bench is the experiment harness: one runner per table/figure in
// the paper's evaluation (§II motivation and §V results), each reproducing
// the corresponding workload, oversubscription setup, scheduler pairing and
// reported metric. See EXPERIMENTS.md for paper-vs-measured values.
package bench

import (
	"fmt"

	"pythia/internal/core"
	"pythia/internal/ecmp"
	"pythia/internal/flight"
	"pythia/internal/hadoop"
	"pythia/internal/hedera"
	"pythia/internal/instrument"
	"pythia/internal/mgmtnet"
	"pythia/internal/netflow"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Scheduler selects the flow-allocation scheme for a trial.
type Scheduler int

const (
	// ECMP is the paper's baseline: five-tuple hash modulo path count.
	ECMP Scheduler = iota
	// Pythia is the predictive scheme under evaluation.
	Pythia
	// Hedera is the reactive load-aware intermediate point (§II/§VI).
	Hedera
)

func (s Scheduler) String() string {
	switch s {
	case ECMP:
		return "ECMP"
	case Pythia:
		return "Pythia"
	case Hedera:
		return "Hedera"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// Oversub describes one oversubscription level, realized the way the paper
// did it: CBR background streams on the inter-rack trunks sized so the
// bandwidth left for Hadoop totals SpareTotal, split unevenly across the two
// trunks so that path choice matters (Fig. 1b shows 95% vs 25% occupancy).
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

// spareFractions divides the spare trunk bandwidth asymmetrically across n
// trunks in proportion 1:2:…:n (for the paper's two trunks this is the
// Fig. 1b-style 30/70 imbalance that bounds the fully-network-bound
// ECMP-vs-optimal gap near the paper's 43–46% maxima).
func spareFractions(n int) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = float64(i + 1)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	// Calibrated two-trunk split.
	if n == 2 {
		w[0], w[1] = 0.30, 0.70
	}
	return w
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

	Hadoop     hadoop.Config
	PythiaCfg  core.Config
	HederaCfg  hedera.Config
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

func (c TrialConfig) defaults() TrialConfig {
	if c.HostsPerRack == 0 {
		if c.FatTreeK > 0 {
			c.HostsPerRack = c.FatTreeK / 2
		} else {
			c.HostsPerRack = 5
		}
	}
	if c.Trunks == 0 {
		c.Trunks = 2
	}
	if c.LinkBps == 0 {
		c.LinkBps = topology.Gbps
	}
	if !c.PythiaCfg.Aggregate && !c.DisableAggregation {
		c.PythiaCfg = c.PythiaCfg.EnableAggregation()
	}
	return c
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

// teeSink records intents while forwarding them to Pythia (or swallowing
// them in baseline runs).
type teeSink struct {
	next    instrument.Sink
	intents []instrument.Intent
	ups     []instrument.ReducerUp
}

func (t *teeSink) ShuffleIntent(i instrument.Intent) {
	t.intents = append(t.intents, i)
	if t.next != nil {
		t.next.ShuffleIntent(i)
	}
}

func (t *teeSink) ReducerUp(u instrument.ReducerUp) {
	t.ups = append(t.ups, u)
	if t.next != nil {
		t.next.ReducerUp(u)
	}
}

func (t *teeSink) JobDone(job int) {
	if jd, ok := t.next.(instrument.JobDoneSink); ok {
		jd.JobDone(job)
	}
}

// nullSink drops messages (ECMP/Hedera runs still pay instrumentation cost
// in reality, but they do not consume the intents).
type nullSink struct{}

func (nullSink) ShuffleIntent(instrument.Intent) {}
func (nullSink) ReducerUp(instrument.ReducerUp)  {}

// RunTrial executes one job under the configured scheduler and
// oversubscription level.
func RunTrial(cfg TrialConfig) TrialResult {
	cfg = cfg.defaults()
	eng := sim.NewEngine()
	var (
		g      *topology.Graph
		hosts  []topology.NodeID
		trunks []topology.LinkID
	)
	if cfg.FatTreeK > 0 {
		// Scale fabric: oversubscription comes from the tree's own arity,
		// not injected background, so trunks stay empty.
		g, hosts = topology.FatTree(cfg.FatTreeK, cfg.HostsPerRack, cfg.LinkBps)
	} else if cfg.Spines > 0 {
		leaves := cfg.Leaves
		if leaves == 0 {
			leaves = 4
		}
		g, hosts = topology.LeafSpine(leaves, cfg.Spines, cfg.HostsPerRack, cfg.LinkBps)
		// The contended links are the leaf→spine uplinks; collect them
		// (both directions are handled by applyOversub via Reverse).
		for _, l := range g.Links() {
			from, to := g.Node(l.From), g.Node(l.To)
			if from.Kind == topology.Switch && to.Kind == topology.Switch && from.Rack >= 0 && to.Rack < 0 {
				trunks = append(trunks, l.ID)
			}
		}
	} else {
		g, hosts, trunks = topology.TwoRack(cfg.HostsPerRack, cfg.Trunks, cfg.LinkBps)
	}
	net := netsim.New(eng, g)

	applyOversub(net, trunks, cfg)

	var resolver hadoop.PathResolver
	var ofc *openflow.Controller
	var hed *hedera.Scheduler
	var py *core.Pythia
	var sink instrument.Sink = nullSink{}
	var mn *mgmtnet.Network
	var fr *flight.Recorder
	if cfg.CollectFlight {
		// Guarded wiring: a typed-nil *Recorder in the producers' Sink
		// fields would defeat their nil checks.
		fr = flight.NewRecorder(eng)
		net.SetFlightRecorder(fr)
		cfg.Instrument.Flight = fr
	}
	if cfg.ExplicitControlPlane {
		mn = mgmtnet.New(eng, mgmtnet.Config{})
		cfg.Instrument.Mgmt = mn
		if fr != nil {
			mn.SetFlightRecorder(fr)
		}
	}
	switch cfg.Scheduler {
	case ECMP:
		resolver = ecmp.New(g, 2, cfg.Seed)
	case Pythia:
		ofc = openflow.NewController(eng, net, 0)
		if cfg.InstallLatency > 0 {
			ofc.InstallLatency = cfg.InstallLatency
		}
		if mn != nil {
			ofc.SetManagementNetwork(mn, topology.NodeID(-1))
		}
		py = core.New(eng, net, ofc, cfg.PythiaCfg)
		if fr != nil {
			ofc.SetFlightRecorder(fr)
			py.SetFlightRecorder(fr)
		}
		resolver = ofc
		sink = py
	case Hedera:
		hcfg := cfg.HederaCfg
		if cfg.InstallLatency > 0 {
			hcfg.InstallLatency = cfg.InstallLatency
		}
		hed = hedera.New(eng, net, cfg.Seed, hcfg)
		resolver = hed
	default:
		panic(fmt.Sprintf("bench: unknown scheduler %d", cfg.Scheduler))
	}

	cluster := hadoop.NewCluster(eng, net, hosts, resolver, cfg.Hadoop)
	tee := &teeSink{next: sink}
	mw := instrument.Attach(eng, cluster, tee, cfg.Instrument)

	var nfc *netflow.Collector
	if cfg.CollectPrediction {
		nfc = netflow.NewCollector(eng, net, hosts, 0)
	}

	job, err := cluster.Submit(cfg.Spec)
	if err != nil {
		panic(fmt.Sprintf("bench: submit: %v", err))
	}
	eng.Run()
	if !job.Done {
		panic("bench: job did not complete")
	}

	res := TrialResult{
		JobSec:     float64(job.Duration()),
		MapSec:     float64(job.MapPhaseEnd.Sub(job.Submitted)),
		ShuffleSec: float64(job.ShuffleEnd.Sub(job.Submitted)),
		Overhead:   mw.Overhead(),
	}
	if ofc != nil {
		res.RulesInstalled = ofc.RulesInstalled
	}
	res.Faults = FaultCounters{
		MonitorCrashes:  mw.MonitorCrashes,
		MissedSpills:    mw.MissedSpills,
		LateIntents:     mw.LateIntents,
		InFlightDropped: mw.InFlightDropped,
	}
	if py != nil {
		res.Faults.DedupHits = py.DedupHits()
		res.Faults.DuplicateIntents = py.DuplicateIntents()
		res.Faults.ExpiredBookings = py.ExpiredBookings()
		res.Faults.ExpiredIntents = py.ExpiredIntents()
	}
	if mn != nil {
		res.Faults.MgmtDropped = mn.Dropped
		res.Faults.MgmtDuplicated = mn.Duplicated
		res.Faults.MgmtDeferred = mn.Deferred
	}
	if hed != nil {
		res.HederaMoves = hed.Moves
	}
	if cfg.CollectPrediction {
		res.Prediction = buildPredictionCapture(g, cluster, job, tee, nfc)
	}
	if fr != nil {
		q := flight.ComputeQuality(fr.Events())
		res.Quality = &q
	}
	if cfg.CollectFlowHistory {
		res.FlowHistory = make([]FlowRecord, 0, net.CompletedFlows())
		net.ForEachCompleted(func(f *netsim.Flow) {
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

// applyOversub loads the trunks with CBR background per the oversub level.
// Trunks are grouped by their upstream switch (one group on the two-rack
// testbed; one group per leaf on a leaf-spine), and each group's spare
// bandwidth — hostAggregate/N — is split asymmetrically across its members.
func applyOversub(net *netsim.Network, trunks []topology.LinkID, cfg TrialConfig) {
	if cfg.Oversub.Ratio <= 0 {
		return
	}
	g := net.Graph()
	groups := make(map[topology.NodeID][]topology.LinkID)
	var order []topology.NodeID
	for _, tr := range trunks {
		from := g.Link(tr).From
		if _, seen := groups[from]; !seen {
			order = append(order, from)
		}
		groups[from] = append(groups[from], tr)
	}
	hostAggregate := float64(cfg.HostsPerRack) * cfg.LinkBps
	for _, from := range order {
		members := groups[from]
		spareTotal := hostAggregate / float64(cfg.Oversub.Ratio)
		if max := float64(len(members)) * cfg.LinkBps; spareTotal > max {
			spareTotal = max
		}
		fracs := spareFractions(len(members))
		for i, tr := range members {
			spare := spareTotal * fracs[i]
			if spare > cfg.LinkBps {
				spare = cfg.LinkBps
			}
			load := cfg.LinkBps - spare
			net.SetBackground(tr, load)
			if r, ok := g.Reverse(tr); ok {
				net.SetBackground(r, load)
			}
		}
	}
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
