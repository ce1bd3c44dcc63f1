// Package pythia is a faithful, fully simulated reproduction of
// "Pythia: Faster Big Data in Motion through Predictive Software-Defined
// Network Optimization at Runtime" (IPDPS 2014).
//
// It bundles a discrete-event Hadoop MapReduce runtime, a flow-level
// multi-path datacenter network with max-min fair sharing, an OpenFlow-style
// SDN control plane, Pythia's shuffle-intent prediction middleware and
// network scheduler, and the ECMP and Hedera-like baselines — everything
// needed to rerun the paper's evaluation on a laptop.
//
// The root package is a facade over internal/: build a Cluster, run
// workloads shaped like the paper's benchmarks, and compare schedulers.
//
//	cl := pythia.New(pythia.WithScheduler(pythia.SchedulerPythia),
//	    pythia.WithOversubscription(10))
//	res := cl.RunJob(pythia.SortJob(24*pythia.GB, 10, 1))
//	fmt.Printf("sort finished in %.1fs\n", res.DurationSec)
//
// # Configuring a cluster
//
// New accepts functional options, grouped by the subsystem they shape (each
// group lives in the correspondingly named source file):
//
//   - Topology — the fabric under test: WithTopology (two-rack, leaf-spine,
//     fat-tree), WithHostsPerRack, WithTrunks, WithLinkRateGbps,
//     WithOversubscription.
//   - Engine — scheduler choice and run control: WithScheduler, WithSeed,
//     WithKShortestPaths, WithRackAggregation, WithCriticality,
//     WithExplicitControlPlane, WithDeadline.
//   - Faults — failure and degradation injection: WithControlPlaneFaults,
//     WithMgmtFaults, WithMonitorFaults, WithPredictionError,
//     WithBookingTTL.
//   - Observability — a pure observer that never changes results:
//     WithFlightRecorder. The sequence views (SequenceDiagram,
//     ChromeTrace) need no option.
//   - Workload — Hadoop-side behavior: WithReduceSlowstart,
//     WithParallelCopies.
//
// # Panicking and Try entry points
//
// The convenience runners RunJob, RunJobs and Compare panic on submission
// errors and starved jobs — the right contract for examples and benchmarks
// where failure is a bug. Every panicking path has a Try counterpart with
// an error return (TryRunJob, TryRunJobs, TryCompare, TryRunUntil); runs
// that end with unfinished jobs report errors matching ErrUnfinished.
//
// # Online serving
//
// NewServer exposes the same collector as a standalone HTTP/JSON service
// (see ServeConfig and cmd/pythia-serve); the Cluster facade embeds the
// collector in-process instead.
package pythia

import (
	"errors"
	"fmt"

	"pythia/internal/core"
	"pythia/internal/ecmp"
	"pythia/internal/flight"
	"pythia/internal/hadoop"
	"pythia/internal/hedera"
	"pythia/internal/instrument"
	"pythia/internal/mgmtnet"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/testbed"
	"pythia/internal/topology"
	"pythia/internal/trace"
	"pythia/internal/workload"
)

// Byte-size helpers.
const (
	MB = workload.MB
	GB = workload.GB
)

// SchedulerKind selects the shuffle flow-allocation scheme.
type SchedulerKind int

const (
	// SchedulerECMP is the load-unaware baseline (five-tuple hash).
	SchedulerECMP SchedulerKind = iota
	// SchedulerPythia is the paper's predictive SDN scheduler.
	SchedulerPythia
	// SchedulerHedera is the reactive load-aware baseline.
	SchedulerHedera
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedulerECMP:
		return "ECMP"
	case SchedulerPythia:
		return "Pythia"
	case SchedulerHedera:
		return "Hedera"
	}
	return fmt.Sprintf("SchedulerKind(%d)", int(k))
}

// JobSpec aliases the simulator's job description; build one with SortJob,
// NutchJob, WordCountJob, ToySortJob or CustomJob.
type JobSpec = hadoop.JobSpec

// config collects options.
type config struct {
	scheduler    SchedulerKind
	hostsPerRack int
	trunks       int
	linkBps      float64
	oversub      int
	seed         uint64
	hadoopCfg    hadoop.Config
	pythiaCfg    core.Config
	flight       bool
	explicitCP   bool

	topo     *TopologySpec
	cpFaults *ControlPlaneFaults
	deadline float64

	mgmtFaults    *MgmtFaults
	monFaults     *MonitorFaults
	predErrFactor float64
	predErrSeed   uint64
	bookingTTLSec float64
}

// Option customizes a Cluster. Options are defined beside the subsystem
// they configure — see the package doc's "Configuring a cluster" index.
type Option func(*config)

// Cluster is a wired simulation stack: network + SDN controller + scheduler
// + Hadoop + instrumentation.
type Cluster struct {
	eng      *sim.Engine
	net      *netsim.Network
	g        *topology.Graph
	hosts    []topology.NodeID
	trunks   []topology.LinkID
	cluster  *hadoop.Cluster
	mw       *instrument.Middleware
	mn       *mgmtnet.Network
	ofc      *openflow.Controller
	py       *core.Pythia
	al       *ecmp.Allocator // plain-ECMP scheduler only
	hed      *hedera.Scheduler
	fr       *flight.Recorder
	kind     SchedulerKind
	deadline float64

	// Per-job rule accounting: rules installed between two job
	// completions are attributed to the later job, so JobResult reports
	// deltas instead of the controller's cumulative counter.
	jobRules  map[int]uint64
	rulesSeen uint64

	// doneJobs records completed job IDs for post-run leak detection
	// (FaultReport.LeakedBookings).
	doneJobs []int

	// timed holds SubmitAt entries awaiting a TryRunUntil report.
	timed []*timedSubmission

	// first is the first job submitted, the one the sequence views render.
	first *hadoop.Job
}

// New builds a cluster on the paper's two-rack testbed topology.
func New(opts ...Option) *Cluster {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	tcfg := testbed.Config{
		// SchedulerKind and testbed.Scheduler enumerate ECMP, Pythia,
		// Hedera in the same order.
		Scheduler:    testbed.Scheduler(cfg.scheduler),
		Seed:         cfg.seed,
		K:            cfg.pythiaCfg.K,
		HostsPerRack: cfg.hostsPerRack,
		Trunks:       cfg.trunks,
		LinkBps:      cfg.linkBps,
		Oversub:      cfg.oversub,
		Hadoop:       cfg.hadoopCfg,
		Pythia:       cfg.pythiaCfg.EnableAggregation(),
		Instrument: instrument.Config{
			PredictionErrorFactor: cfg.predErrFactor,
			PredictionErrorSeed:   cfg.predErrSeed,
		},
		ExplicitControlPlane: cfg.explicitCP,
		Flight:               cfg.flight,
	}
	if t := cfg.topo; t != nil {
		tcfg.HostsPerRack, tcfg.Trunks = t.hostsPerRack, t.trunks
		tcfg.Leaves, tcfg.Spines, tcfg.FatTreeK = t.leaves, t.spines, t.fatTreeK
	}
	tcfg.Pythia.BookingTTL = sim.Duration(cfg.bookingTTLSec)
	if cfg.cpFaults != nil {
		f := cfg.cpFaults.toInternal()
		tcfg.ControlFaults = &f
	}
	if cfg.mgmtFaults != nil {
		f := cfg.mgmtFaults.toInternal()
		tcfg.MgmtFaults = &f
	}
	if cfg.monFaults != nil {
		f := cfg.monFaults.toInternal()
		tcfg.Instrument.MonitorFaults = &f
	}
	tb, err := testbed.Build(tcfg)
	if err != nil {
		panic(fmt.Sprintf("pythia: %v", err))
	}
	c := &Cluster{
		eng: tb.Eng, net: tb.Net, g: tb.Graph, hosts: tb.Hosts, trunks: tb.Trunks,
		cluster: tb.Cluster, mw: tb.Middleware, mn: tb.Mgmt, ofc: tb.Controller,
		py: tb.Pythia, al: tb.ECMP, hed: tb.Hedera, fr: tb.Flight,
		kind: cfg.scheduler, deadline: cfg.deadline,
		jobRules: make(map[int]uint64),
	}
	c.cluster.OnJobDone(func(j *hadoop.Job) {
		c.doneJobs = append(c.doneJobs, j.ID)
		if c.ofc == nil {
			return
		}
		c.jobRules[j.ID] = c.ofc.RulesInstalled - c.rulesSeen
		c.rulesSeen = c.ofc.RulesInstalled
	})
	return c
}

// JobResult summarizes one completed job.
type JobResult struct {
	Name string
	// DurationSec is submission-to-completion time in simulated seconds.
	DurationSec float64
	// MapPhaseSec is when the last map finished.
	MapPhaseSec float64
	// ShuffleSec is when the last reducer passed the shuffle barrier.
	ShuffleSec float64
	// ShuffleBytes is the total intermediate payload moved.
	ShuffleBytes float64
	// RulesInstalled counts OpenFlow rules programmed (Pythia only).
	RulesInstalled uint64
}

// ErrUnfinished reports jobs still incomplete when a run stopped — a
// starved network, an unroutable fetch, or a WithDeadline/TryRunUntil
// horizon reached first. Errors from TryRunJob, TryRunJobs, TryRunUntil
// and TryCompare match it with errors.Is; the partial results alongside
// the error hold whatever did complete.
var ErrUnfinished = errors.New("jobs did not complete")

// RunJob submits the spec and drives the simulation until it completes. It
// panics on submission errors and starved jobs; use TryRunJob when
// injecting faults that may legitimately prevent completion.
func (c *Cluster) RunJob(spec *JobSpec) JobResult {
	rs := c.RunJobs(spec)
	return rs[0]
}

// RunJobs is TryRunJobs with the legacy panic-on-failure contract.
func (c *Cluster) RunJobs(specs ...*JobSpec) []JobResult {
	out, err := c.TryRunJobs(specs...)
	if err != nil {
		panic(fmt.Sprintf("pythia: %v", err))
	}
	return out
}

// TryRunJob is RunJob returning an error instead of panicking.
func (c *Cluster) TryRunJob(spec *JobSpec) (JobResult, error) {
	rs, err := c.TryRunJobs(spec)
	if len(rs) == 0 {
		return JobResult{}, err
	}
	return rs[0], err
}

// TryRunJobs submits several jobs at once (they contend for task slots and
// network like co-scheduled production jobs — Pythia's collector tracks
// each job's predictions independently) and runs the simulation until all
// complete or the WithDeadline bound is hit. Results are returned in
// submission order; jobs that did not finish are reported in the error and
// have a zero JobResult. Each result's RulesInstalled is the job's own
// delta of controller rule installs, not the cumulative counter.
func (c *Cluster) TryRunJobs(specs ...*JobSpec) ([]JobResult, error) {
	jobs := make([]*hadoop.Job, len(specs))
	for i, spec := range specs {
		job, err := c.submit(spec)
		if err != nil {
			return nil, fmt.Errorf("submit %q: %w", spec.Name, err)
		}
		jobs[i] = job
	}
	if c.deadline > 0 {
		c.eng.RunUntil(sim.Time(c.deadline))
	} else {
		c.eng.Run()
	}
	out := make([]JobResult, len(specs))
	var starved []string
	for i, job := range jobs {
		if !job.Done {
			starved = append(starved, specs[i].Name)
			continue
		}
		out[i] = c.jobResult(specs[i], job)
	}
	return out, unfinishedError(starved, len(jobs))
}

// submit hands spec to the jobtracker, remembering the first job.
func (c *Cluster) submit(spec *JobSpec) (*hadoop.Job, error) {
	j, err := c.cluster.Submit(spec)
	if err == nil && c.first == nil {
		c.first = j
	}
	return j, err
}

// jobResult summarizes a completed job.
func (c *Cluster) jobResult(spec *JobSpec, job *hadoop.Job) JobResult {
	return JobResult{
		Name:           spec.Name,
		DurationSec:    float64(job.Duration()),
		MapPhaseSec:    float64(job.MapPhaseEnd.Sub(job.Submitted)),
		ShuffleSec:     float64(job.ShuffleEnd.Sub(job.Submitted)),
		ShuffleBytes:   spec.TotalShuffleBytes(),
		RulesInstalled: c.jobRules[job.ID],
	}
}

// unfinishedError reports the named jobs, of total submitted, as an
// ErrUnfinished; nil when every job completed.
func unfinishedError(names []string, total int) error {
	if len(names) == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d %w (starved network or deadline hit): %v",
		len(names), total, ErrUnfinished, names)
}

// sequence is the first submitted job's timeline, read from the job and the
// fabric's flow history; nil until that job has finished.
func (c *Cluster) sequence() *trace.Sequence {
	if c.first == nil {
		return nil
	}
	return trace.Of(c.first, c.net.History())
}

// SequenceDiagram renders the first submitted job as an ASCII Gantt chart,
// width columns wide, once it has finished (empty before). The SVG variant
// is SequenceDiagramSVG.
func (c *Cluster) SequenceDiagram(width int) string { return c.sequence().Render(width) }

// SequenceDiagramSVG renders the first submitted job as an SVG document.
func (c *Cluster) SequenceDiagramSVG() string { return c.sequence().RenderSVG() }

// ChromeTrace exports the first submitted job as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto; nil before it has finished.
func (c *Cluster) ChromeTrace() ([]byte, error) { return c.sequence().ChromeTrace() }

// OverheadReport summarizes the instrumentation middleware's cost (§V-C).
type OverheadReport struct {
	MeanCPUFraction float64
	MaxCPUFraction  float64
	ManagementBytes float64
	Spills          int
}

// Overhead reports instrumentation cost accumulated so far.
func (c *Cluster) Overhead() OverheadReport {
	rep := c.mw.Overhead()
	return OverheadReport{
		MeanCPUFraction: rep.MeanCPUFraction,
		MaxCPUFraction:  rep.MaxCPUFraction,
		ManagementBytes: rep.MgmtBytes,
		Spills:          rep.Spills,
	}
}

// Scheduler reports which allocator this cluster runs.
func (c *Cluster) Scheduler() SchedulerKind { return c.kind }

// SortJob builds a HiBench-Sort-like job (the paper ran 240 GB).
func SortJob(inputBytes float64, numReduces int, seed uint64) *JobSpec {
	return workload.Sort(inputBytes, numReduces, seed)
}

// NutchJob builds a Nutch-indexing-like job (the paper ran 8 GB / 5M pages).
func NutchJob(inputBytes float64, numReduces int, seed uint64) *JobSpec {
	return workload.Nutch(inputBytes, numReduces, seed)
}

// WordCountJob builds an aggregation-heavy job with a tiny shuffle.
func WordCountJob(inputBytes float64, numReduces int, seed uint64) *JobSpec {
	return workload.WordCount(inputBytes, numReduces, seed)
}

// ToySortJob is the paper's Fig. 1a motivational job: 3 maps, 2 reducers,
// 5:1 reducer skew.
func ToySortJob() *JobSpec { return workload.ToySort() }

// IntegerSortJob is the Fig. 5 workload (the paper ran 60 GB).
func IntegerSortJob(inputBytes float64, numReduces int, seed uint64) *JobSpec {
	return workload.IntegerSort(inputBytes, numReduces, seed)
}

// WorkloadConfig re-exports the generic workload generator's knobs.
type WorkloadConfig = workload.Config

// CustomJob builds a job from explicit workload parameters.
func CustomJob(cfg WorkloadConfig) *JobSpec { return workload.Generate(cfg) }

// SaveJobSpec serializes a job spec to JSON for archiving/replay.
func SaveJobSpec(spec *JobSpec) ([]byte, error) { return workload.MarshalSpec(spec) }

// LoadJobSpec parses and validates a serialized job spec.
func LoadJobSpec(data []byte) (*JobSpec, error) { return workload.UnmarshalSpec(data) }

// Compare runs the same job spec under two schedulers on identically
// configured clusters and returns (timeA, timeB, speedupOfBOverA). Any
// Option applies to both runs — topology, oversubscription, seed, faults —
// so comparisons are no longer limited to the default two-rack shape:
//
//	ta, tb, sp := pythia.Compare(spec, pythia.SchedulerECMP, pythia.SchedulerPythia,
//	    pythia.WithOversubscription(10), pythia.WithSeed(7))
//
// Compare panics if either run fails; use TryCompare when the options
// inject faults that may legitimately prevent completion.
func Compare(spec *JobSpec, a, b SchedulerKind, opts ...Option) (float64, float64, float64) {
	ta, tb, sp, err := TryCompare(spec, a, b, opts...)
	if err != nil {
		panic(fmt.Sprintf("pythia: %v", err))
	}
	return ta, tb, sp
}

// TryCompare is Compare returning an error instead of panicking. The error
// identifies which scheduler's run failed; a run that ends with unfinished
// jobs matches ErrUnfinished.
func TryCompare(spec *JobSpec, a, b SchedulerKind, opts ...Option) (float64, float64, float64, error) {
	run := func(k SchedulerKind) (float64, error) {
		cl := New(append(append([]Option(nil), opts...), WithScheduler(k))...)
		res, err := cl.TryRunJob(spec)
		if err != nil {
			return 0, fmt.Errorf("%v run: %w", k, err)
		}
		return res.DurationSec, nil
	}
	ta, err := run(a)
	if err != nil {
		return 0, 0, 0, err
	}
	tb, err := run(b)
	if err != nil {
		return ta, 0, 0, err
	}
	speedup := 0.0
	if tb > 0 {
		speedup = (ta - tb) / tb
	}
	return ta, tb, speedup, nil
}
