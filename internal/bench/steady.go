package bench

import (
	"fmt"
	"sort"
	"strings"

	"pythia/internal/flight"
	"pythia/internal/hadoop"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/testbed"
	"pythia/internal/workload"
)

// The steady-state harness: submits an open-loop arrival stream into the
// simulated cluster under an admission cap, detects warm-up with MSER-5
// over completion times, then measures windowed p50/p95/p99
// job-completion-time and per-tenant SLO attainment over the remaining
// horizon. Unlike the closed-loop trace replay, nothing here panics on a
// starved run — saturation is a measured outcome, not a failure.

// SteadyConfig describes one open-loop steady-state run.
type SteadyConfig struct {
	Scheduler Scheduler
	Oversub   Oversub
	// Workload is the arrival process; its BaseRateJobsPerSec is the
	// offered-load knob the frontier sweeps.
	Workload workload.OpenLoopConfig
	// HorizonSec bounds the run in simulated time (default 1800).
	HorizonSec float64
	// MaxInFlight caps concurrently admitted jobs (default 8); arrivals
	// beyond the cap wait in a priority-ordered admission queue, and their
	// queueing delay counts against their completion time.
	MaxInFlight int
	// WindowSec sizes the tail-latency measurement windows (default 300).
	WindowSec float64
	// CollectFlight attaches the flight recorder and correlates per-window
	// prediction lateness with windowed p99 (Pythia only; pure observer).
	CollectFlight bool
	Seed          uint64
}

func (c SteadyConfig) defaults() SteadyConfig {
	if c.HorizonSec == 0 {
		c.HorizonSec = 1800
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 8
	}
	if c.WindowSec == 0 {
		c.WindowSec = 300
	}
	c.Workload.Seed = c.Seed
	return c
}

// TenantSteady is one tenant's steady-state scorecard.
type TenantSteady struct {
	Tenant string `json:"tenant"`
	// Completed counts post-warm-up completions. CensoredLate counts jobs
	// still unfinished at the horizon whose age already exceeded the SLO —
	// definite violations even though their final completion time is
	// unknown. SLOAttainment is met / (Completed + CensoredLate); censored
	// jobs still within their SLO budget are scored nowhere.
	Completed     int     `json:"completed"`
	CensoredLate  int     `json:"censored_late"`
	SLOSec        float64 `json:"slo_sec"`
	SLOAttainment float64 `json:"slo_attainment"`
	P95Sec        float64 `json:"p95_sec"`
}

// WindowStat is one measurement window's tail-latency snapshot.
type WindowStat struct {
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	Jobs     int     `json:"jobs"`
	P50Sec   float64 `json:"p50_sec"`
	P95Sec   float64 `json:"p95_sec"`
	P99Sec   float64 `json:"p99_sec"`
	// LateFraction is the share of covered shuffle flows admitted in this
	// window whose rule install lost the race (CollectFlight only).
	LateFraction float64 `json:"late_fraction"`
	races        int
}

// SteadyResult is one steady-state run's outcome. Completion time is
// always measured arrival-to-completion, so admission queueing counts.
type SteadyResult struct {
	Scheduler      string  `json:"scheduler"`
	RateJobsPerSec float64 `json:"rate_jobs_per_sec"`
	HorizonSec     float64 `json:"horizon_sec"`

	Submitted     int `json:"submitted"`
	Completed     int `json:"completed"`
	InFlightAtEnd int `json:"in_flight_at_end"`
	QueuedAtEnd   int `json:"queued_at_end"`

	// Warm-up truncation (MSER-5 over completion times in completion
	// order). WarmupOK reports the rule converged; WarmupJobs completions
	// were discarded, the last of them finishing at WarmupEndSec.
	WarmupOK     bool    `json:"warmup_ok"`
	WarmupJobs   int     `json:"warmup_jobs"`
	WarmupEndSec float64 `json:"warmup_end_sec"`

	// Steady-state (post-warm-up) job-completion-time percentiles.
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P95Sec  float64 `json:"p95_sec"`
	P99Sec  float64 `json:"p99_sec"`

	// SLOAttainment is the job-weighted fraction of post-warm-up
	// completions that met their tenant's SLO. A job still queued or in
	// flight at the horizon whose age already exceeds its SLO is a definite
	// violation and counts against attainment; censored jobs still within
	// budget are scored nowhere. Without this, a saturated scheduler that
	// strands every hard job unfinished would read as 100% attainment.
	SLOAttainment float64        `json:"slo_attainment"`
	Tenants       []TenantSteady `json:"tenants"`
	Windows       []WindowStat   `json:"windows"`

	// MeanInFlight is the time-averaged number of admitted jobs — the
	// utilization proxy for the frontier (cap = MaxInFlight).
	MeanInFlight float64 `json:"mean_in_flight"`
	// OfferedShuffleBps is the arrival stream's shuffle demand rate
	// (Σ shuffle bytes of submitted jobs × 8 / horizon).
	OfferedShuffleBps float64 `json:"offered_shuffle_bps"`

	// LeakedBookings must be zero: reservations still held for completed
	// jobs after the run (Pythia only).
	LeakedBookings int `json:"leaked_bookings"`
	// LateTailCorrelation is the Pearson correlation between per-window
	// prediction late fraction and windowed p99 completion time
	// (CollectFlight + Pythia only; 0 when undefined).
	LateTailCorrelation float64 `json:"late_tail_correlation"`

	Quality *flight.Quality `json:"quality,omitempty"`
}

// steadyArrival tracks one open-loop job through the admission machinery.
type steadyArrival struct {
	job     workload.OpenJob
	handle  *hadoop.Job
	doneAt  float64
	done    bool
	started bool
}

// RunSteady executes one open-loop steady-state run. It returns an error
// for submission failures (invalid specs); a saturated run that strands
// jobs in the queue or on the fabric is a valid measurement, reported in
// the counters, not an error.
func RunSteady(cfg SteadyConfig) (SteadyResult, error) {
	cfg = cfg.defaults()
	tb, err := testbed.Build(TrialConfig{
		Scheduler: cfg.Scheduler, Oversub: cfg.Oversub, Seed: cfg.Seed, CollectFlight: cfg.CollectFlight,
	}.toTestbed())
	if err != nil {
		return SteadyResult{}, fmt.Errorf("bench: %w", err)
	}
	eng, cluster, py, fr := tb.Eng, tb.Cluster, tb.Pythia, tb.Flight

	stream := workload.OpenLoop(cfg.Workload)
	arrivals := stream.Until(cfg.HorizonSec)

	var (
		byJobID   = map[int]*steadyArrival{}
		queue     []*steadyArrival // admission backlog, selected by priority
		inFlight  int
		submitErr error
		// Time integral of inFlight for the utilization proxy.
		inFlightIntegral float64
		lastTransition   float64
	)
	accountTransition := func() {
		now := float64(eng.Now())
		inFlightIntegral += float64(inFlight) * (now - lastTransition)
		lastTransition = now
	}
	admit := func(a *steadyArrival) {
		h, err := cluster.Submit(a.job.Spec)
		if err != nil {
			if submitErr == nil {
				submitErr = fmt.Errorf("steady: submit %q: %w", a.job.Spec.Name, err)
			}
			return
		}
		accountTransition()
		a.handle = h
		a.started = true
		inFlight++
		byJobID[h.ID] = a
	}
	// Admission selection: highest tenant priority first, FIFO (arrival
	// order) within a priority.
	popQueue := func() *steadyArrival {
		best := -1
		for i, a := range queue {
			if best < 0 || a.job.Priority > queue[best].job.Priority {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		a := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		return a
	}
	cluster.OnJobDone(func(j *hadoop.Job) {
		a, ok := byJobID[j.ID]
		if !ok {
			return
		}
		accountTransition()
		a.done = true
		a.doneAt = float64(eng.Now())
		inFlight--
		if next := popQueue(); next != nil {
			admit(next)
		}
	})

	recs := make([]*steadyArrival, len(arrivals))
	for i := range arrivals {
		a := &steadyArrival{job: arrivals[i]}
		recs[i] = a
		eng.At(sim.Time(a.job.SubmitAtSec), func() {
			if inFlight < cfg.MaxInFlight {
				admit(a)
			} else {
				queue = append(queue, a)
			}
		})
	}
	eng.RunUntil(sim.Time(cfg.HorizonSec))
	// Close the in-flight integral over the tail of the horizon.
	accountTransition()
	if submitErr != nil {
		return SteadyResult{}, submitErr
	}

	res := SteadyResult{
		Scheduler:      cfg.Scheduler.String(),
		RateJobsPerSec: cfg.Workload.Defaults().BaseRateJobsPerSec,
		HorizonSec:     cfg.HorizonSec,
		Submitted:      len(recs),
		QueuedAtEnd:    len(queue),
	}
	var offered float64
	var completions []*steadyArrival
	for _, a := range recs {
		offered += a.job.Spec.TotalShuffleBytes()
		switch {
		case a.done:
			completions = append(completions, a)
		case a.started:
			res.InFlightAtEnd++
		}
	}
	res.OfferedShuffleBps = offered * 8 / cfg.HorizonSec
	res.Completed = len(completions)
	res.MeanInFlight = inFlightIntegral / cfg.HorizonSec

	// Completions arrive in completion order already (OnJobDone fires in
	// simulated-time order); MSER-5 truncates the initial transient.
	jcts := make([]float64, len(completions))
	for i, a := range completions {
		jcts[i] = a.doneAt - a.job.SubmitAtSec
	}
	cut, ok := stats.MSER5(jcts)
	res.WarmupOK = ok
	res.WarmupJobs = cut
	if cut > 0 {
		res.WarmupEndSec = completions[cut-1].doneAt
	}
	steady := completions[cut:]
	steadyJCT := jcts[cut:]
	if len(steadyJCT) > 0 {
		s := stats.Summarize(steadyJCT)
		res.MeanSec, res.P50Sec, res.P95Sec, res.P99Sec = s.Mean, s.P50, s.P95, s.P99
	}

	// Per-tenant SLO attainment over the steady window. Unfinished jobs
	// older than their SLO at the horizon are definite violations — without
	// them a scheduler that starves its hardest jobs would score perfectly.
	type tacc struct {
		met, n, late int
		slo          float64
		jcts         []float64
	}
	perTenant := map[string]*tacc{}
	var tenantOrder []string
	acc := func(name string, slo float64) *tacc {
		t := perTenant[name]
		if t == nil {
			t = &tacc{slo: slo}
			perTenant[name] = t
			tenantOrder = append(tenantOrder, name)
		}
		return t
	}
	metTotal, lateTotal := 0, 0
	for i, a := range steady {
		t := acc(a.job.Tenant, a.job.SLOSec)
		t.n++
		t.jcts = append(t.jcts, steadyJCT[i])
		if steadyJCT[i] <= a.job.SLOSec {
			t.met++
			metTotal++
		}
	}
	for _, a := range recs {
		if !a.done && cfg.HorizonSec-a.job.SubmitAtSec > a.job.SLOSec {
			acc(a.job.Tenant, a.job.SLOSec).late++
			lateTotal++
		}
	}
	sort.Strings(tenantOrder)
	for _, name := range tenantOrder {
		t := perTenant[name]
		ts := TenantSteady{
			Tenant:       name,
			Completed:    t.n,
			CensoredLate: t.late,
			SLOSec:       t.slo,
			P95Sec:       stats.Summarize(t.jcts).P95,
		}
		if scored := t.n + t.late; scored > 0 {
			ts.SLOAttainment = float64(t.met) / float64(scored)
		}
		res.Tenants = append(res.Tenants, ts)
	}
	if scored := len(steady) + lateTotal; scored > 0 {
		res.SLOAttainment = float64(metTotal) / float64(scored)
	}

	// Windowed tails from warm-up end to the horizon, joined with the
	// flight recorder's per-flow race outcomes.
	var races []flight.FlowRace
	if fr != nil {
		races = flight.FlowRaces(fr.Events())
		q := flight.ComputeQuality(fr.Events())
		res.Quality = &q
	}
	for start := res.WarmupEndSec; start < cfg.HorizonSec; start += cfg.WindowSec {
		end := start + cfg.WindowSec
		if end > cfg.HorizonSec {
			end = cfg.HorizonSec
		}
		w := WindowStat{StartSec: start, EndSec: end}
		var wj []float64
		for i, a := range steady {
			if a.doneAt >= start && a.doneAt < end {
				wj = append(wj, steadyJCT[i])
			}
		}
		w.Jobs = len(wj)
		if len(wj) > 0 {
			s := stats.Summarize(wj)
			w.P50Sec, w.P95Sec, w.P99Sec = s.P50, s.P95, s.P99
		}
		late := 0
		for _, r := range races {
			if t := float64(r.T); t >= start && t < end {
				w.races++
				if r.Late {
					late++
				}
			}
		}
		if w.races > 0 {
			w.LateFraction = float64(late) / float64(w.races)
		}
		res.Windows = append(res.Windows, w)
	}
	var lateXs, tailYs []float64
	for _, w := range res.Windows {
		if w.Jobs > 0 && w.races > 0 {
			lateXs = append(lateXs, w.LateFraction)
			tailYs = append(tailYs, w.P99Sec)
		}
	}
	res.LateTailCorrelation = stats.Pearson(lateXs, tailYs)

	if py != nil {
		for _, a := range completions {
			res.LeakedBookings += py.OutstandingBookings(a.handle.ID)
		}
	}
	return res, nil
}

// SteadySchedulers is the frontier's scheduler sweep.
func SteadySchedulers() []Scheduler { return []Scheduler{ECMP, Hedera, Pythia} }

// DefaultSteadyRates spans light load to near saturation of the default
// two-rack testbed at 1:10 oversubscription with the default tenant mix:
// at 0.05 job/s the fabric idles between jobs, at 0.20 the admission queue
// is persistently occupied and the scheduler choice dominates the tail.
func DefaultSteadyRates() []float64 { return []float64{0.05, 0.12, 0.20} }

// RunSteadyFrontier sweeps arrival rates × schedulers and returns one
// SteadyResult per (rate, scheduler) cell, rates outermost — the
// utilization-vs-SLO frontier. Every cell is an independent deterministic
// simulation, so they fan out across the harness worker pool; results are
// assembled in sweep order and are byte-identical at any parallelism.
func RunSteadyFrontier(base SteadyConfig, rates []float64) ([]SteadyResult, error) {
	scheds := SteadySchedulers()
	out := make([]SteadyResult, len(rates)*len(scheds))
	errs := make([]error, len(out))
	forEachIndex(len(out), func(i int) {
		cfg := base
		cfg.Workload.BaseRateJobsPerSec = rates[i/len(scheds)]
		cfg.Scheduler = scheds[i%len(scheds)]
		out[i], errs[i] = RunSteady(cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FormatSteadyFrontier renders the frontier as the E14 table.
func FormatSteadyFrontier(rows []SteadyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== E14: open-loop steady state — utilization vs SLO frontier ===\n")
	fmt.Fprintf(&b, "%-12s %-8s %6s %6s %9s %9s %9s %7s %8s\n",
		"rate(job/s)", "sched", "done", "queue", "p50(s)", "p95(s)", "p99(s)", "SLO%", "late-corr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12.3f %-8s %6d %6d %9.1f %9.1f %9.1f %6.1f%% %8.2f\n",
			r.RateJobsPerSec, r.Scheduler, r.Completed, r.QueuedAtEnd,
			r.P50Sec, r.P95Sec, r.P99Sec, r.SLOAttainment*100, r.LateTailCorrelation)
	}
	b.WriteString("(SLO% is job-weighted per-tenant attainment over the post-warm-up window;\n")
	b.WriteString(" late-corr is the per-window correlation of prediction lateness with p99 JCT)\n")
	return b.String()
}
