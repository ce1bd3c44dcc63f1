package pythia

import (
	"pythia/internal/instrument"
	"pythia/internal/mgmtnet"
	"pythia/internal/openflow"
	"pythia/internal/sim"
)

// Fault options and the facade's failure plane — see the package doc's
// "Configuring a cluster" index. Faults are scheduled against virtual time
// with At and injected through the Fail*/Recover* methods; every scheduler
// (ECMP, Hedera, Pythia) observes the same netsim event source and reacts —
// re-hashing, re-polling, or re-placing — without any internal imports.

// At schedules fn to run at tSec simulated seconds, before or during a
// RunJobs call. Use it to inject faults mid-job:
//
//	cl.At(20, func() { cl.FailLink(cl.Trunks()[0]) })
//	res := cl.RunJob(spec)
func (c *Cluster) At(tSec float64, fn func()) {
	c.eng.At(sim.Time(tSec), fn)
}

// Now returns the current simulated time in seconds.
func (c *Cluster) Now() float64 { return float64(c.eng.Now()) }

// FailLink fails a duplex cable (both directions). In-flight traffic on it
// starves until the active scheduler reroutes it or the link recovers.
func (c *Cluster) FailLink(l LinkID) { c.net.FailLink(l) }

// RecoverLink brings a failed cable back. Schedulers are notified and may
// spread traffic back onto it.
func (c *Cluster) RecoverLink(l LinkID) { c.net.RecoverLink(l) }

// FailSwitch fails a switch, downing every cable attached to it. Panics if
// the node is not a switch (see Switches for valid targets).
func (c *Cluster) FailSwitch(s SwitchID) { c.net.FailSwitch(s) }

// RecoverSwitch brings a failed switch back; its cables return to service
// unless individually failed via FailLink.
func (c *Cluster) RecoverSwitch(s SwitchID) { c.net.RecoverSwitch(s) }

// FailController severs the SDN controller's management connectivity: rule
// installs are lost and retried until the budget set by
// WithControlPlaneFaults runs out, at which point Pythia degrades affected
// aggregates to the default ECMP pipeline. No-op for schedulers without a
// central controller (ECMP, Hedera).
func (c *Cluster) FailController() {
	if c.ofc != nil {
		c.ofc.FailController()
	}
}

// RecoverController restores management connectivity; Pythia reconciles by
// re-placing the aggregates that degraded during the outage.
func (c *Cluster) RecoverController() {
	if c.ofc != nil {
		c.ofc.RecoverController()
	}
}

// ControlPlaneFaults models management-channel unreliability for the SDN
// control plane (Pythia's rule installs). Zero-valued fields take the
// defaults noted below.
type ControlPlaneFaults struct {
	// InstallTimeoutSec is how long the controller waits for a FLOW_MOD
	// ack before retransmitting (default 0.05 s).
	InstallTimeoutSec float64
	// MaxRetries bounds retransmissions per rule (default 3); past the
	// budget the install fails and the aggregate degrades to ECMP.
	MaxRetries int
	// RetryBackoffSec delays the first retransmission and doubles per
	// attempt (default 0.1 s).
	RetryBackoffSec float64
	// ExtraDelaySec is added to every management-channel delivery.
	ExtraDelaySec float64
	// DropEvery loses every Nth FLOW_MOD transmission (0 disables drops);
	// the schedule is deterministic, so runs stay reproducible.
	DropEvery int
}

// WithControlPlaneFaults adds the retry layer (ack timeout, bounded
// exponential-backoff retransmission, deterministic loss) to the Pythia
// scheduler's rule installs; when and how a FLOW_MOD travels is unchanged.
// Required for FailController to have effect — without a timeout, installs
// issued during an outage would wait forever.
func WithControlPlaneFaults(f ControlPlaneFaults) Option {
	return func(c *config) { c.cpFaults = &f }
}

func (f ControlPlaneFaults) toInternal() openflow.FaultConfig {
	cfg := openflow.FaultConfig{
		InstallTimeout: sim.Duration(f.InstallTimeoutSec),
		MaxRetries:     f.MaxRetries,
		RetryBackoff:   sim.Duration(f.RetryBackoffSec),
		ExtraDelay:     sim.Duration(f.ExtraDelaySec),
	}
	if cfg.InstallTimeout <= 0 {
		cfg.InstallTimeout = 0.05 * sim.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 0.1 * sim.Second
	}
	if f.DropEvery > 0 {
		n := uint64(f.DropEvery)
		cfg.Drop = func(seq uint64) bool { return seq%n == 0 }
	}
	return cfg
}

// MgmtFaults models the management star's unreliability — the prediction
// plane's transport. Faults are drawn from a dedicated seeded stream, so
// runs stay bit-identical per seed; the zero value is the perfectly
// reliable legacy fabric.
type MgmtFaults struct {
	// DropProb is the per-message loss probability; DupProb the probability
	// a message is delivered twice (the retransmit-storm shape the
	// collector's idempotence guards against).
	DropProb float64
	DupProb  float64
	// ExtraDelaySec is added to every delivery; JitterMaxSec adds a uniform
	// [0, JitterMaxSec) per-delivery delay on top.
	ExtraDelaySec float64
	JitterMaxSec  float64
	// Seed fixes the fault stream (0 is a valid seed).
	Seed uint64
	// DeferDuringOutage queues sends attempted while the star is down
	// (FailMgmt) and releases them FIFO on RecoverMgmt; by default such
	// sends are dropped, as with a rebooting management switch.
	DeferDuringOutage bool
}

func (f MgmtFaults) toInternal() mgmtnet.FaultConfig {
	return mgmtnet.FaultConfig{
		DropProb:          f.DropProb,
		DupProb:           f.DupProb,
		ExtraDelay:        sim.Duration(f.ExtraDelaySec),
		JitterMax:         sim.Duration(f.JitterMaxSec),
		Seed:              f.Seed,
		DeferDuringOutage: f.DeferDuringOutage,
	}
}

// WithMgmtFaults installs the management-network fault model. It implies
// WithExplicitControlPlane: there is no management network to fault under
// the fixed-latency shortcut.
func WithMgmtFaults(f MgmtFaults) Option {
	return func(c *config) { c.mgmtFaults = &f }
}

// MonitorFaults models per-host instrumentation-monitor crashes. While a
// monitor is down its host's spill notifications and reducer starts are
// missed; on restart the monitor re-scans the spill directory and emits the
// backlog as late, batched intents.
type MonitorFaults struct {
	// CrashProb is drawn once per spill notification: on a hit, the host's
	// monitor dies just before processing it.
	CrashProb float64
	// DowntimeSec is how long a crashed monitor stays down before its
	// supervisor restarts it (default 10 s).
	DowntimeSec float64
	// Seed fixes the crash stream.
	Seed uint64
}

func (f MonitorFaults) toInternal() instrument.MonitorFaultConfig {
	return instrument.MonitorFaultConfig{
		CrashProb: f.CrashProb,
		Downtime:  sim.Duration(f.DowntimeSec),
		Seed:      f.Seed,
	}
}

// WithMonitorFaults enables seeded per-host monitor crash/restart.
func WithMonitorFaults(f MonitorFaults) Option {
	return func(c *config) { c.monFaults = &f }
}

// WithPredictionError injects seeded multiplicative noise into every
// per-reducer predicted wire size: each positive prediction is scaled by a
// uniform factor in [1-f, 1+f). The paper's Fig. 5 regime is a systematic
// 3–7% overestimate; this knob measures how scheduling quality degrades as
// estimates get noisier. factor 0 disables the noise entirely (bit-identical
// to the exact pipeline).
func WithPredictionError(factor float64, seed uint64) Option {
	return func(c *config) {
		c.predErrFactor = factor
		c.predErrSeed = seed
	}
}

// WithBookingTTL garbage-collects Pythia bookings and deferred intents whose
// flows never materialize — a lost ReducerUp, a dead job, a JobDone dropped
// on the management network — releasing their path reservations after sec
// simulated seconds. 0 disables the sweep. Only meaningful under
// SchedulerPythia.
func WithBookingTTL(sec float64) Option {
	return func(c *config) { c.bookingTTLSec = sec }
}

// FailMgmt downs the whole management star (the management switch reboots):
// prediction notifications, reducer-up events, job-done messages and — under
// the explicit control plane — FLOW_MODs sent during the outage are dropped,
// or deferred under MgmtFaults.DeferDuringOutage. Messages already on the
// wire still arrive. No-op unless the cluster has a management network
// (WithExplicitControlPlane or WithMgmtFaults).
func (c *Cluster) FailMgmt() {
	if c.mn != nil {
		c.mn.Fail()
	}
}

// RecoverMgmt brings the management star back, releasing any deferred sends
// in FIFO order.
func (c *Cluster) RecoverMgmt() {
	if c.mn != nil {
		c.mn.Recover()
	}
}

// CrashMonitor kills the instrumentation monitor on the i-th host (scripted
// fault injection). If WithMonitorFaults configured a downtime the
// supervisor restarts it automatically; otherwise call RestartMonitor.
func (c *Cluster) CrashMonitor(hostIndex int) {
	c.mw.CrashMonitor(c.hosts[hostIndex])
}

// RestartMonitor restarts the i-th host's monitor: the fresh process
// re-scans the spill directory and emits missed predictions as late,
// batched intents.
func (c *Cluster) RestartMonitor(hostIndex int) {
	c.mw.RestartMonitor(c.hosts[hostIndex])
}

// NumHosts reports the cluster's server count (valid CrashMonitor indices
// are [0, NumHosts)).
func (c *Cluster) NumHosts() int { return len(c.hosts) }

// FaultReport summarizes the failure plane's activity so far.
type FaultReport struct {
	// Retransmissions counts timed-out FLOW_MODs that were re-sent and
	// DroppedFlowMods the transmissions lost to faults or outage.
	Retransmissions uint64
	DroppedFlowMods uint64
	// AggregatesDegraded counts Pythia aggregates that fell back to the
	// ECMP pipeline; Reconciliations those re-placed after the controller
	// recovered; FlowsRescued the in-flight flows rerouted off dead paths.
	AggregatesDegraded int
	Reconciliations    int
	FlowsRescued       int

	// Management-network telemetry (explicit control plane only):
	// MgmtMessages/MgmtBytes count traffic put on the wire toward delivery,
	// MgmtMaxQueueDelaySec is the worst per-sender serialization wait, and
	// MgmtDropped/MgmtDuplicated/MgmtDeferred count injected-fault and
	// outage casualties.
	MgmtMessages         uint64
	MgmtBytes            float64
	MgmtMaxQueueDelaySec float64
	MgmtDropped          uint64
	MgmtDuplicated       uint64
	MgmtDeferred         uint64

	// Prediction-plane fault counters: monitor deaths, spill notifications
	// lost while down, predictions recovered by restart re-scans, and
	// control messages discarded because their job finished while they were
	// in flight.
	MonitorCrashes  int
	MissedSpills    int
	LateIntents     int
	InFlightDropped int

	// Collector defenses: DedupHits counts exact duplicate intents dropped
	// by the (job, map, attempt) idempotence set, DuplicateIntents the
	// cross-attempt re-predictions absorbed by booking replacement, and
	// ExpiredBookings/ExpiredIntents the reservations reclaimed by the
	// booking TTL. LeakedBookings is the number of reservations still held
	// for completed jobs — zero in a healthy or TTL-protected run.
	DedupHits        int
	DuplicateIntents int
	ExpiredBookings  int
	ExpiredIntents   int
	LeakedBookings   int
}

// Faults reports the cluster's fault-plane counters (zero for schedulers
// without the relevant machinery).
func (c *Cluster) Faults() FaultReport {
	var r FaultReport
	if c.ofc != nil {
		r.Retransmissions = c.ofc.Retransmissions
		r.DroppedFlowMods = c.ofc.DroppedFlowMods
	}
	if c.py != nil {
		r.AggregatesDegraded = c.py.AggregatesDegraded
		r.Reconciliations = c.py.Reconciliations
		r.FlowsRescued = c.py.FlowsRescued
		r.DedupHits = c.py.DedupHits()
		r.DuplicateIntents = c.py.DuplicateIntents()
		r.ExpiredBookings = c.py.ExpiredBookings()
		r.ExpiredIntents = c.py.ExpiredIntents()
		for _, job := range c.doneJobs {
			r.LeakedBookings += c.py.OutstandingBookings(job)
		}
	}
	if c.mn != nil {
		r.MgmtMessages = c.mn.Messages
		r.MgmtBytes = c.mn.Bytes
		r.MgmtMaxQueueDelaySec = float64(c.mn.MaxQueueDelay)
		r.MgmtDropped = c.mn.Dropped
		r.MgmtDuplicated = c.mn.Duplicated
		r.MgmtDeferred = c.mn.Deferred
	}
	r.MonitorCrashes = c.mw.MonitorCrashes
	r.MissedSpills = c.mw.MissedSpills
	r.LateIntents = c.mw.LateIntents
	r.InFlightDropped = c.mw.InFlightDropped
	if c.al != nil {
		r.FlowsRescued += c.al.FlowsRescued
	}
	if c.hed != nil {
		r.FlowsRescued += c.hed.FlowsRescued
	}
	return r
}
