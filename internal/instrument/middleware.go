package instrument

import (
	"fmt"

	"pythia/internal/flight"
	"pythia/internal/hadoop"
	"pythia/internal/mgmtnet"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
)

// Intent is a shuffle-intent prediction: after map Map of job Job finished
// on SrcHost, PredictedWireBytes[r] bytes are expected to flow from SrcHost
// to whichever server will run reducer r. Reducer locations are not part of
// the message — the collector resolves them, possibly later (destination
// back-fill).
type Intent struct {
	Job int
	Map int
	// Attempt is the 1-based map attempt that spilled. Together with
	// (Job, Map) it is the collector's idempotence key: a duplicated
	// message carries the same attempt, a re-execution a new one. The
	// simulated runtime runs each map once, so the middleware always
	// stamps spillAttempt.
	Attempt int
	SrcHost topology.NodeID
	// PredictedWireBytes is indexed by reducer ID.
	PredictedWireBytes []float64
	// MapFinishedAt is the spill instant; EmittedAt is when the collector
	// receives the message. EmittedAt - MapFinishedAt is the
	// instrumentation latency.
	MapFinishedAt sim.Time
	EmittedAt     sim.Time
	// Late marks an intent recovered by a restarted monitor's spill-
	// directory re-scan rather than a live filesystem notification.
	Late bool
}

// ReducerUp announces that reducer Reduce of job Job was started on Host —
// the event the collector uses to fill in unknown flow destinations.
type ReducerUp struct {
	Job    int
	Reduce int
	Host   topology.NodeID
	At     sim.Time
}

// Sink receives instrumentation messages; Pythia's collector implements it.
type Sink interface {
	ShuffleIntent(Intent)
	ReducerUp(ReducerUp)
}

// JobDoneSink is implemented by sinks that want job-completion
// notifications, so per-job controller state (bookings for reducers that
// never started, deferred intents, barrier backlog) can be reclaimed.
type JobDoneSink interface {
	JobDone(job int)
}

// Config tunes the middleware's latency and overhead model.
type Config struct {
	// FSNotifyDelay is the gap between spill write and the filesystem
	// notification reaching the monitor.
	FSNotifyDelay sim.Duration
	// DecodeBase + DecodePerPartition model index-file analysis time.
	DecodeBase         sim.Duration
	DecodePerPartition sim.Duration
	// MgmtLatency is the one-way management-network delay to the
	// collector (out-of-band, so it never contends with shuffle data).
	// Ignored when Mgmt is set.
	MgmtLatency sim.Duration
	// Mgmt, when non-nil, carries control messages over an explicit
	// management-network model (per-sender serialization and queueing)
	// instead of the fixed MgmtLatency.
	Mgmt *mgmtnet.Network
	// PredictOverheadFactor converts decoded on-disk partition bytes into
	// predicted wire bytes. The paper derives it from known protocol
	// header sizes; slight overestimation (3–7% in Fig. 5) is expected
	// and safe.
	PredictOverheadFactor float64
	// DCCPUFraction is the constant monitoring CPU cost per server;
	// SpikeCPUSec is the per-spill index-analysis burst (§V-C: total
	// 2–5% CPU).
	DCCPUFraction float64
	SpikeCPUSec   float64
	// PredictionErrorFactor injects seeded multiplicative noise into every
	// per-reducer prediction: each positive predicted value is scaled by a
	// uniform factor in [1-f, 1+f). The paper's Fig. 5 regime is a 3–7%
	// systematic overestimate; this knob explores how scheduling quality
	// degrades as the estimates get noisier. Zero disables the noise (and
	// its RNG draws), keeping results bit-identical to the exact pipeline.
	PredictionErrorFactor float64
	// PredictionErrorSeed fixes the noise stream.
	PredictionErrorSeed uint64
	// MonitorFaults, when non-nil, enables seeded per-host monitor
	// crash/restart.
	MonitorFaults *MonitorFaultConfig
	// Flight, when non-nil, receives monitor-plane lifecycle events
	// (spill detected, index decoded, intent enqueued/dropped). Leave nil
	// to disable recording at zero cost; never store a typed-nil recorder.
	Flight flight.Sink
}

// MonitorFaultConfig models per-host monitor process failures.
type MonitorFaultConfig struct {
	// CrashProb is drawn once per spill notification: on a hit, the host's
	// monitor dies just before processing it, missing that spill and every
	// later one until restart.
	CrashProb float64
	// Downtime is how long a crashed monitor stays down before its
	// supervisor restarts it (default 10 s).
	Downtime sim.Duration
	// Seed fixes the crash stream.
	Seed uint64
}

// defaults fills unset monitor-fault fields.
func (c MonitorFaultConfig) defaults() MonitorFaultConfig {
	if c.Downtime == 0 {
		c.Downtime = 10 * sim.Second
	}
	return c
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.FSNotifyDelay == 0 {
		c.FSNotifyDelay = 20 * sim.Millisecond
	}
	if c.DecodeBase == 0 {
		c.DecodeBase = 5 * sim.Millisecond
	}
	if c.DecodePerPartition == 0 {
		c.DecodePerPartition = 0.2 * sim.Millisecond
	}
	if c.MgmtLatency == 0 {
		c.MgmtLatency = 1 * sim.Millisecond
	}
	if c.PredictOverheadFactor == 0 {
		c.PredictOverheadFactor = 1.08
	}
	if c.DCCPUFraction == 0 {
		c.DCCPUFraction = 0.02
	}
	if c.SpikeCPUSec == 0 {
		c.SpikeCPUSec = 0.03
	}
	return c
}

// spillAttempt is the attempt number the middleware stamps on every intent
// and monitor flight event.
const spillAttempt = 1

// missedSpill is one spill that landed while its host's monitor was down —
// the on-disk state a restarted monitor recovers by re-scanning the spill
// directory.
type missedSpill struct {
	job, mapID int
	partitions []float64
	finished   sim.Time
}

// missedUp is a reducer start the crashed monitor's tasktracker watch never
// saw; the restart re-scan re-detects the running reducer.
type missedUp struct {
	job, reduce int
}

// Middleware is the fleet of per-server monitors. One Middleware instance
// serves a whole simulated cluster (monitors share no state in the real
// system; here the aggregation is just bookkeeping).
type Middleware struct {
	eng  *sim.Engine
	cfg  Config
	sink Sink
	fl   flight.Sink

	// overhead accounting
	attachedAt sim.Time
	spills     map[topology.NodeID]int
	hosts      []topology.NodeID

	// Monitor fault state: crashed monitors, the spills and reducer starts
	// they missed, and the seeded crash stream.
	down         map[topology.NodeID]bool
	missedSpills map[topology.NodeID][]missedSpill
	missedUps    map[topology.NodeID][]missedUp
	mfaults      MonitorFaultConfig
	crashRNG     *stats.RNG
	predErr      *stats.RNG

	// jobDone tracks cluster-side job completion so control messages still
	// in flight on the management network when their job ends are dropped
	// at delivery instead of resurrecting collector state.
	jobDone map[int]bool

	// IntentsSent counts prediction messages (network overhead analysis).
	IntentsSent int
	// BytesOnMgmt estimates control bytes on the management network.
	BytesOnMgmt float64
	// MonitorCrashes counts monitor deaths, MissedSpills the spill
	// notifications lost while down, and LateIntents the predictions
	// recovered by restart re-scans.
	MonitorCrashes int
	MissedSpills   int
	LateIntents    int
	// InFlightDropped counts control messages discarded at delivery
	// because their job finished while they were on the wire.
	InFlightDropped int
}

// Attach wires a middleware onto a cluster: every tasktracker host gets a
// monitor; predictions and reducer-up events flow to sink. Attach must be
// called before the first job is submitted.
func Attach(eng *sim.Engine, cluster *hadoop.Cluster, sink Sink, cfg Config) *Middleware {
	if sink == nil {
		panic("instrument: nil sink")
	}
	m := &Middleware{
		eng:          eng,
		cfg:          cfg.Defaults(),
		sink:         sink,
		fl:           cfg.Flight,
		attachedAt:   eng.Now(),
		spills:       make(map[topology.NodeID]int),
		hosts:        cluster.Hosts(),
		down:         make(map[topology.NodeID]bool),
		missedSpills: make(map[topology.NodeID][]missedSpill),
		missedUps:    make(map[topology.NodeID][]missedUp),
		jobDone:      make(map[int]bool),
	}
	if cfg.MonitorFaults != nil {
		m.mfaults = cfg.MonitorFaults.defaults()
		m.crashRNG = stats.NewRNG(m.mfaults.Seed)
	}
	if cfg.PredictionErrorFactor > 0 {
		m.predErr = stats.NewRNG(cfg.PredictionErrorSeed)
	}
	cluster.OnMapSpilled(func(j *hadoop.Job, task *hadoop.MapTask, partitions []float64) {
		m.onSpill(cluster, j, task, partitions)
	})
	cluster.OnReduceScheduled(func(j *hadoop.Job, r *hadoop.ReduceTask) {
		host := cluster.HostOf(r.Tracker)
		if m.down[host] {
			// Reducer-init detection rides the monitor's tasktracker
			// watch; a dead monitor misses the start until its restart
			// re-scan finds the reducer already running.
			m.missedUps[host] = append(m.missedUps[host], missedUp{job: j.ID, reduce: r.ID})
			return
		}
		m.sendReducerUp(j.ID, r.ID, host)
	})
	jd, _ := sink.(JobDoneSink)
	cluster.OnJobDone(func(j *hadoop.Job) {
		// Mark completion cluster-side first: anything still in flight for
		// this job is dropped at delivery, and restart re-scans skip its
		// residual spills.
		m.jobDone[j.ID] = true
		for h := range m.missedSpills {
			m.missedSpills[h] = pruneSpills(m.missedSpills[h], j.ID)
		}
		for h := range m.missedUps {
			m.missedUps[h] = pruneUps(m.missedUps[h], j.ID)
		}
		if jd != nil {
			// The jobtracker already knows completion; one mgmt hop tells
			// the collector to drop the job's residual state. (This rides
			// the jobtracker's own management port, not a monitor, so
			// monitor crashes cannot lose it — only management faults can,
			// which the collector's booking TTL backstops.)
			job := j.ID
			m.send(cluster.Hosts()[0], 32, func() { jd.JobDone(job) })
		}
	})
	return m
}

// pruneSpills drops a finished job's entries from a missed-spill list.
func pruneSpills(in []missedSpill, job int) []missedSpill {
	out := in[:0]
	for _, sp := range in {
		if sp.job != job {
			out = append(out, sp)
		}
	}
	return out
}

// pruneUps drops a finished job's entries from a missed-reducer-up list.
func pruneUps(in []missedUp, job int) []missedUp {
	out := in[:0]
	for _, u := range in {
		if u.job != job {
			out = append(out, u)
		}
	}
	return out
}

// sendReducerUp delivers one reducer-up detection to the collector.
func (m *Middleware) sendReducerUp(job, reduce int, host topology.NodeID) {
	up := ReducerUp{Job: job, Reduce: reduce, Host: host, At: m.eng.Now()}
	m.send(host, 64, func() {
		if m.jobDone[job] {
			m.InFlightDropped++
			if m.fl != nil {
				ev := flight.Ev(flight.IntentDropped, flight.PlaneMonitor)
				ev.Job, ev.Reduce, ev.Src = job, reduce, host
				ev.Disposition = flight.DispJobDone
				m.fl.Record(ev)
			}
			return
		}
		m.sink.ReducerUp(up)
	})
}

// send delivers a control message to the collector over the configured
// management path (explicit network model or fixed latency).
func (m *Middleware) send(from topology.NodeID, bytes float64, deliver func()) {
	m.BytesOnMgmt += bytes
	if m.cfg.Mgmt != nil {
		m.cfg.Mgmt.Send(from, bytes, deliver)
		return
	}
	m.eng.After(m.cfg.MgmtLatency, deliver)
}

// onSpill models the full prediction pipeline for one finished map:
// FS notification → index decode → predict → send.
func (m *Middleware) onSpill(cluster *hadoop.Cluster, j *hadoop.Job, task *hadoop.MapTask, partitions []float64) {
	host := cluster.HostOf(task.Tracker)
	finished := m.eng.Now()

	if m.down[host] {
		// The spill file hit the disk, but nobody is watching the
		// directory: the notification is lost until a restart re-scan.
		m.recordSpill(host, j.ID, task.ID, flight.DispMissed)
		m.MissedSpills++
		m.missedSpills[host] = append(m.missedSpills[host], missedSpill{
			job: j.ID, mapID: task.ID, partitions: partitions, finished: finished,
		})
		return
	}
	if m.crashRNG != nil && m.mfaults.CrashProb > 0 && m.crashRNG.Float64() < m.mfaults.CrashProb {
		// The monitor dies right as the notification fires; the spill joins
		// the backlog its successor will recover, and a supervisor restarts
		// the process after the configured downtime.
		m.crash(host)
		m.recordSpill(host, j.ID, task.ID, flight.DispCrash)
		m.MissedSpills++
		m.missedSpills[host] = append(m.missedSpills[host], missedSpill{
			job: j.ID, mapID: task.ID, partitions: partitions, finished: finished,
		})
		return
	}
	m.recordSpill(host, j.ID, task.ID, flight.DispOK)

	delay := m.cfg.FSNotifyDelay +
		m.cfg.DecodeBase +
		sim.Duration(float64(m.cfg.DecodePerPartition)*float64(len(partitions)))
	m.emitIntent(host, j.ID, task.ID, partitions, finished, delay, false)
}

// emitIntent runs the decode→predict→send tail of the pipeline after delay.
// Late intents are the ones recovered by a restart re-scan.
func (m *Middleware) emitIntent(host topology.NodeID, job, mapID int, partitions []float64, finished sim.Time, delay sim.Duration, late bool) {
	m.spills[host]++

	// The Hadoop runtime wrote the spill and its index; encode the real
	// bytes the monitor will read.
	encoded := BuildIndex(partitions).Encode()

	m.eng.After(delay, func() {
		idx, err := DecodeIndex(encoded)
		if err != nil {
			// A real deployment would log and skip; in simulation this
			// is a programming error.
			panic(fmt.Sprintf("instrument: decode failed: %v", err))
		}
		pred := make([]float64, len(idx.Segments))
		for r, seg := range idx.Segments {
			pred[r] = float64(seg.PartLength) * m.cfg.PredictOverheadFactor
		}
		if m.predErr != nil {
			// Seeded multiplicative noise: each positive prediction scaled
			// by a uniform factor in [1-f, 1+f), clamped at zero.
			f := m.cfg.PredictionErrorFactor
			for r := range pred {
				if pred[r] <= 0 {
					continue
				}
				pred[r] *= 1 + m.predErr.Range(-f, f)
				if pred[r] < 0 {
					pred[r] = 0
				}
			}
		}
		intent := Intent{
			Job:                job,
			Map:                mapID,
			Attempt:            spillAttempt,
			SrcHost:            host,
			PredictedWireBytes: pred,
			MapFinishedAt:      finished,
			Late:               late,
		}
		m.IntentsSent++
		if late {
			m.LateIntents++
		}
		if m.fl != nil {
			ev := flight.Ev(flight.IndexDecoded, flight.PlaneMonitor)
			ev.Job, ev.Map, ev.Attempt, ev.Src = job, mapID, spillAttempt, host
			ev.Count = len(idx.Segments)
			m.fl.Record(ev)
			var total float64
			for _, p := range pred {
				total += p
			}
			ev = flight.Ev(flight.IntentEnqueued, flight.PlaneMonitor)
			ev.Job, ev.Map, ev.Attempt, ev.Src = job, mapID, spillAttempt, host
			ev.Count = len(pred)
			ev.Bytes = total
			if late {
				ev.Disposition = flight.DispLate
			}
			m.fl.Record(ev)
		}
		m.send(host, float64(32+8*len(pred)), func() {
			if m.jobDone[job] {
				m.InFlightDropped++
				if m.fl != nil {
					ev := flight.Ev(flight.IntentDropped, flight.PlaneMonitor)
					ev.Job, ev.Map, ev.Attempt, ev.Src = job, mapID, spillAttempt, host
					ev.Disposition = flight.DispJobDone
					m.fl.Record(ev)
				}
				return
			}
			intent.EmittedAt = m.eng.Now()
			m.sink.ShuffleIntent(intent)
		})
	})
}

// recordSpill emits the spill-detected flight event; a no-op when the
// recorder is disabled.
func (m *Middleware) recordSpill(host topology.NodeID, job, mapID int, disp string) {
	if m.fl == nil {
		return
	}
	ev := flight.Ev(flight.SpillDetected, flight.PlaneMonitor)
	ev.Job, ev.Map, ev.Attempt, ev.Src = job, mapID, spillAttempt, host
	ev.Disposition = disp
	m.fl.Record(ev)
}

// crash marks a host's monitor dead and, when monitor faults are configured
// with a downtime, schedules its supervised restart.
func (m *Middleware) crash(host topology.NodeID) {
	if m.down[host] {
		return
	}
	m.down[host] = true
	m.MonitorCrashes++
	if m.mfaults.Downtime > 0 {
		h := host
		m.eng.AfterDaemon(m.mfaults.Downtime, func() { m.RestartMonitor(h) })
	}
}

// CrashMonitor kills one host's monitor process immediately (scripted fault
// injection). While down, spill notifications and reducer starts on that host
// are missed; if monitor faults are configured with a nonzero Downtime the
// supervisor restarts it automatically, otherwise call RestartMonitor.
func (m *Middleware) CrashMonitor(host topology.NodeID) { m.crash(host) }

// RestartMonitor brings a crashed monitor back up. The fresh process
// re-scans the spill directory and re-emits every backlogged prediction as a
// late, batched intent (decode times accumulate — one process works through
// the backlog sequentially), and re-detects reducers that started while it
// was down. Spills belonging to already-finished jobs were cleaned up with
// the job and are skipped.
func (m *Middleware) RestartMonitor(host topology.NodeID) {
	if !m.down[host] {
		return
	}
	m.down[host] = false

	backlog := m.missedSpills[host]
	m.missedSpills[host] = nil
	var delay sim.Duration
	for _, sp := range backlog {
		if m.jobDone[sp.job] {
			continue
		}
		delay += m.cfg.DecodeBase +
			sim.Duration(float64(m.cfg.DecodePerPartition)*float64(len(sp.partitions)))
		m.emitIntent(host, sp.job, sp.mapID, sp.partitions, sp.finished, delay, true)
	}

	ups := m.missedUps[host]
	m.missedUps[host] = nil
	for _, u := range ups {
		if m.jobDone[u.job] {
			continue
		}
		m.sendReducerUp(u.job, u.reduce, host)
	}
}

// OverheadReport summarizes the §V-C instrumentation cost model.
type OverheadReport struct {
	// MeanCPUFraction is the average per-server CPU fraction consumed
	// (constant monitoring + per-spill spikes).
	MeanCPUFraction float64
	// MaxCPUFraction is the worst server.
	MaxCPUFraction float64
	// Spills is the total number of index analyses performed.
	Spills int
	// MgmtBytes is control traffic placed on the management network.
	MgmtBytes float64
}

// Overhead computes the report over the window since Attach. It returns a
// zero report if no time has elapsed.
func (m *Middleware) Overhead() OverheadReport {
	elapsed := float64(m.eng.Now().Sub(m.attachedAt))
	rep := OverheadReport{MgmtBytes: m.BytesOnMgmt}
	if elapsed <= 0 {
		return rep
	}
	var sum, max float64
	for _, h := range m.hosts {
		cpu := m.cfg.DCCPUFraction + float64(m.spills[h])*m.cfg.SpikeCPUSec/elapsed
		sum += cpu
		if cpu > max {
			max = cpu
		}
		rep.Spills += m.spills[h]
	}
	rep.MeanCPUFraction = sum / float64(len(m.hosts))
	rep.MaxCPUFraction = max
	return rep
}
