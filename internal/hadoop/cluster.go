package hadoop

import (
	"fmt"

	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// PathResolver chooses a network path for a shuffle flow. The ECMP baseline,
// the OpenFlow fabric (consulted by Pythia-installed rules) and the
// Hedera-like baseline all implement this.
type PathResolver interface {
	ResolveShuffle(t netsim.FiveTuple) (topology.Path, error)
}

// OutputSink persists reducer output; hdfs.FileSystem implements it. done
// must be invoked exactly once when the data is durable.
type OutputSink interface {
	WriteOutput(client topology.NodeID, name string, bytes float64, done func())
}

// InputSource provides map-input block locations; hdfs.FileSystem implements
// it. BlockReplicas returns the hosts holding block idx of the named file,
// and ReadBlock streams that block to a non-local reader.
type InputSource interface {
	BlockReplicas(name string, idx int) ([]topology.NodeID, bool)
	ReadBlock(client topology.NodeID, name string, idx int, done func()) error
}

// ShufflePort is the well-known tasktracker HTTP port that sources shuffle
// data in Hadoop 1.x (the paper post-processed NetFlow traces filtering on
// it). The data flows mapper-server → reducer-server; the reducer side's
// ephemeral port is the unknowable one.
const ShufflePort = 50060

// Config shapes a simulated Hadoop cluster. Zero values take defaults via
// Defaults.
type Config struct {
	// MapSlots and ReduceSlots are per tasktracker.
	MapSlots    int
	ReduceSlots int
	// SlowstartFraction of maps must finish before reducers launch
	// (mapred.reduce.slowstart.completed.maps; Hadoop default 0.05).
	SlowstartFraction float64
	// ParallelCopies bounds each reducer's concurrent fetches
	// (mapred.reduce.parallel.copies; Hadoop default 5).
	ParallelCopies int
	// HeartbeatInterval is the tasktracker heartbeat period; out-of-band
	// heartbeats fire on task completion as in Hadoop 1.1.x.
	HeartbeatInterval sim.Duration
	// EventPollInterval is how often running reducers learn of newly
	// completed maps (TaskCompletionEvents piggyback on heartbeats).
	// Together with fetch queueing this produces the multi-second gap
	// between map finish and fetch start that gives Pythia its lead.
	EventPollInterval sim.Duration
	// FetchSetupDelay models per-fetch HTTP connection setup.
	FetchSetupDelay sim.Duration
	// FetchRetryDelay is the backoff before retrying a fetch that could
	// not be routed (e.g. during a network partition); Hadoop retries
	// failed copies rather than failing the reducer.
	FetchRetryDelay sim.Duration
	// WireOverheadFactor scales payload bytes to on-the-wire bytes
	// (TCP/IP/Ethernet headers ≈ 4.5% at 1448-byte MSS).
	WireOverheadFactor float64
	// Speculative enables speculative map execution
	// (mapred.map.tasks.speculative.execution): when slots idle and a
	// running map lags well beyond the typical duration, a second attempt
	// launches on another tracker; the first finisher wins. The losing
	// attempt may still spill before it is killed, which is how duplicate
	// shuffle-intent predictions reach Pythia.
	Speculative bool
	// SpeculativeLagFactor: a map is a straggler candidate once its
	// elapsed time exceeds this multiple of the median completed-map
	// duration (default 1.5).
	SpeculativeLagFactor float64
}

// Defaults fills unset fields with Hadoop-1.1-like values.
func (c Config) Defaults() Config {
	if c.MapSlots == 0 {
		c.MapSlots = 2
	}
	if c.ReduceSlots == 0 {
		c.ReduceSlots = 2
	}
	if c.SlowstartFraction == 0 {
		c.SlowstartFraction = 0.05
	}
	if c.ParallelCopies == 0 {
		c.ParallelCopies = 5
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 3 * sim.Second
	}
	if c.EventPollInterval == 0 {
		c.EventPollInterval = 3 * sim.Second
	}
	if c.FetchSetupDelay == 0 {
		c.FetchSetupDelay = 50 * sim.Millisecond
	}
	if c.FetchRetryDelay == 0 {
		c.FetchRetryDelay = 5 * sim.Second
	}
	if c.SpeculativeLagFactor == 0 {
		c.SpeculativeLagFactor = 1.5
	}
	if c.WireOverheadFactor == 0 {
		c.WireOverheadFactor = 1.045
	}
	return c
}

// mapAttempt is one in-flight map attempt's completion event.
type mapAttempt struct {
	ev *sim.Event
	tr *taskTracker
	at sim.Time
	id int // 1-based attempt number
}

// Spill describes one map attempt's on-disk output at the instant it lands.
// Unlike MapTask.Tracker — which always points at the winning attempt — it
// names the attempt and tracker that actually produced this spill, so
// instrumentation can attribute a losing speculative attempt's output to the
// server it really lives on.
type Spill struct {
	// Attempt is the 1-based attempt number that spilled.
	Attempt int
	// Tracker is the tasktracker index that ran the spilling attempt.
	Tracker int
	// Partitions is the per-reducer payload byte vector of the spill.
	Partitions []float64
}

// taskTracker is the per-server agent controlling local task slots.
type taskTracker struct {
	index    int
	host     topology.NodeID
	freeMap  int
	freeRed  int
	nextPort uint16
}

// Cluster is the simulated Hadoop deployment: a jobtracker plus one
// tasktracker per host.
type Cluster struct {
	eng      *sim.Engine
	net      *netsim.Network
	resolver PathResolver
	cfg      Config

	trackers  []*taskTracker
	jobs      []*Job
	nextJob   int
	hbRunning bool

	// Speculation metrics.
	SpeculativeLaunched int
	SpeculativeWins     int
	SpeculativeKilled   int

	// sink receives reducer output write-backs (nil: outputs are dropped,
	// as when jobs chain through in-memory stores).
	sink OutputSink
	// input provides map-input block locations for locality-aware
	// scheduling (nil: inputs are assumed local, the paper's setup).
	input InputSource

	// attempts tracks in-flight map attempt completion events per
	// (job, map), so losers can be killed when a winner finishes.
	attempts map[[2]int][]*mapAttempt

	// listeners (instrumentation middleware, the facade, tests)
	onMapSpilled      []func(*Job, *MapTask, Spill)
	onMapFinished     []func(*Job, *MapTask, []float64)
	onReduceScheduled []func(*Job, *ReduceTask)
	onJobDone         []func(*Job)
}

// NewCluster builds a cluster whose tasktrackers run on the given hosts.
func NewCluster(eng *sim.Engine, net *netsim.Network, hosts []topology.NodeID, resolver PathResolver, cfg Config) *Cluster {
	if len(hosts) == 0 {
		panic("hadoop: cluster needs at least one host")
	}
	if resolver == nil {
		panic("hadoop: nil path resolver")
	}
	cfg = cfg.Defaults()
	c := &Cluster{eng: eng, net: net, resolver: resolver, cfg: cfg,
		attempts: make(map[[2]int][]*mapAttempt)}
	for i, h := range hosts {
		c.trackers = append(c.trackers, &taskTracker{
			index:    i,
			host:     h,
			freeMap:  cfg.MapSlots,
			freeRed:  cfg.ReduceSlots,
			nextPort: 20000,
		})
	}
	return c
}

// Config returns the effective (default-filled) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Hosts returns the tasktracker hosts in index order.
func (c *Cluster) Hosts() []topology.NodeID {
	hs := make([]topology.NodeID, len(c.trackers))
	for i, t := range c.trackers {
		hs[i] = t.host
	}
	return hs
}

// HostOf maps a tracker index to its topology node.
func (c *Cluster) HostOf(tracker int) topology.NodeID { return c.trackers[tracker].host }

// OnMapSpilled registers a listener for spill events, carrying the attempt
// identity (the dedup key Pythia's collector relies on) and the tracker the
// spill actually landed on. Spill listeners fire before OnMapFinished
// listeners for the same event.
func (c *Cluster) OnMapSpilled(fn func(*Job, *MapTask, Spill)) {
	c.onMapSpilled = append(c.onMapSpilled, fn)
}

// OnMapFinished registers a listener for map completion; partitions is the
// per-reducer payload byte vector of the spilled output (what the index
// file records).
func (c *Cluster) OnMapFinished(fn func(*Job, *MapTask, []float64)) {
	c.onMapFinished = append(c.onMapFinished, fn)
}

// OnReduceScheduled registers a listener for reducer placement (Pythia's
// destination back-fill trigger).
func (c *Cluster) OnReduceScheduled(fn func(*Job, *ReduceTask)) {
	c.onReduceScheduled = append(c.onReduceScheduled, fn)
}

// OnJobDone registers a completion listener.
func (c *Cluster) OnJobDone(fn func(*Job)) { c.onJobDone = append(c.onJobDone, fn) }

// SetOutputSink attaches the distributed filesystem reducers write back to.
// Jobs whose specs set ReduceOutputRatio > 0 then include the write-back
// phase in their completion time.
func (c *Cluster) SetOutputSink(sink OutputSink) { c.sink = sink }

// SetInputSource attaches the filesystem map inputs are read from. Jobs
// whose specs name an InputFile then get data-local scheduling, with
// non-local maps streaming their block across the fabric first.
func (c *Cluster) SetInputSource(src InputSource) { c.input = src }

// Submit enqueues a job for execution and starts the heartbeat machinery.
// It returns the runtime job handle.
func (c *Cluster) Submit(spec *JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	j := &Job{
		ID:        c.nextJob,
		Spec:      spec,
		Submitted: c.eng.Now(),
	}
	c.nextJob++
	for m := 0; m < spec.NumMaps; m++ {
		j.Maps = append(j.Maps, &MapTask{ID: m, Tracker: -1})
		j.pendingMaps = append(j.pendingMaps, m)
	}
	for r := 0; r < spec.NumReduces; r++ {
		j.Reduces = append(j.Reduces, &ReduceTask{ID: r, Tracker: -1, fetched: make(map[int]bool)})
	}
	c.jobs = append(c.jobs, j)
	// First heartbeat round fires immediately on submission, then the
	// trackers settle into their periodic cycle.
	if !c.hbRunning {
		c.hbRunning = true
		c.eng.After(0, c.heartbeatAll)
	}
	return j, nil
}

// heartbeatAll runs a scheduling round over all trackers (deterministic
// index order) and re-arms the periodic heartbeat while work remains.
func (c *Cluster) heartbeatAll() {
	c.schedule()
	if c.pendingWork() {
		c.eng.After(c.cfg.HeartbeatInterval, c.heartbeatAll)
	} else {
		c.hbRunning = false
	}
}

func (c *Cluster) pendingWork() bool {
	for _, j := range c.jobs {
		if !j.Done {
			return true
		}
	}
	return false
}

// schedule assigns pending tasks to free slots, FIFO over jobs, spreading
// tasks round-robin over trackers.
func (c *Cluster) schedule() {
	for _, j := range c.jobs {
		if j.Done {
			continue
		}
		// Maps first: each free slot pulls a task, preferring one whose
		// input block lives on the tracker's host (Hadoop's data-local
		// pick on heartbeat).
		for len(j.pendingMaps) > 0 {
			tr := c.freestMapTracker()
			if tr == nil {
				break
			}
			idx, local := c.pickMap(j, tr)
			mapID := j.pendingMaps[idx]
			j.pendingMaps = append(j.pendingMaps[:idx], j.pendingMaps[idx+1:]...)
			c.startMap(j, j.Maps[mapID], tr, local)
		}
		if c.cfg.Speculative {
			c.maybeSpeculate(j)
		}
		// Reducers after slow-start.
		threshold := int(c.cfg.SlowstartFraction * float64(j.Spec.NumMaps))
		if threshold < 1 {
			threshold = 1
		}
		if j.mapsCompleted >= threshold {
			for j.nextReduce < j.Spec.NumReduces {
				tr := c.freestReduceTracker()
				if tr == nil {
					break
				}
				c.startReduce(j, j.Reduces[j.nextReduce], tr)
				j.nextReduce++
			}
		}
	}
}

// freestMapTracker picks the tracker with the most free map slots,
// tie-break by index — a simple deterministic spread.
func (c *Cluster) freestMapTracker() *taskTracker {
	var best *taskTracker
	for _, t := range c.trackers {
		if t.freeMap <= 0 {
			continue
		}
		if best == nil || t.freeMap > best.freeMap {
			best = t
		}
	}
	return best
}

func (c *Cluster) freestReduceTracker() *taskTracker {
	var best *taskTracker
	for _, t := range c.trackers {
		if t.freeRed <= 0 {
			continue
		}
		if best == nil || t.freeRed > best.freeRed {
			best = t
		}
	}
	return best
}

// pickMap chooses which pending map a tracker should run: the first one
// with an input replica on this host, else FIFO head. It returns the index
// into j.pendingMaps and whether the choice is data-local. Without an input
// source (or input file) everything is treated as local, matching the
// paper's setup.
func (c *Cluster) pickMap(j *Job, tr *taskTracker) (idx int, local bool) {
	if c.input == nil || j.Spec.InputFile == "" {
		return 0, true
	}
	for i, mapID := range j.pendingMaps {
		replicas, ok := c.input.BlockReplicas(j.Spec.InputFile, mapID)
		if !ok {
			continue
		}
		for _, r := range replicas {
			if r == tr.host {
				return i, true
			}
		}
	}
	return 0, false
}

func (c *Cluster) startMap(j *Job, m *MapTask, tr *taskTracker, local bool) {
	m.State = Running
	m.Tracker = tr.index
	m.Scheduled = c.eng.Now()
	m.Attempts = 1
	tr.freeMap--
	compute := func() {
		d := sim.Duration(j.Spec.MapDurations[m.ID])
		ev := c.eng.After(d, func() { c.finishMap(j, m, tr, 1) })
		c.attempts[[2]int{j.ID, m.ID}] = append(c.attempts[[2]int{j.ID, m.ID}],
			&mapAttempt{ev: ev, tr: tr, at: c.eng.Now().Add(d), id: 1})
	}
	if local || c.input == nil || j.Spec.InputFile == "" {
		if c.input != nil && j.Spec.InputFile != "" {
			j.LocalMaps++
		}
		compute()
		return
	}
	// Non-local: stream the input block from a replica before computing.
	j.RemoteMaps++
	if err := c.input.ReadBlock(tr.host, j.Spec.InputFile, m.ID, compute); err != nil {
		// Block index out of range (spec larger than file): degrade to
		// local, as with generated inputs.
		compute()
	}
}

// maybeSpeculate launches backup attempts for straggling maps when slots
// idle, on a tracker other than the original's (otherwise the backup would
// share the straggler's cause).
func (c *Cluster) maybeSpeculate(j *Job) {
	median := j.medianCompletedMapSec()
	if median <= 0 {
		return
	}
	threshold := sim.Duration(c.cfg.SpeculativeLagFactor * median)
	now := c.eng.Now()
	for _, m := range j.Maps {
		if m.State != Running || m.speculating {
			continue
		}
		if now.Sub(m.Scheduled) <= threshold {
			continue
		}
		var backup *taskTracker
		for _, t := range c.trackers {
			if t.index == m.Tracker || t.freeMap <= 0 {
				continue
			}
			if backup == nil || t.freeMap > backup.freeMap {
				backup = t
			}
		}
		if backup == nil {
			return // no foreign slot free; try next heartbeat
		}
		m.speculating = true
		m.Attempts++
		attempt := m.Attempts
		backup.freeMap--
		c.SpeculativeLaunched++
		// A healthy rerun takes about the median duration.
		ev := c.eng.After(sim.Duration(median), func() { c.finishMap(j, m, backup, attempt) })
		c.attempts[[2]int{j.ID, m.ID}] = append(c.attempts[[2]int{j.ID, m.ID}],
			&mapAttempt{ev: ev, tr: backup, at: now.Add(sim.Duration(median)), id: attempt})
	}
}

func (c *Cluster) finishMap(j *Job, m *MapTask, tr *taskTracker, attempt int) {
	if m.State == Completed {
		// The losing attempt of a speculated map: it still spilled its
		// output before the kill reached it, so the spill listeners
		// (and therefore Pythia's instrumentation) see a duplicate.
		tr.freeMap++
		partitions := append([]float64(nil), j.Spec.MapOutputs[m.ID]...)
		for _, fn := range c.onMapSpilled {
			fn(j, m, Spill{Attempt: attempt, Tracker: tr.index, Partitions: partitions})
		}
		for _, fn := range c.onMapFinished {
			fn(j, m, partitions)
		}
		c.schedule()
		return
	}
	if m.speculating {
		m.speculating = false
		if tr.index != m.Tracker {
			c.SpeculativeWins++
		}
	}
	// Kill losing attempts whose completion lies beyond the kill latency
	// (one heartbeat): they free their slot and never spill. Losers that
	// finish sooner escape the kill and produce a duplicate spill.
	key := [2]int{j.ID, m.ID}
	killBy := c.eng.Now().Add(c.cfg.HeartbeatInterval)
	for _, at := range c.attempts[key] {
		if at.ev.Cancelled() || at.at <= c.eng.Now() || at.tr == tr {
			continue
		}
		if at.at > killBy {
			c.eng.Cancel(at.ev)
			at.tr.freeMap++
			c.SpeculativeKilled++
		}
	}
	delete(c.attempts, key)
	m.State = Completed
	m.Tracker = tr.index // winner sources the shuffle fetches
	m.Finished = c.eng.Now()
	tr.freeMap++
	j.mapsCompleted++
	j.completedMapSec = append(j.completedMapSec, float64(c.eng.Now().Sub(m.Scheduled)))
	if j.mapsCompleted == j.Spec.NumMaps {
		j.MapPhaseEnd = c.eng.Now()
	}
	// Spill: the intermediate output (and its index) now exists on disk.
	// This is the instant Pythia's filesystem notification fires.
	partitions := append([]float64(nil), j.Spec.MapOutputs[m.ID]...)
	for _, fn := range c.onMapSpilled {
		fn(j, m, Spill{Attempt: attempt, Tracker: tr.index, Partitions: partitions})
	}
	for _, fn := range c.onMapFinished {
		fn(j, m, partitions)
	}
	// Out-of-band heartbeat: freed slot is reusable immediately.
	c.schedule()
}

func (c *Cluster) startReduce(j *Job, r *ReduceTask, tr *taskTracker) {
	r.State = Shuffling
	r.Tracker = tr.index
	r.Scheduled = c.eng.Now()
	tr.freeRed--
	for _, fn := range c.onReduceScheduled {
		fn(j, r)
	}
	c.pollCompletions(j, r)
}

// pollCompletions adds newly learned completed maps to the reducer's fetch
// queue and re-arms the poll; it embodies the TaskCompletionEvent polling
// delay.
func (c *Cluster) pollCompletions(j *Job, r *ReduceTask) {
	if r.State != Shuffling {
		return
	}
	for m := 0; m < j.Spec.NumMaps; m++ {
		if j.Maps[m].State == Completed && !r.fetched[m] {
			r.fetched[m] = true // claimed: queued or in flight
			r.queue = append(r.queue, m)
		}
	}
	c.pumpFetches(j, r)
	if r.fetchedDone < j.Spec.NumMaps {
		c.eng.After(c.cfg.EventPollInterval, func() { c.pollCompletions(j, r) })
	}
}

// pumpFetches starts fetches up to the parallel-copy bound.
func (c *Cluster) pumpFetches(j *Job, r *ReduceTask) {
	for r.active < c.cfg.ParallelCopies && len(r.queue) > 0 {
		m := r.queue[0]
		r.queue = r.queue[1:]
		c.startFetch(j, r, m)
	}
}

func (c *Cluster) startFetch(j *Job, r *ReduceTask, m int) {
	payload := j.Spec.MapOutputs[m][r.ID]
	if payload == 0 {
		// Nothing to move; complete immediately without a flow.
		r.fetchedDone++
		c.maybeFinishShuffle(j, r)
		return
	}
	r.active++
	srcTracker := c.trackers[j.Maps[m].Tracker]
	dstTracker := c.trackers[r.Tracker]
	c.eng.After(c.cfg.FetchSetupDelay, func() {
		port := dstTracker.nextPort
		dstTracker.nextPort++
		if dstTracker.nextPort == 0 {
			dstTracker.nextPort = 20000
		}
		tuple := netsim.FiveTuple{
			SrcHost:  srcTracker.host,
			DstHost:  dstTracker.host,
			SrcPort:  ShufflePort,
			DstPort:  port,
			Protocol: 6,
		}
		path, err := c.resolver.ResolveShuffle(tuple)
		if err != nil {
			// Unroutable right now (e.g. partition). Back off and retry,
			// as Hadoop's copier threads do on fetch failures.
			r.active--
			c.eng.After(c.cfg.FetchRetryDelay, func() {
				r.queue = append(r.queue, m)
				c.pumpFetches(j, r)
			})
			return
		}
		wire := payload * c.cfg.WireOverheadFactor
		c.net.StartFlow(tuple, netsim.Shuffle, path, wire*8, j.ID, m, r.ID, func(*netsim.Flow) {
			r.active--
			r.fetchedDone++
			r.FetchedBytes += payload
			c.pumpFetches(j, r)
			c.maybeFinishShuffle(j, r)
		})
	})
}

func (c *Cluster) maybeFinishShuffle(j *Job, r *ReduceTask) {
	if r.State != Shuffling || r.fetchedDone < j.Spec.NumMaps {
		return
	}
	r.State = Reducing
	r.ShuffleDone = c.eng.Now()
	compute := j.Spec.ReduceBaseSec + j.Spec.ReduceSecPerMB*(r.FetchedBytes/1e6)
	c.eng.After(sim.Duration(compute), func() {
		out := j.Spec.ReduceOutputRatio * r.FetchedBytes
		if c.sink == nil || out <= 0 {
			c.finishReduce(j, r)
			return
		}
		// Write-back: the reduce task holds its slot until the output is
		// durable in the distributed filesystem.
		name := fmt.Sprintf("/job-%d/part-%05d", j.ID, r.ID)
		c.sink.WriteOutput(c.trackers[r.Tracker].host, name, out, func() {
			c.finishReduce(j, r)
		})
	})
}

func (c *Cluster) finishReduce(j *Job, r *ReduceTask) {
	r.State = Completed
	r.Finished = c.eng.Now()
	c.trackers[r.Tracker].freeRed++
	j.reducesCompleted++
	if r.ShuffleDone > j.ShuffleEnd {
		j.ShuffleEnd = r.ShuffleDone
	}
	if j.reducesCompleted == j.Spec.NumReduces {
		j.Done = true
		j.Finished = c.eng.Now()
		for _, fn := range c.onJobDone {
			fn(j)
		}
	}
	c.schedule()
}
