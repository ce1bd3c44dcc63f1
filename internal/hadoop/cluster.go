package hadoop

import (
	"fmt"

	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// PathResolver chooses a network path for a shuffle flow. The ECMP baseline,
// the OpenFlow fabric (Pythia-installed rules, ECMP on a miss) and the
// Hedera-like baseline all implement it with the same forwarding walk.
type PathResolver interface {
	Resolve(t netsim.FiveTuple) (topology.Path, error)
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
	if c.WireOverheadFactor == 0 {
		c.WireOverheadFactor = 1.045
	}
	return c
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

	// listeners (instrumentation middleware, the facade, tests)
	onMapSpilled      []func(*Job, *MapTask, []float64)
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
	// Out-of-range knobs would otherwise never start a fetch (negative
	// copies) or never launch a reducer (threshold above NumMaps) while
	// the heartbeats keep the engine alive forever. Zero means default.
	if cfg.ParallelCopies < 0 {
		panic(fmt.Sprintf("hadoop: ParallelCopies %d is negative", cfg.ParallelCopies))
	}
	if !(cfg.SlowstartFraction >= 0 && cfg.SlowstartFraction <= 1) {
		panic(fmt.Sprintf("hadoop: SlowstartFraction %v is outside [0, 1]", cfg.SlowstartFraction))
	}
	cfg = cfg.Defaults()
	c := &Cluster{eng: eng, net: net, resolver: resolver, cfg: cfg}
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

// OnMapSpilled registers a listener for spill events. It fires once per
// map, on the map's tracker, with a copy of the per-reducer payload byte
// vector of the spill.
func (c *Cluster) OnMapSpilled(fn func(*Job, *MapTask, []float64)) {
	c.onMapSpilled = append(c.onMapSpilled, fn)
}

// OnReduceScheduled registers a listener for reducer placement (Pythia's
// destination back-fill trigger).
func (c *Cluster) OnReduceScheduled(fn func(*Job, *ReduceTask)) {
	c.onReduceScheduled = append(c.onReduceScheduled, fn)
}

// OnJobDone registers a completion listener.
func (c *Cluster) OnJobDone(fn func(*Job)) { c.onJobDone = append(c.onJobDone, fn) }

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
		// Maps first: each free slot pulls the FIFO head. Map inputs are
		// local (the paper's setup), so there is no locality pick.
		for len(j.pendingMaps) > 0 {
			tr := c.freestMapTracker()
			if tr == nil {
				break
			}
			mapID := j.pendingMaps[0]
			j.pendingMaps = j.pendingMaps[1:]
			c.startMap(j, j.Maps[mapID], tr)
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

func (c *Cluster) startMap(j *Job, m *MapTask, tr *taskTracker) {
	m.State = Running
	m.Tracker = tr.index
	m.Scheduled = c.eng.Now()
	tr.freeMap--
	c.eng.After(sim.Duration(j.Spec.MapDurations[m.ID]), func() { c.finishMap(j, m, tr) })
}

func (c *Cluster) finishMap(j *Job, m *MapTask, tr *taskTracker) {
	m.State = Completed
	m.Finished = c.eng.Now()
	tr.freeMap++
	j.mapsCompleted++
	if j.mapsCompleted == j.Spec.NumMaps {
		j.MapPhaseEnd = c.eng.Now()
	}
	// Spill: the intermediate output (and its index) now exists on disk.
	// This is the instant Pythia's filesystem notification fires.
	partitions := append([]float64(nil), j.Spec.MapOutputs[m.ID]...)
	for _, fn := range c.onMapSpilled {
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
		path, err := c.resolver.Resolve(tuple)
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
		c.net.StartFlow(tuple, path, wire*8, j.ID, m, r.ID, func(*netsim.Flow) {
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
	// The reducer's output is not written back over the fabric: no figure
	// run carries HDFS traffic.
	compute := j.Spec.ReduceBaseSec + j.Spec.ReduceSecPerMB*(r.FetchedBytes/1e6)
	c.eng.After(sim.Duration(compute), func() { c.finishReduce(j, r) })
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
