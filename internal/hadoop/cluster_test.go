package hadoop

import (
	"math"
	"sort"
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// rig builds a 2-rack/10-host testbed cluster with an ECMP resolver.
func rig(cfg Config) (*sim.Engine, *netsim.Network, *Cluster) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	res := ecmp.New(g, 2, 1)
	cl := NewCluster(eng, net, hosts, res, cfg)
	return eng, net, cl
}

// uniformSpec builds a job with identical maps and uniform partitions.
func uniformSpec(maps, reduces int, mapSec, bytesPerPartition float64) *JobSpec {
	durations := make([]float64, maps)
	outputs := make([][]float64, maps)
	for m := range durations {
		durations[m] = mapSec
		row := make([]float64, reduces)
		for r := range row {
			row[r] = bytesPerPartition
		}
		outputs[m] = row
	}
	return &JobSpec{
		Name: "uniform", NumMaps: maps, NumReduces: reduces,
		MapDurations: durations, MapOutputs: outputs,
		ReduceSecPerMB: 0.001, ReduceBaseSec: 0.1,
	}
}

func TestSpecValidate(t *testing.T) {
	good := uniformSpec(2, 2, 1, 100)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := uniformSpec(2, 2, 1, 100)
	bad.MapDurations = bad.MapDurations[:1]
	if bad.Validate() == nil {
		t.Fatal("short durations accepted")
	}
	bad2 := uniformSpec(2, 2, 1, 100)
	bad2.MapOutputs[1][0] = -5
	if bad2.Validate() == nil {
		t.Fatal("negative partition accepted")
	}
	bad3 := uniformSpec(2, 2, 1, 100)
	bad3.NumMaps = 0
	if bad3.Validate() == nil {
		t.Fatal("zero maps accepted")
	}
	bad4 := uniformSpec(2, 2, 1, 100)
	bad4.MapOutputs[0] = bad4.MapOutputs[0][:1]
	if bad4.Validate() == nil {
		t.Fatal("ragged outputs accepted")
	}
	bad5 := uniformSpec(2, 2, 1, 100)
	bad5.MapDurations[0] = -1
	if bad5.Validate() == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestSpecAggregates(t *testing.T) {
	s := uniformSpec(3, 2, 1, 100)
	if got := s.TotalShuffleBytes(); got != 600 {
		t.Fatalf("TotalShuffleBytes = %v, want 600", got)
	}
	rb := s.ReducerBytes()
	if len(rb) != 2 || rb[0] != 300 || rb[1] != 300 {
		t.Fatalf("ReducerBytes = %v", rb)
	}
}

func TestJobCompletes(t *testing.T) {
	eng, _, cl := rig(Config{})
	spec := uniformSpec(6, 2, 2, 10e6)
	j, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !j.Done {
		t.Fatal("job did not complete")
	}
	if j.Finished <= j.Submitted {
		t.Fatal("bad completion time")
	}
	if j.MapPhaseEnd == 0 || j.ShuffleEnd == 0 {
		t.Fatal("phase timestamps not recorded")
	}
	if !(j.MapPhaseEnd <= j.ShuffleEnd && j.ShuffleEnd <= j.Finished) {
		t.Fatalf("phase ordering broken: maps=%v shuffle=%v done=%v",
			j.MapPhaseEnd, j.ShuffleEnd, j.Finished)
	}
}

func TestAllTasksComplete(t *testing.T) {
	eng, _, cl := rig(Config{})
	spec := uniformSpec(10, 4, 1, 5e6)
	j, _ := cl.Submit(spec)
	eng.Run()
	for _, m := range j.Maps {
		if m.State != Completed {
			t.Fatalf("map %d state = %v", m.ID, m.State)
		}
		if m.Tracker < 0 {
			t.Fatalf("map %d never placed", m.ID)
		}
	}
	for _, r := range j.Reduces {
		if r.State != Completed {
			t.Fatalf("reduce %d state = %v", r.ID, r.State)
		}
		if r.fetchedDone != spec.NumMaps {
			t.Fatalf("reduce %d fetched %d of %d", r.ID, r.fetchedDone, spec.NumMaps)
		}
	}
}

func TestReducerFetchesExactVolume(t *testing.T) {
	eng, _, cl := rig(Config{})
	spec := uniformSpec(8, 2, 1, 3e6)
	j, _ := cl.Submit(spec)
	eng.Run()
	for _, r := range j.Reduces {
		want := 8 * 3e6
		if math.Abs(r.FetchedBytes-want) > 1 {
			t.Fatalf("reduce %d fetched %v bytes, want %v", r.ID, r.FetchedBytes, want)
		}
	}
}

func TestSkewedReducerSlower(t *testing.T) {
	// Reducer 0 receives 5x reducer 1 (the Fig. 1a skew); its shuffle must
	// finish later on an otherwise idle network.
	eng, _, cl := rig(Config{})
	maps := 6
	durations := make([]float64, maps)
	outputs := make([][]float64, maps)
	for m := range outputs {
		durations[m] = 1
		outputs[m] = []float64{50e6, 10e6}
	}
	spec := &JobSpec{Name: "skew", NumMaps: maps, NumReduces: 2,
		MapDurations: durations, MapOutputs: outputs, ReduceSecPerMB: 0.001}
	j, _ := cl.Submit(spec)
	eng.Run()
	if !(j.Reduces[0].ShuffleDone > j.Reduces[1].ShuffleDone) {
		t.Fatalf("skewed reducer not slower: r0=%v r1=%v",
			j.Reduces[0].ShuffleDone, j.Reduces[1].ShuffleDone)
	}
}

func TestSlowstartDelaysReducers(t *testing.T) {
	eng, _, cl := rig(Config{SlowstartFraction: 0.5})
	spec := uniformSpec(10, 2, 5, 1e6)
	var reduceSched []sim.Time
	var fifthMapDone sim.Time
	cl.OnReduceScheduled(func(j *Job, r *ReduceTask) {
		reduceSched = append(reduceSched, r.Scheduled)
	})
	cl.OnMapFinished(func(j *Job, m *MapTask, parts []float64) {
		if j.mapsCompleted == 5 {
			fifthMapDone = m.Finished
		}
	})
	cl.Submit(spec)
	eng.Run()
	if len(reduceSched) != 2 {
		t.Fatalf("reducers scheduled = %d, want 2", len(reduceSched))
	}
	for _, ts := range reduceSched {
		if ts < fifthMapDone {
			t.Fatalf("reducer scheduled at %v before 50%% maps done (%v)", ts, fifthMapDone)
		}
	}
}

// maxOverlap is the largest number of half-open [start, end) intervals that
// share one instant.
func maxOverlap(spans [][2]sim.Time) int {
	type edge struct {
		t sim.Time
		d int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s[0], 1}, edge{s[1], -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d // an end frees its slot before a start at the same instant
	})
	n, peak := 0, 0
	for _, e := range edges {
		n += e.d
		if n > peak {
			peak = n
		}
	}
	return peak
}

func TestParallelCopiesBound(t *testing.T) {
	eng, net, cl := rig(Config{ParallelCopies: 2})
	cl.Submit(uniformSpec(20, 1, 0.5, 20e6))
	eng.Run()
	// One reducer: every flow is one of its fetches.
	var spans [][2]sim.Time
	for _, f := range net.History() {
		spans = append(spans, [2]sim.Time{f.Started(), f.Finished()})
	}
	maxInFlight := maxOverlap(spans)
	if maxInFlight > 2 {
		t.Fatalf("max concurrent fetches = %d, want <= 2", maxInFlight)
	}
	if maxInFlight < 2 {
		t.Fatalf("parallelism never reached the bound: %d", maxInFlight)
	}
}

func TestFetchGapGivesPredictionLead(t *testing.T) {
	// The time between a map finishing (prediction instant) and its
	// output being fetched must be positive — it is Pythia's lead.
	eng, net, cl := rig(Config{})
	j, _ := cl.Submit(uniformSpec(12, 3, 2, 5e6))
	eng.Run()
	minGap := math.Inf(1)
	for _, f := range net.History() {
		if gap := float64(f.Started().Sub(j.Maps[f.Map].Finished)); gap < minGap {
			minGap = gap
		}
	}
	if minGap <= 0 {
		t.Fatalf("fetch preceded map completion: gap=%v", minGap)
	}
}

func TestEmptyPartitionsSkipFlows(t *testing.T) {
	eng, net, cl := rig(Config{})
	maps := 4
	durations := []float64{1, 1, 1, 1}
	outputs := [][]float64{{1e6, 0}, {1e6, 0}, {1e6, 0}, {1e6, 0}}
	spec := &JobSpec{Name: "empty", NumMaps: maps, NumReduces: 2,
		MapDurations: durations, MapOutputs: outputs}
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job with empty partitions did not finish")
	}
	// Reducer 1 received nothing: all its fetches were flow-less.
	if j.Reduces[1].FetchedBytes != 0 {
		t.Fatalf("empty reducer fetched %v bytes", j.Reduces[1].FetchedBytes)
	}
	for _, f := range net.History() {
		if f.Reduce == 1 {
			t.Fatal("flow created for empty partition")
		}
	}
}

func TestWireOverheadApplied(t *testing.T) {
	eng, net, cl := rig(Config{WireOverheadFactor: 1.10})
	spec := uniformSpec(1, 1, 1, 100e6)
	// Force remote: with one map and one reduce they may land on the same
	// host; use many maps to guarantee at least one remote flow instead.
	spec = uniformSpec(10, 2, 1, 10e6)
	cl.Submit(spec)
	eng.Run()
	for _, f := range net.History() {
		if len(f.Path.Links) == 0 {
			continue
		}
		// Each remote flow carries payload * 1.10 * 8 bits.
		if math.Abs(f.SizeBits-10e6*1.10*8) > 1 {
			t.Fatalf("flow size = %v bits, want %v", f.SizeBits, 10e6*1.1*8)
		}
	}
}

func TestLocalFetchesUseZeroHopPath(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(1, 1, topology.Gbps)
	net := netsim.New(eng, g)
	res := ecmp.New(g, 2, 1)
	// Single host: every fetch is local.
	cl := NewCluster(eng, net, hosts[:1], res, Config{})
	spec := uniformSpec(4, 2, 1, 1e6)
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("single-host job did not finish")
	}
	for _, f := range net.History() {
		if len(f.Path.Links) != 0 {
			t.Fatal("local fetch crossed the fabric")
		}
	}
	if net.HostTxBits(hosts[0]) != 0 {
		t.Fatal("local fetches counted as network TX")
	}
}

func TestListenersFireInOrder(t *testing.T) {
	eng, _, cl := rig(Config{})
	spec := uniformSpec(4, 2, 1, 1e6)
	var events []string
	cl.OnMapFinished(func(j *Job, m *MapTask, p []float64) { events = append(events, "mf") })
	cl.OnReduceScheduled(func(j *Job, r *ReduceTask) { events = append(events, "rs") })
	cl.OnJobDone(func(j *Job) { events = append(events, "jd") })
	cl.Submit(spec)
	eng.Run()
	counts := map[string]int{}
	for _, e := range events {
		counts[e]++
	}
	if counts["mf"] != 4 || counts["rs"] != 2 || counts["jd"] != 1 {
		t.Fatalf("event counts: %v", counts)
	}
	if events[len(events)-1] != "jd" {
		t.Fatal("job-done not last event")
	}
}

func TestMapFinishedPartitionsAreCopies(t *testing.T) {
	eng, _, cl := rig(Config{})
	spec := uniformSpec(2, 2, 1, 1e6)
	cl.OnMapFinished(func(j *Job, m *MapTask, parts []float64) {
		parts[0] = -999 // mutation must not corrupt the spec
	})
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job not done")
	}
	if spec.MapOutputs[0][0] != 1e6 {
		t.Fatal("listener mutation leaked into the job spec")
	}
}

func TestSubmitValidates(t *testing.T) {
	_, _, cl := rig(Config{})
	bad := uniformSpec(2, 2, 1, 100)
	bad.NumReduces = 0
	if _, err := cl.Submit(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestMultipleJobsSequential(t *testing.T) {
	eng, _, cl := rig(Config{})
	j1, _ := cl.Submit(uniformSpec(4, 2, 1, 1e6))
	j2, _ := cl.Submit(uniformSpec(4, 2, 1, 1e6))
	eng.Run()
	if !j1.Done || !j2.Done {
		t.Fatal("not all jobs finished")
	}
	if j1.ID == j2.ID {
		t.Fatal("duplicate job IDs")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Duration {
		eng, _, cl := rig(Config{})
		j, _ := cl.Submit(uniformSpec(12, 4, 2, 20e6))
		eng.Run()
		return j.Duration()
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.MapSlots != 2 || c.ReduceSlots != 2 || c.ParallelCopies != 5 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.SlowstartFraction != 0.05 {
		t.Fatalf("slowstart default = %v", c.SlowstartFraction)
	}
	if c.WireOverheadFactor != 1.045 {
		t.Fatalf("wire overhead default = %v", c.WireOverheadFactor)
	}
	// Explicit values survive.
	c2 := Config{MapSlots: 7, SlowstartFraction: 0.5}.Defaults()
	if c2.MapSlots != 7 || c2.SlowstartFraction != 0.5 {
		t.Fatalf("explicit values overridden: %+v", c2)
	}
}

func TestConstructorPanics(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(2, 1, topology.Gbps)
	net := netsim.New(eng, g)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty hosts did not panic")
			}
		}()
		NewCluster(eng, net, nil, ecmp.New(g, 2, 1), Config{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil resolver did not panic")
			}
		}()
		NewCluster(eng, net, hosts, nil, Config{})
	}()
}

func TestTaskStateString(t *testing.T) {
	for s, want := range map[TaskState]string{
		Pending: "pending", Running: "running", Shuffling: "shuffling",
		Reducing: "reducing", Completed: "completed",
	} {
		if s.String() != want {
			t.Fatalf("state %d = %q", s, s.String())
		}
	}
	if TaskState(99).String() == "" {
		t.Fatal("unknown state empty")
	}
}

func TestMapSlotsRespected(t *testing.T) {
	// 10 trackers x 1 map slot = at most 10 concurrent maps.
	eng, _, cl := rig(Config{MapSlots: 1})
	j, _ := cl.Submit(uniformSpec(30, 2, 3, 1e6))
	eng.Run()
	var spans [][2]sim.Time
	for _, m := range j.Maps {
		spans = append(spans, [2]sim.Time{m.Scheduled, m.Finished})
	}
	if maxRunning := maxOverlap(spans); maxRunning > 10 {
		t.Fatalf("concurrent maps = %d, want <= 10", maxRunning)
	}
}

func BenchmarkJobExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, _, cl := rig(Config{})
		j, _ := cl.Submit(uniformSpec(40, 10, 2, 10e6))
		eng.Run()
		if !j.Done {
			b.Fatal("job not done")
		}
	}
}
