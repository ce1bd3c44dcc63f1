// Package hadoop is a discrete-event simulator of the Hadoop 1.x MapReduce
// runtime, faithful to the scheduling behaviours Pythia exploits:
//
//   - a jobtracker assigns map/reduce tasks to tasktracker slots on
//     heartbeats (with out-of-band heartbeats on task completion, as in
//     Hadoop 1.1.x);
//   - intermediate map output is "spilled" at map completion time, with
//     per-reducer partition sizes — the artifact Pythia's instrumentation
//     decodes;
//   - reducers are scheduled only after a slow-start fraction of maps has
//     finished (default 5%), so early shuffle-intent predictions have
//     unknown destinations;
//   - each reducer learns of completed maps by polling and fetches from at
//     most ParallelCopies mappers concurrently; the gap between a map's
//     finish and the fetch of its output is the prediction lead time the
//     paper measures (Fig. 5);
//   - the shuffle is a barrier: a reducer starts reducing only after
//     fetching every map's partition, so one slow flow delays the job —
//     the paper's core motivation.
package hadoop

import (
	"fmt"

	"pythia/internal/sim"
)

// TaskState tracks the lifecycle of a map or reduce task.
type TaskState int

const (
	// Pending tasks await a slot.
	Pending TaskState = iota
	// Running tasks occupy a slot.
	Running
	// Shuffling reducers are fetching map output.
	Shuffling
	// Reducing reducers have passed the shuffle barrier.
	Reducing
	// Completed tasks are done.
	Completed
)

func (s TaskState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Shuffling:
		return "shuffling"
	case Reducing:
		return "reducing"
	case Completed:
		return "completed"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// JobSpec describes a MapReduce job's resource shape. Workload generators
// (internal/workload) produce these; the simulator executes them.
type JobSpec struct {
	Name string
	// NumMaps and NumReduces size the task sets.
	NumMaps    int
	NumReduces int
	// MapDurations[m] is map m's compute time in seconds (input read and
	// map function; input is HDFS-local, so no fabric traffic).
	MapDurations []float64
	// MapOutputs[m][r] is the intermediate payload in bytes that map m
	// produces for reducer r — the flow-size matrix that drives the
	// shuffle.
	MapOutputs [][]float64
	// ReduceSecPerMB is reduce-side merge+reduce compute cost per MB
	// fetched; ReduceBaseSec is the fixed per-reducer overhead.
	ReduceSecPerMB float64
	ReduceBaseSec  float64
}

// Validate checks internal consistency.
func (s *JobSpec) Validate() error {
	if s.NumMaps <= 0 || s.NumReduces <= 0 {
		return fmt.Errorf("hadoop: job %q needs positive task counts", s.Name)
	}
	if len(s.MapDurations) != s.NumMaps {
		return fmt.Errorf("hadoop: job %q has %d map durations for %d maps", s.Name, len(s.MapDurations), s.NumMaps)
	}
	if len(s.MapOutputs) != s.NumMaps {
		return fmt.Errorf("hadoop: job %q has %d output rows for %d maps", s.Name, len(s.MapOutputs), s.NumMaps)
	}
	for m, row := range s.MapOutputs {
		if len(row) != s.NumReduces {
			return fmt.Errorf("hadoop: job %q map %d has %d partitions for %d reducers", s.Name, m, len(row), s.NumReduces)
		}
		for r, b := range row {
			if b < 0 {
				return fmt.Errorf("hadoop: job %q map %d partition %d negative", s.Name, m, r)
			}
		}
		if s.MapDurations[m] < 0 {
			return fmt.Errorf("hadoop: job %q map %d negative duration", s.Name, m)
		}
	}
	return nil
}

// TotalShuffleBytes sums the full intermediate volume.
func (s *JobSpec) TotalShuffleBytes() float64 {
	total := 0.0
	for _, row := range s.MapOutputs {
		for _, b := range row {
			total += b
		}
	}
	return total
}

// ReducerBytes returns per-reducer input volumes (the skew profile).
func (s *JobSpec) ReducerBytes() []float64 {
	out := make([]float64, s.NumReduces)
	for _, row := range s.MapOutputs {
		for r, b := range row {
			out[r] += b
		}
	}
	return out
}

// MapTask is one map task.
type MapTask struct {
	ID    int
	State TaskState
	// Tracker is the index of the tasktracker running (or, once
	// completed, that ran) the task; -1 while pending.
	Tracker   int
	Scheduled sim.Time
	Finished  sim.Time
}

// ReduceTask is one reduce attempt, with shuffle bookkeeping.
type ReduceTask struct {
	ID        int
	State     TaskState
	Tracker   int
	Scheduled sim.Time
	// ShuffleDone is when the last fetch completed (the barrier).
	ShuffleDone sim.Time
	Finished    sim.Time

	fetched      map[int]bool // map ID -> fetched (or in flight)
	fetchedDone  int
	active       int
	queue        []int // map IDs known-completed, awaiting fetch
	FetchedBytes float64
}

// Job is a submitted job's runtime state.
type Job struct {
	ID   int
	Spec *JobSpec

	Maps    []*MapTask
	Reduces []*ReduceTask

	Submitted sim.Time
	// MapPhaseEnd is when the last map finished.
	MapPhaseEnd sim.Time
	// ShuffleEnd is when the last reducer passed the shuffle barrier.
	ShuffleEnd sim.Time
	Finished   sim.Time
	Done       bool

	mapsCompleted    int
	reducesCompleted int
	pendingMaps      []int // map IDs awaiting a slot, FIFO
	nextReduce       int
}

// Duration returns total job time (valid once Done).
func (j *Job) Duration() sim.Duration { return j.Finished.Sub(j.Submitted) }
