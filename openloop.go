package pythia

import (
	"fmt"

	"pythia/internal/hadoop"
	"pythia/internal/sim"
	"pythia/internal/workload"
)

// Open-loop facade: timed submissions and the continuous workload plane.
// Closed-loop entry points (RunJobs, TryRunJobs) submit everything at t=0
// and wait; here jobs enter at their arrival times whether or not earlier
// ones have finished, which is how production clusters actually load up.

// Tenant re-exports one slice of the open-loop mix: arrival share, size
// distribution and job-class fractions.
type Tenant = workload.Tenant

// OpenLoopConfig re-exports the continuous arrival process's knobs:
// Poisson base rate, diurnal modulation, tenant mix, seed.
type OpenLoopConfig = workload.OpenLoopConfig

// OpenJob re-exports one open-loop arrival: the job spec plus submission
// time, tenant and job class.
type OpenJob = workload.OpenJob

// DefaultTenants is the standard three-way interactive/analytics/batch mix.
func DefaultTenants() []Tenant { return workload.DefaultTenants() }

// OpenLoopJobs materializes every arrival of the seeded open-loop stream
// with SubmitAtSec < horizonSec, in arrival order. Identical configs yield
// identical arrivals.
func OpenLoopJobs(cfg OpenLoopConfig, horizonSec float64) []OpenJob {
	return workload.OpenLoop(cfg).Until(horizonSec)
}

// timedSubmission tracks one SubmitAt entry until TryRunUntil reports it.
type timedSubmission struct {
	spec *JobSpec
	job  *hadoop.Job
	err  error
}

// SubmitAt schedules spec for submission at tSec simulated seconds. Unlike
// TryRunJobs, nothing waits for earlier jobs: this is the open-loop entry
// point. Submission errors and results surface from TryRunUntil.
func (c *Cluster) SubmitAt(tSec float64, spec *JobSpec) {
	s := &timedSubmission{spec: spec}
	c.timed = append(c.timed, s)
	c.eng.At(sim.Time(tSec), func() {
		j, err := c.submit(spec)
		if err != nil {
			s.err = fmt.Errorf("submit %q at t=%.1f: %w", spec.Name, tSec, err)
			return
		}
		s.job = j
	})
}

// TryRunUntil drives the simulation to horizonSec and reports every job
// scheduled with SubmitAt so far, in submission order, with the TryRunJobs
// error contract: submission failures and jobs unfinished at the horizon
// yield a non-nil error alongside the results of whatever did complete
// (unfinished jobs keep a zero JobResult). Calling it again after more
// SubmitAt entries continues the same simulation and re-reports the full
// history.
func (c *Cluster) TryRunUntil(horizonSec float64) ([]JobResult, error) {
	c.eng.RunUntil(sim.Time(horizonSec))
	out := make([]JobResult, len(c.timed))
	var unfinished []string
	for i, s := range c.timed {
		if s.err != nil {
			return nil, s.err
		}
		j := s.job
		if j == nil || !j.Done {
			unfinished = append(unfinished, s.spec.Name)
			continue
		}
		out[i] = c.jobResult(s.spec, j)
	}
	return out, unfinishedError(unfinished, len(c.timed))
}
