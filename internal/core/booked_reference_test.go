package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"pythia/internal/hadoop"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

// refBookedDemandOn is the full-scan reference for bookedDemandOn: it finds
// the placed aggregates crossing l by walking every aggregate's path instead
// of reading the placedOn index that place/unplace/JobDone/snapshot-restore
// maintain, sorts them by pair key and sums. pathScore ran on this before the
// index existed.
func refBookedDemandOn(p *Pythia, l topology.LinkID, self *aggregate) float64 {
	var others []*aggregate
	for _, other := range p.sortedAggregates() {
		if other == self || !other.placed || other.demandBits <= 0 {
			continue
		}
		for _, ol := range other.path.Links {
			if ol == l {
				others = append(others, other)
				break
			}
		}
	}
	sort.Slice(others, func(i, j int) bool { return aggKeyLess(others[i], others[j]) })
	sum := 0.0
	for _, o := range others {
		sum += o.demandBits
	}
	return sum
}

// checkBookedDemand compares bookedDemandOn with the reference on every link,
// from the point of view of no aggregate and of every aggregate.
func checkBookedDemand(p *Pythia) error {
	selves := []*aggregate{nil}
	for _, a := range p.sortedAggregates() {
		selves = append(selves, a)
	}
	for _, l := range p.g.Links() {
		for _, self := range selves {
			got, want := p.bookedDemandOn(l.ID, self), refBookedDemandOn(p, l.ID, self)
			if math.Float64bits(got) != math.Float64bits(want) {
				who := "nobody"
				if self != nil {
					who = fmt.Sprintf("pair %d->%d", self.key.src, self.key.dst)
				}
				return fmt.Errorf("link %d seen by %s: indexed demand %v, full scan %v", l.ID, who, got, want)
			}
		}
	}
	return nil
}

// TestBookedDemandMatchesFullScan runs whole jobs — one through a trunk
// failure that forces re-placement, two overlapping — and checks the
// placement index against the full scan at every placement decision (the
// hook fires right after the index changes), after every sixteenth engine
// event in between, and once the jobs are done.
func TestBookedDemandMatchesFullScan(t *testing.T) {
	scenarios := []struct {
		name  string
		cfg   Config
		specs []*hadoop.JobSpec
		fault bool
	}{
		{"trunk-failure", Config{}.EnableAggregation(), []*hadoop.JobSpec{workload.Sort(4*workload.GB, 8, 5)}, true},
		{"two-jobs", Config{}, []*hadoop.JobSpec{workload.Sort(2*workload.GB, 6, 3), workload.Sort(1*workload.GB, 4, 4)}, false},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			s := newStack(sc.cfg, hadoop.Config{})
			checks := 0
			check := func(when string) {
				t.Helper()
				checks++
				if err := checkBookedDemand(s.py); err != nil {
					t.Fatalf("%s at t=%v: %v", when, s.eng.Now(), err)
				}
			}
			s.py.SetPlacementHook(func(_, _ topology.NodeID, _ topology.Path) { check("placement") })
			var jobs []*hadoop.Job
			for _, spec := range sc.specs {
				j, err := s.clus.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			if sc.fault {
				s.eng.At(10, func() { failTrunk(s, 0) })
			}
			// The controller's pollers are daemons that re-arm forever, so
			// the loop ends on the jobs, not on an empty queue.
			running := func() bool {
				for _, j := range jobs {
					if !j.Done {
						return true
					}
				}
				return false
			}
			for i := 0; running(); i++ {
				if !s.eng.Step() {
					t.Fatal("event queue ran dry with jobs unfinished")
				}
				if i%16 == 0 {
					check("step")
				}
			}
			check("drained")
			if s.py.AggregatesPlaced == 0 || checks < 50 {
				t.Fatalf("scenario too thin to mean anything: %d placements, %d checks", s.py.AggregatesPlaced, checks)
			}
		})
	}
}
