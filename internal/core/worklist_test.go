package core

import (
	"fmt"
	"testing"

	"pythia/internal/hadoop"
)

// refUnplaced is the placement pass's candidate collection as it was before
// the worklist: a scan of every live aggregate. It is the differential
// oracle for takeCandidates.
func refUnplaced(p *Pythia) []*aggregate {
	var todo []*aggregate
	for _, a := range p.sortedAggregates() {
		if !a.placed && a.demandBits > 0 && !a.degraded {
			todo = append(todo, a)
		}
	}
	return todo
}

// worklistError checks the worklist invariants between placement passes:
//
//	(i)   a live aggregate is queued exactly when it is unplaced, and a queued
//	      one is on p.unplaced exactly once;
//	(ii)  nothing on p.unplaced is live and placed;
//	(iii) the candidates the production pass would take equal refUnplaced as
//	      a set.
//
// Dead entries (aggregates deleted while queued) may sit on the list until
// the next pass. (iii) runs the production collection and puts the list back.
func worklistError(p *Pythia) error {
	on := make(map[*aggregate]int, len(p.unplaced))
	for _, a := range p.unplaced {
		on[a]++
		if !a.queued {
			return fmt.Errorf("pair %d->%d is on the worklist without its queued bit", a.key.src, a.key.dst)
		}
		if p.live(a) && a.placed {
			return fmt.Errorf("pair %d->%d is placed and still queued", a.key.src, a.key.dst)
		}
	}
	for _, a := range p.sortedAggregates() {
		if a.queued == a.placed {
			return fmt.Errorf("pair %d->%d: placed=%v queued=%v", a.key.src, a.key.dst, a.placed, a.queued)
		}
		if a.queued && on[a] != 1 || !a.queued && on[a] != 0 {
			return fmt.Errorf("pair %d->%d (queued=%v) is on the worklist %d times", a.key.src, a.key.dst, a.queued, on[a])
		}
	}

	saved := append([]*aggregate(nil), p.unplaced...)
	got := p.takeCandidates()
	p.unplaced = saved
	for _, a := range saved {
		a.queued = true
	}
	want := make(map[*aggregate]bool)
	for _, a := range refUnplaced(p) {
		want[a] = true
	}
	if len(got) != len(want) {
		return fmt.Errorf("production pass takes %d candidates, full scan finds %d", len(got), len(want))
	}
	for _, c := range got {
		if !want[c.a] {
			return fmt.Errorf("production pass takes pair %d->%d, which the full scan does not", c.a.key.src, c.a.key.dst)
		}
		delete(want, c.a) // a second occurrence would now miss
	}
	return nil
}

func checkWorklist(t testing.TB, p *Pythia) {
	t.Helper()
	if err := worklistError(p); err != nil {
		t.Fatalf("worklist at t=%v: %v", p.eng.Now(), err)
	}
}

// watchWorklist checks the worklist every 10 ms of virtual time for as long
// as the simulation runs. The ticker is a daemon: it does not keep Run alive
// and, being read-only, does not move any result.
func watchWorklist(t testing.TB, s *stack) {
	s.eng.Every(0.01, func() { checkWorklist(t, s.py) })
}

// allTrunks flips every inter-rack cable, both directions, and notifies.
func allTrunks(s *stack, up bool) {
	g := s.net.Graph()
	for _, tr := range s.trunks {
		g.SetLinkUp(tr, up)
		if r, ok := g.Reverse(tr); ok {
			g.SetLinkUp(r, up)
		}
	}
	s.net.NotifyTopology()
}

// TestUnroutablePairStaysQueued: an aggregate whose pair has no path is a
// candidate of every pass, is never placed, and is placed by the pass that
// follows the repair.
func TestUnroutablePairStaysQueued(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	allTrunks(s, false)
	s.eng.RunUntil(2) // past the controller's next poll: the partition is known
	s.py.ReducerUp(up(0, 0, s.hosts[5]))
	s.py.ShuffleIntent(intent(0, 0, s.hosts[0], []float64{100e6}))
	checkWorklist(t, s.py)
	agg := s.py.aggregateOf(s.hosts[0], s.hosts[5])
	if agg == nil || agg.placed || !agg.queued {
		t.Fatalf("unroutable aggregate: %+v", agg)
	}
	for i := 1; i <= 3; i++ {
		// An intra-rack pair: routable, so the pass places it while the
		// stranded one is retried and stays queued.
		s.py.ReducerUp(up(0, i, s.hosts[i]))
		s.py.ShuffleIntent(intent(0, i, s.hosts[0], []float64{0, 1e6, 1e6, 1e6}[:i+1]))
		checkWorklist(t, s.py)
		if n := s.py.allocate(); n != 1 {
			t.Fatalf("pass %d took %d candidates, want the stranded pair alone", i, n)
		}
		checkWorklist(t, s.py)
		if agg.placed || s.py.AggregatesPlaced != i {
			t.Fatalf("pass %d: stranded pair placed=%v, %d placements", i, agg.placed, s.py.AggregatesPlaced)
		}
	}
	// The same through ApplyBatch, whose account of the commit must show the
	// stranded pair: scored again, still without a path.
	s.py.ApplyBatch([]Op{{Kind: OpReducerUp, Reducer: up(0, 4, s.hosts[4])},
		{Kind: OpIntent, Intent: intent(0, 4, s.hosts[0], []float64{0, 0, 0, 0, 1e6})}}, 1)
	checkWorklist(t, s.py)
	if cs := s.py.LastCommit(); cs.Candidates != 2 || cs.Unplaced != 1 {
		t.Fatalf("batch commit reports %d candidates, %d unplaced; want 2 and 1", cs.Candidates, cs.Unplaced)
	}
	allTrunks(s, true)
	s.eng.RunUntil(4)
	checkWorklist(t, s.py)
	if !agg.placed || agg.queued || len(s.py.unplaced) != 0 {
		t.Fatalf("after repair: placed=%v queued=%v worklist=%d", agg.placed, agg.queued, len(s.py.unplaced))
	}
}
