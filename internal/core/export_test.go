package core

import "pythia/internal/topology"

// Views over the shards' job tables, for tests that assert on collector
// state as a whole.

func (p *Pythia) totalPending() int { return p.sumShards(func(s *shard) int { return s.pending }) }
func (p *Pythia) totalBooked() int  { return p.sumShards(func(s *shard) int { return s.booked }) }
func (p *Pythia) totalJobs() int    { return p.sumShards(func(s *shard) int { return len(s.jobs) }) }

// sumJobs totals f over every live job of every shard.
func (p *Pythia) sumJobs(f func(*jobState) int) int {
	return p.sumShards(func(s *shard) int {
		n := 0
		for _, js := range s.jobs {
			n += f(js)
		}
		return n
	})
}

func (p *Pythia) totalBacklog() int { return len(p.backlogSnapshot()) }
func (p *Pythia) totalReducerLoc() int {
	return p.sumJobs(func(js *jobState) int { return len(js.reducerLoc) })
}
func (p *Pythia) totalSeen() int { return p.sumJobs(func(js *jobState) int { return len(js.seen) }) }

func (p *Pythia) bookedSnapshot() map[flowKey]booking {
	m := make(map[flowKey]booking)
	for _, sh := range p.shards {
		for fk, b := range p.snapShard(sh).Booked {
			m[flowKey{fk.Job, fk.Map, fk.Reduce}] = booking{bits: b.Bits, src: b.Src, dst: b.Dst, at: b.At}
		}
	}
	return m
}

func (p *Pythia) backlogSnapshot() map[[2]int]float64 {
	m := make(map[[2]int]float64)
	for _, sh := range p.shards {
		for jr, b := range p.snapShard(sh).RedBacklog {
			m[jr] = b
		}
	}
	return m
}

// Views over the placement plane's two indexes.

// aggregateOf returns the host-pair aggregate keyed (src, dst), or nil.
func (p *Pythia) aggregateOf(src, dst topology.NodeID) *aggregate {
	return p.pairs.get(pairKey{src, dst})
}

// liveAggregates counts the live pair aggregates.
func (p *Pythia) liveAggregates() int { return p.pairs.n }

// usedLinkSlots counts the links the per-link placement index holds an
// aggregate on.
func (p *Pythia) usedLinkSlots() int {
	n := 0
	for _, set := range p.placedOn {
		if len(set) > 0 {
			n++
		}
	}
	return n
}
