package core

import (
	"fmt"

	"pythia/internal/instrument"
)

// OpKind discriminates batch operations.
type OpKind int

const (
	// OpIntent ingests one shuffle-intent prediction (Op.Intent).
	OpIntent OpKind = iota
	// OpReducerUp records one reducer placement (Op.Reducer).
	OpReducerUp
	// OpJobDone retires all state for one job (Op.Job).
	OpJobDone
)

func (k OpKind) String() string {
	switch k {
	case OpIntent:
		return "intent"
	case OpReducerUp:
		return "reducer-up"
	case OpJobDone:
		return "job-done"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one batched collector operation. Exactly the field selected by Kind
// is meaningful.
type Op struct {
	Kind    OpKind
	Intent  instrument.Intent
	Reducer instrument.ReducerUp
	Job     int // OpJobDone
}

// job returns the operation's job ID — the shard key.
func (o Op) job() int {
	switch o.Kind {
	case OpIntent:
		return o.Intent.Job
	case OpReducerUp:
		return o.Reducer.Job
	default:
		return o.Job
	}
}

// OpResult reports the per-operation ingest disposition.
type OpResult int

const (
	// OpAccepted: the operation was ingested (for an intent, every
	// per-reducer demand resolved or was empty).
	OpAccepted OpResult = iota
	// OpDuplicate: an already-seen (job, map, attempt) intent, dropped by
	// the idempotence set.
	OpDuplicate
	// OpDeferred: the intent was ingested but at least one per-reducer
	// demand awaits its reducer's placement.
	OpDeferred
)

func (r OpResult) String() string {
	switch r {
	case OpAccepted:
		return "accepted"
	case OpDuplicate:
		return "duplicate"
	case OpDeferred:
		return "deferred"
	}
	return fmt.Sprintf("OpResult(%d)", int(r))
}

// CollectorStats is a point-in-time snapshot of every collector counter and
// gauge, JSON-shaped for the serving stats endpoint.
type CollectorStats struct {
	IntentsReceived    int `json:"intents_received"`
	IntentsDeferred    int `json:"intents_deferred"`
	DedupHits          int `json:"dedup_hits"`
	DuplicateIntents   int `json:"duplicate_intents"`
	ExpiredBookings    int `json:"expired_bookings"`
	ExpiredIntents     int `json:"expired_intents"`
	AggregatesPlaced   int `json:"aggregates_placed"`
	Reaffirmations     int `json:"reaffirmations"`
	Reallocations      int `json:"reallocations"`
	RuleInstallErrors  int `json:"rule_install_errors"`
	FlowsRescued       int `json:"flows_rescued"`
	AggregatesDegraded int `json:"aggregates_degraded"`
	Reconciliations    int `json:"reconciliations"`

	PendingIntents        int     `json:"pending_intents"`
	OutstandingBookings   int     `json:"outstanding_bookings"`
	OutstandingDemandBits float64 `json:"outstanding_demand_bits"`
	Shards                int     `json:"shards"`
}

// IntentsReceived counts unique intents ingested (dedup-dropped excluded).
func (p *Pythia) IntentsReceived() int {
	return p.sumShards(func(s *shard) int { return s.intentsReceived })
}

// IntentsDeferred counts intents that arrived with at least one unknown
// reducer destination.
func (p *Pythia) IntentsDeferred() int {
	return p.sumShards(func(s *shard) int { return s.intentsDeferred })
}

// DedupHits counts exact duplicate intents — same (job, map, attempt) —
// dropped by the idempotence set.
func (p *Pythia) DedupHits() int { return p.sumShards(func(s *shard) int { return s.dedupHits }) }

// DuplicateIntents counts re-predictions for an already-booked
// (job, map, reducer) — e.g. from speculative map attempts.
func (p *Pythia) DuplicateIntents() int {
	return p.sumShards(func(s *shard) int { return s.duplicateIntents })
}

// ExpiredBookings counts reservations reclaimed by the booking-TTL sweep.
func (p *Pythia) ExpiredBookings() int {
	return p.sumShards(func(s *shard) int { return s.expiredBookings })
}

// ExpiredIntents counts deferred intents reclaimed by the booking-TTL sweep.
func (p *Pythia) ExpiredIntents() int {
	return p.sumShards(func(s *shard) int { return s.expiredIntents })
}

func (p *Pythia) sumShards(f func(*shard) int) int {
	n := 0
	for _, sh := range p.shards {
		n += f(sh)
	}
	return n
}

// ShardStat is a point-in-time view of one collector shard: the live
// pending/booking gauges plus the shard-local ingest counters.
type ShardStat struct {
	PendingIntents   int `json:"pending_intents"`
	BookedFlows      int `json:"booked_flows"`
	IntentsReceived  int `json:"intents_received"`
	IntentsDeferred  int `json:"intents_deferred"`
	DedupHits        int `json:"dedup_hits"`
	DuplicateIntents int `json:"duplicate_intents"`
	ExpiredBookings  int `json:"expired_bookings"`
	ExpiredIntents   int `json:"expired_intents"`
}

// ShardStats snapshots each shard's gauges and counters, indexed by shard
// ordinal — the serving plane's per-shard metrics surface.
func (p *Pythia) ShardStats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	for i, sh := range p.shards {
		out[i] = ShardStat{
			PendingIntents:   sh.pending,
			BookedFlows:      sh.booked,
			IntentsReceived:  sh.intentsReceived,
			IntentsDeferred:  sh.intentsDeferred,
			DedupHits:        sh.dedupHits,
			DuplicateIntents: sh.duplicateIntents,
			ExpiredBookings:  sh.expiredBookings,
			ExpiredIntents:   sh.expiredIntents,
		}
	}
	return out
}

// Stats snapshots every collector counter and gauge.
func (p *Pythia) Stats() CollectorStats {
	return CollectorStats{
		IntentsReceived:    p.IntentsReceived(),
		IntentsDeferred:    p.IntentsDeferred(),
		DedupHits:          p.DedupHits(),
		DuplicateIntents:   p.DuplicateIntents(),
		ExpiredBookings:    p.ExpiredBookings(),
		ExpiredIntents:     p.ExpiredIntents(),
		AggregatesPlaced:   p.AggregatesPlaced,
		Reaffirmations:     p.Reaffirmations,
		Reallocations:      p.Reallocations,
		RuleInstallErrors:  p.RuleInstallErrors,
		FlowsRescued:       p.FlowsRescued,
		AggregatesDegraded: p.AggregatesDegraded,
		Reconciliations:    p.Reconciliations,

		PendingIntents:        p.PendingUnknownDestinations(),
		OutstandingBookings:   p.OutstandingTotal(),
		OutstandingDemandBits: p.OutstandingDemandBits(),
		Shards:                p.Shards(),
	}
}
