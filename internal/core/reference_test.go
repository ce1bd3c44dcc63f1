package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pythia/internal/flight"
	"pythia/internal/instrument"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
)

// This file is the differential oracle for the collector's shard-local
// half. refShard is the flat-map shard the collector had before the per-job
// table: five (job, …)-keyed maps and one shard-wide pending slice, with
// every per-job operation a scan over all of them. It is kept here, and only
// here, because it is obviously right and shares no data structure with the
// production code; TestDifferentialAgainstFlatReference drives both with the
// same seeded op sequences and demands identical results, delta streams,
// expiry orders, flattened snapshots and counters.

type refPending struct {
	intent     instrument.Intent
	unresolved map[int]float64
	at         sim.Time
	seq        uint64
}

// refDelta is one placement-plane mutation in emission order.
type refDelta struct {
	unbook bool
	fk     flowKey
	b      booking
}

type refShard struct {
	reducerLoc  map[[2]int]topology.NodeID
	pending     []*refPending // seq-ascending
	booked      map[flowKey]booking
	redBacklog  map[[2]int]float64
	seen        map[[3]int]bool
	jobLastSeen map[int]sim.Time // TTL mode only

	intentsReceived, intentsDeferred, dedupHits       int
	duplicateIntents, expiredBookings, expiredIntents int
}

func newRefShard(ttl bool) *refShard {
	s := &refShard{
		reducerLoc: make(map[[2]int]topology.NodeID),
		booked:     make(map[flowKey]booking),
		redBacklog: make(map[[2]int]float64),
		seen:       make(map[[3]int]bool),
	}
	if ttl {
		s.jobLastSeen = make(map[int]sim.Time)
	}
	return s
}

func (s *refShard) touch(job int, now sim.Time) {
	if s.jobLastSeen != nil {
		s.jobLastSeen[job] = now
	}
}

func (s *refShard) intent(in instrument.Intent, seq uint64, now sim.Time, out *[]refDelta) OpResult {
	k := [3]int{in.Job, in.Map, in.Attempt}
	if s.seen[k] {
		s.dedupHits++
		return OpDuplicate
	}
	s.seen[k] = true
	s.touch(in.Job, now)
	s.intentsReceived++
	pi := &refPending{intent: in, unresolved: make(map[int]float64), at: now, seq: seq}
	for r, bytes := range in.PredictedWireBytes {
		if bytes > 0 {
			pi.unresolved[r] = bytes
		}
	}
	s.resolve(pi, now, out)
	if len(pi.unresolved) > 0 {
		s.intentsDeferred++
		s.pending = append(s.pending, pi)
		return OpDeferred
	}
	return OpAccepted
}

func (s *refShard) resolve(pi *refPending, now sim.Time, out *[]refDelta) {
	in := pi.intent
	reducers := make([]int, 0, len(pi.unresolved))
	for r := range pi.unresolved {
		reducers = append(reducers, r)
	}
	sort.Ints(reducers)
	for _, r := range reducers {
		dst, ok := s.reducerLoc[[2]int{in.Job, r}]
		if !ok {
			continue
		}
		bytes := pi.unresolved[r]
		delete(pi.unresolved, r)
		if dst == in.SrcHost {
			continue // host scope: a local fetch is not steerable
		}
		fk := flowKey{in.Job, in.Map, r}
		if prev, dup := s.booked[fk]; dup {
			s.duplicateIntents++
			s.unbookLocal(fk, prev)
			*out = append(*out, refDelta{unbook: true, fk: fk, b: prev})
		}
		b := booking{bits: bytes * 8, src: in.SrcHost, dst: dst, at: now}
		s.booked[fk] = b
		s.redBacklog[[2]int{in.Job, r}] += b.bits
		*out = append(*out, refDelta{fk: fk, b: b})
	}
}

func (s *refShard) unbookLocal(fk flowKey, b booking) {
	jr := [2]int{fk.job, fk.reduce}
	if s.redBacklog[jr] -= b.bits; s.redBacklog[jr] <= 1 {
		delete(s.redBacklog, jr)
	}
}

func (s *refShard) reducerUp(up instrument.ReducerUp, now sim.Time, out *[]refDelta) {
	s.touch(up.Job, now)
	s.reducerLoc[[2]int{up.Job, up.Reduce}] = up.Host
	var remaining []*refPending
	for _, pi := range s.pending { // every pending intent in the shard
		s.resolve(pi, now, out)
		if len(pi.unresolved) > 0 {
			remaining = append(remaining, pi)
		}
	}
	s.pending = remaining
}

func (s *refShard) jobDone(job int, out *[]refDelta) {
	var remaining []*refPending
	for _, pi := range s.pending {
		if pi.intent.Job != job {
			remaining = append(remaining, pi)
		}
	}
	s.pending = remaining
	var keys []flowKey
	for fk := range s.booked {
		if fk.job == job {
			keys = append(keys, fk)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return flowKeyLess(keys[i], keys[j]) })
	for _, fk := range keys {
		b := s.booked[fk]
		delete(s.booked, fk)
		s.unbookLocal(fk, b)
		*out = append(*out, refDelta{unbook: true, fk: fk, b: b})
	}
	s.purge(job)
}

func (s *refShard) purge(job int) {
	for jr := range s.reducerLoc {
		if jr[0] == job {
			delete(s.reducerLoc, jr)
		}
	}
	for jr := range s.redBacklog {
		if jr[0] == job {
			delete(s.redBacklog, jr)
		}
	}
	for k := range s.seen {
		if k[0] == job {
			delete(s.seen, k)
		}
	}
	delete(s.jobLastSeen, job)
}

// snap flattens the shard into the exported snapshot shape.
func (s *refShard) snap() ShardSnap {
	ss := ShardSnap{
		ReducerLoc: make(map[[2]int]topology.NodeID),
		Booked:     make(map[FlowKey]BookingSnap),
		RedBacklog: make(map[[2]int]float64),
		Seen:       make(map[[3]int]bool),

		IntentsReceived: s.intentsReceived, IntentsDeferred: s.intentsDeferred,
		DedupHits: s.dedupHits, DuplicateIntents: s.duplicateIntents,
		ExpiredBookings: s.expiredBookings, ExpiredIntents: s.expiredIntents,
	}
	for k, v := range s.reducerLoc {
		ss.ReducerLoc[k] = v
	}
	for fk, b := range s.booked {
		ss.Booked[FlowKey{fk.job, fk.mapID, fk.reduce}] = BookingSnap{b.bits, b.src, b.dst, b.at}
	}
	for k, v := range s.redBacklog {
		ss.RedBacklog[k] = v
	}
	for k := range s.seen {
		ss.Seen[k] = true
	}
	if s.jobLastSeen != nil {
		ss.JobLastSeen = make(map[int]sim.Time)
		for k, v := range s.jobLastSeen {
			ss.JobLastSeen[k] = v
		}
	}
	for _, pi := range s.pending {
		ps := PendingSnap{Intent: pi.intent, Unresolved: make(map[int]float64), At: pi.at, Seq: pi.seq}
		for r, b := range pi.unresolved {
			ps.Unresolved[r] = b
		}
		ss.Pending = append(ss.Pending, ps)
	}
	return ss
}

// refCollector is the reference's sharding shell: jobs route by job%shards
// and a batch is applied strictly in op order, which is the order the
// production commit's (op, sub) merge has to reproduce.
type refCollector struct {
	shards  []*refShard
	ttl     sim.Duration
	nextSeq uint64
	// expiry log of the TTL sweeps, in event order
	expired []string
}

func newRefCollector(shards int, ttl sim.Duration) *refCollector {
	c := &refCollector{ttl: ttl}
	for i := 0; i < shards; i++ {
		c.shards = append(c.shards, newRefShard(ttl > 0))
	}
	return c
}

func (c *refCollector) shardOf(job int) *refShard { return c.shards[job%len(c.shards)] }

func (c *refCollector) apply(op Op, seq uint64, now sim.Time, out *[]refDelta) OpResult {
	sh := c.shardOf(op.job())
	switch op.Kind {
	case OpIntent:
		return sh.intent(op.Intent, seq, now, out)
	case OpReducerUp:
		sh.reducerUp(op.Reducer, now, out)
	case OpJobDone:
		sh.jobDone(op.Job, out)
	}
	return OpAccepted
}

func (c *refCollector) applyBatch(ops []Op, now sim.Time) ([]OpResult, []refDelta) {
	var out []refDelta
	res := make([]OpResult, len(ops))
	for i, op := range ops {
		res[i] = c.apply(op, c.nextSeq+uint64(i), now, &out)
	}
	c.nextSeq += uint64(len(ops))
	return res, out
}

// sweep is the shard-local half of the booking-TTL sweep: expired bookings
// in global (job, map, reduce) order, expired intents in arrival order, then
// the dead-job purge.
func (c *refCollector) sweep(now sim.Time) {
	type owned struct {
		fk flowKey
		sh *refShard
	}
	var keys []owned
	for _, sh := range c.shards {
		for fk, b := range sh.booked {
			if now.Sub(b.at) >= c.ttl {
				keys = append(keys, owned{fk, sh})
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return flowKeyLess(keys[i].fk, keys[j].fk) })
	for _, k := range keys {
		b := k.sh.booked[k.fk]
		delete(k.sh.booked, k.fk)
		k.sh.unbookLocal(k.fk, b)
		k.sh.expiredBookings++
		c.expired = append(c.expired, fmt.Sprintf("booking %v %v", k.fk, b.bits/8))
	}
	var gone []*refPending
	for _, sh := range c.shards {
		var remaining []*refPending
		for _, pi := range sh.pending {
			if now.Sub(pi.at) >= c.ttl {
				sh.expiredIntents++
				gone = append(gone, pi)
			} else {
				remaining = append(remaining, pi)
			}
		}
		sh.pending = remaining
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i].seq < gone[j].seq })
	for _, pi := range gone {
		c.expired = append(c.expired, fmt.Sprintf("intent %d/%d/%d %d",
			pi.intent.Job, pi.intent.Map, pi.intent.Attempt, len(pi.unresolved)))
	}
	for _, sh := range c.shards {
		live := make(map[int]bool)
		for fk := range sh.booked {
			live[fk.job] = true
		}
		for _, pi := range sh.pending {
			live[pi.intent.Job] = true
		}
		for job, last := range sh.jobLastSeen {
			if !live[job] && now.Sub(last) >= c.ttl {
				sh.purge(job)
			}
		}
	}
}

// novelOps is the logical-clock metering rule over the flat maps.
func (c *refCollector) novelOps(ops []Op) int {
	novel := 0
	seen := make(map[[3]int]bool)
	red := make(map[[2]int]topology.NodeID)
	jobs := make(map[int]bool)
	for _, op := range ops {
		sh := c.shardOf(op.job())
		switch op.Kind {
		case OpIntent:
			k := [3]int{op.Intent.Job, op.Intent.Map, op.Intent.Attempt}
			if sh.seen[k] || seen[k] {
				continue
			}
			seen[k] = true
			jobs[op.Intent.Job] = true
			novel++
		case OpReducerUp:
			k := [2]int{op.Reducer.Job, op.Reducer.Reduce}
			cur, ok := red[k]
			if !ok {
				cur, ok = sh.reducerLoc[k]
			}
			if ok && cur == op.Reducer.Host {
				continue
			}
			red[k] = op.Reducer.Host
			jobs[op.Reducer.Job] = true
			novel++
		case OpJobDone:
			known, ok := jobs[op.Job]
			if !ok {
				known = true
				if sh.jobLastSeen != nil {
					_, known = sh.jobLastSeen[op.Job]
				}
			}
			if !known {
				continue
			}
			jobs[op.Job] = false
			novel++
		}
	}
	return novel
}

// mergedLog merges the shard phase's per-shard streams itself — concatenated
// and sorted by (op, sub) — and keeps the placement-plane mutations: the
// stream refCollector emits.
func mergedLog(deltas [][]delta) []refDelta {
	var all []delta
	for _, ds := range deltas {
		all = append(all, ds...)
	}
	sort.Slice(all, func(i, j int) bool { return deltaLess(&all[i], &all[j]) })
	var log []refDelta
	for _, d := range all {
		if d.ev == nil {
			log = append(log, refDelta{unbook: d.unbook, fk: d.fk, b: d.b})
		}
	}
	return log
}

// expiryLog renders the sweep's flight events the way refCollector.sweep
// logs its own.
type expiryLog struct{ lines []string }

func (l *expiryLog) Record(ev flight.Event) {
	switch ev.Kind {
	case flight.BookingExpired:
		l.lines = append(l.lines, fmt.Sprintf("booking %v %v", flowKey{ev.Job, ev.Map, ev.Reduce}, ev.Bytes))
	case flight.IntentExpired:
		l.lines = append(l.lines, fmt.Sprintf("intent %d/%d/%d %d", ev.Job, ev.Map, ev.Attempt, ev.Count))
	}
}

// diffCase is one differential scenario; the op sequence and its batch
// boundaries are a function of seed alone.
type diffCase struct {
	seed            uint64
	shards, workers int
	ttl             sim.Duration
	direct          bool // per-message API (batches of one) instead of ApplyBatch
}

func (c diffCase) String() string {
	return fmt.Sprintf("seed=%d shards=%d workers=%d ttl=%v direct=%v", c.seed, c.shards, c.workers, c.ttl, c.direct)
}

// randomOps draws a hostile-ish op sequence over a dozen jobs: duplicate
// intents, speculative attempts (some with a different reducer count) that
// replace bookings, zero and missing demands, reducer moves, JobDone before
// and after ReducerUp and for jobs never seen. cuts are the batch ends.
func randomOps(seed uint64, hosts []topology.NodeID) (ops []Op, cuts []int) {
	rng := stats.NewRNG(seed)
	const jobs, maps, n = 12, 5, 320
	for len(ops) < n {
		job := rng.Intn(jobs)
		reducers := 2 + job%4
		switch x := rng.Float64(); {
		case x < 0.55:
			width := reducers
			if rng.Float64() < 0.1 {
				width = 1 + rng.Intn(reducers+2)
			}
			bytes := make([]float64, width)
			for r := range bytes {
				if rng.Float64() < 0.85 {
					bytes[r] = float64(1+rng.Intn(50)) * 1e5
				}
			}
			ops = append(ops, Op{Kind: OpIntent, Intent: instrument.Intent{Job: job, Map: rng.Intn(maps),
				Attempt: rng.Intn(3), SrcHost: hosts[rng.Intn(len(hosts))], PredictedWireBytes: bytes}})
		case x < 0.93:
			ops = append(ops, Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: job,
				Reduce: rng.Intn(reducers + 1), Host: hosts[rng.Intn(len(hosts))]}})
		case x < 0.99:
			ops = append(ops, Op{Kind: OpJobDone, Job: job})
		default:
			ops = append(ops, Op{Kind: OpJobDone, Job: jobs + rng.Intn(40)})
		}
	}
	for at := 0; at < n; {
		at += 1 + rng.Intn(24)
		if at > n {
			at = n
		}
		cuts = append(cuts, at)
	}
	return ops, cuts
}

// runDiff replays the first n ops of the case's sequence through the
// production collector and the reference, comparing after every batch, and
// returns the first divergence. The reference's counters are added to cov
// so the caller can tell which paths the sequences reached.
func runDiff(t *testing.T, c diffCase, n int, cov *ShardStat) error {
	s := newSnapStack(t, c.shards, c.ttl, 2)
	ops, cuts := randomOps(c.seed, twoRackHosts())
	if c.direct {
		cuts = cuts[:0]
		for i := range ops {
			cuts = append(cuts, i+1)
		}
	}
	ref := newRefCollector(c.shards, c.ttl)
	var got expiryLog
	s.py.SetFlightRecorder(&got)
	if c.ttl > 0 {
		s.eng.Every(c.ttl/2, func() { ref.sweep(s.eng.Now()) })
	}
	at := 0
	for _, end := range cuts {
		if end > n {
			end = n
		}
		if at >= end {
			break
		}
		batch := ops[at:end]
		novel, refNovel := s.py.NovelOps(batch), ref.novelOps(batch)
		if novel != refNovel {
			return fmt.Errorf("ops[%d:%d]: NovelOps %d, reference %d", at, end, novel, refNovel)
		}
		s.virtual += float64(novel) / s.clockHz
		s.eng.RunUntil(sim.Time(s.virtual))
		now := s.eng.Now()

		if c.direct {
			// The per-message API is a batch of one with no results to
			// return, so only state is compared.
			switch op := batch[0]; op.Kind {
			case OpIntent:
				s.py.ShuffleIntent(op.Intent)
			case OpReducerUp:
				s.py.ReducerUp(op.Reducer)
			case OpJobDone:
				s.py.JobDone(op.Job)
			}
			ref.applyBatch(batch, now)
		} else {
			res, deltas := s.py.shardPhase(batch, c.workers)
			log := mergedLog(deltas)
			s.py.mergeDeltas(deltas)
			checkWorklist(t, s.py)
			if want, got := len(refUnplaced(s.py)), s.py.allocate(); got != want {
				return fmt.Errorf("ops[%d:%d]: placement pass took %d candidates, full scan finds %d", at, end, got, want)
			}
			refRes, refLog := ref.applyBatch(batch, now)
			if !reflect.DeepEqual(res, refRes) {
				return fmt.Errorf("ops[%d:%d]: results %v, reference %v", at, end, res, refRes)
			}
			if len(log)+len(refLog) > 0 && !reflect.DeepEqual(log, refLog) {
				return fmt.Errorf("ops[%d:%d]: delta stream\n got %+v\nwant %+v", at, end, log, refLog)
			}
		}
		checkWorklist(t, s.py)
		if !reflect.DeepEqual(got.lines, ref.expired) {
			return fmt.Errorf("by ops[:%d]: sweep expiry order\n got %v\nwant %v", end, got.lines, ref.expired)
		}
		snap := s.py.Snapshot()
		if snap.NextSeq != ref.nextSeq {
			return fmt.Errorf("ops[:%d]: NextSeq %d, reference %d", end, snap.NextSeq, ref.nextSeq)
		}
		booked, pending := 0, 0
		for i, sh := range ref.shards {
			want := sh.snap()
			if !reflect.DeepEqual(snap.Shards[i], want) {
				return fmt.Errorf("ops[:%d]: shard %d state\n got %+v\nwant %+v", end, i, snap.Shards[i], want)
			}
			booked += len(want.Booked)
			pending += len(want.Pending)
		}
		if s.py.totalBooked() != booked || s.py.totalPending() != pending {
			return fmt.Errorf("ops[:%d]: gauges booked=%d pending=%d, reference %d/%d",
				end, s.py.totalBooked(), s.py.totalPending(), booked, pending)
		}
		at = end
	}
	for _, sh := range ref.shards {
		cov.DedupHits += sh.dedupHits
		cov.DuplicateIntents += sh.duplicateIntents
		cov.IntentsDeferred += sh.intentsDeferred
		cov.ExpiredBookings += sh.expiredBookings
		cov.ExpiredIntents += sh.expiredIntents
	}
	return nil
}

// TestDifferentialAgainstFlatReference is ROADMAP item 4c's first slice: the
// production shard-local code against an implementation that shares nothing
// with it. A failure names the seed and the shortest failing prefix.
func TestDifferentialAgainstFlatReference(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 4
	}
	var cov ShardStat
	for seed := 1; seed <= seeds; seed++ {
		for _, ttl := range []sim.Duration{0, 30} {
			cases := []diffCase{{seed: uint64(seed), shards: 1, workers: 1, ttl: ttl, direct: true}}
			for _, shards := range []int{1, 2, 8} {
				for _, workers := range []int{1, 4} {
					cases = append(cases, diffCase{seed: uint64(seed), shards: shards, workers: workers, ttl: ttl})
				}
			}
			for _, c := range cases {
				ops, _ := randomOps(c.seed, twoRackHosts())
				if runDiff(t, c, len(ops), &cov) == nil {
					continue
				}
				for n := 1; n <= len(ops); n++ {
					if err := runDiff(t, c, n, &cov); err != nil {
						t.Fatalf("%v: shortest failing prefix is ops[:%d] (last op %+v): %v", c, n, ops[n-1], err)
					}
				}
			}
		}
	}
	if cov.DedupHits == 0 || cov.DuplicateIntents == 0 || cov.IntentsDeferred == 0 ||
		cov.ExpiredBookings == 0 || cov.ExpiredIntents == 0 {
		t.Fatalf("sequences never reached a path the oracle is meant to cover: %+v", cov)
	}
	t.Logf("paths reached across all cases: %+v", cov)
}

func twoRackHosts() []topology.NodeID {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	return hosts
}
