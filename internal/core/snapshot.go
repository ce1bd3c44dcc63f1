package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"pythia/internal/instrument"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// This file is the collector's durability surface: Snapshot captures every
// bit of state a placement decision can depend on, Restore rebuilds it into
// a freshly constructed stack, and NovelOps is the logical-clock metering
// rule that makes at-least-once delivery clock-invisible. Together with the
// write-ahead journal (internal/wal) and the serving layer's replay
// (internal/serve) they make a restarted collector bit-identical to one
// that never crashed: restore the last snapshot, advance the engine to the
// snapshot instant (catch-up TTL sweeps are provably no-ops against
// restored state — anything they could expire was already expired by the
// same sweep before the snapshot was cut), then replay the journal tail
// through the normal ApplyBatch path.

// FlowKey is the exported (job, map, reduce) booking key used by snapshots.
type FlowKey struct {
	Job, Map, Reduce int
}

// BookingSnap is one demand reservation.
type BookingSnap struct {
	Bits     float64
	Src, Dst topology.NodeID
	At       sim.Time
}

// PendingSnap is one deferred intent awaiting reducer placement.
type PendingSnap struct {
	Intent     instrument.Intent
	Unresolved map[int]float64
	At         sim.Time
	Seq        uint64
}

// ShardSnap is one shard's complete per-job state and counters.
type ShardSnap struct {
	ReducerLoc  map[[2]int]topology.NodeID
	Pending     []PendingSnap
	Booked      map[FlowKey]BookingSnap
	RedBacklog  map[[2]int]float64
	Seen        map[[3]int]bool
	JobLastSeen map[int]sim.Time // nil when the TTL sweep is disabled

	IntentsReceived  int
	IntentsDeferred  int
	DedupHits        int
	DuplicateIntents int
	ExpiredBookings  int
	ExpiredIntents   int
}

// AggSnap is one pair aggregate of the placement plane. Cookie != 0 means
// rules for Path are programmed in the switches; Restore re-installs them
// under the same cookie so the post-restart rule lifecycle (same-path
// re-affirmation, removal on drain) is indistinguishable from an
// uninterrupted run.
type AggSnap struct {
	KeySrc, KeyDst topology.NodeID
	RepSrc, RepDst topology.NodeID
	Path           topology.Path
	Cookie         uint64
	DemandBits     float64
	Placed         bool
	Degraded       bool
	PerReducer     map[[2]int]float64
}

// Snapshot is a complete, self-contained capture of collector state. It is
// plain exported data (gob- and JSON-encodable); the float64 fields carry
// exact bit patterns, which Restore preserves — reconstructing demand sums
// from bookings instead would re-associate float additions and perturb
// placement scores.
type Snapshot struct {
	Shards     []ShardSnap
	NextSeq    uint64
	NextCookie uint64
	Aggregates []AggSnap // ascending pair key

	AggregatesPlaced   int
	Reaffirmations     int
	Reallocations      int
	RuleInstallErrors  int
	FlowsRescued       int
	AggregatesDegraded int
	Reconciliations    int
}

// Snapshot captures the collector's full state as plain data — the shape
// Restore consumes and DecodeSnapshot produces. The serving plane's capture
// is AppendSnapshot, which writes the same state without building the maps;
// this is its differential oracle. The caller must hold the same exclusion
// ApplyBatch requires (no concurrent collector or engine use).
func (p *Pythia) Snapshot() *Snapshot {
	s := &Snapshot{
		Shards:     make([]ShardSnap, len(p.shards)),
		NextSeq:    p.nextSeq,
		NextCookie: p.nextCookie,

		AggregatesPlaced:   p.AggregatesPlaced,
		Reaffirmations:     p.Reaffirmations,
		Reallocations:      p.Reallocations,
		RuleInstallErrors:  p.RuleInstallErrors,
		FlowsRescued:       p.FlowsRescued,
		AggregatesDegraded: p.AggregatesDegraded,
		Reconciliations:    p.Reconciliations,
	}
	for i, sh := range p.shards {
		s.Shards[i] = p.snapShard(sh)
	}
	for _, a := range p.sortedAggregates() {
		as := AggSnap{
			KeySrc: a.key.src, KeyDst: a.key.dst,
			RepSrc: a.repSrc, RepDst: a.repDst,
			Path:       topology.Path{Links: append([]topology.LinkID(nil), a.path.Links...), Src: a.path.Src, Dst: a.path.Dst},
			Cookie:     a.cookie,
			DemandBits: a.demandBits,
			Placed:     a.placed,
			Degraded:   a.degraded,
			PerReducer: make(map[[2]int]float64, len(a.perReducer)),
		}
		for _, e := range a.perReducer {
			as.PerReducer[[2]int{e.job, e.reduce}] = e.bits
		}
		s.Aggregates = append(s.Aggregates, as)
	}
	return s
}

// snapShard flattens one shard's job table into the (job, …)-keyed shape
// snapshots have always had: the job-local keys regain their job ID, and the
// per-job pending lists merge by arrival seq into the shard-wide
// seq-ascending list.
func (p *Pythia) snapShard(sh *shard) ShardSnap {
	nLoc, nSeen := 0, 0 // size hints: growing the flat maps would dominate the copy
	for _, js := range sh.jobs {
		nLoc += len(js.reducerLoc)
		nSeen += len(js.seen)
	}
	ss := ShardSnap{
		ReducerLoc: make(map[[2]int]topology.NodeID, nLoc),
		Booked:     make(map[FlowKey]BookingSnap, sh.booked),
		RedBacklog: make(map[[2]int]float64, nLoc),
		Seen:       make(map[[3]int]bool, nSeen),

		IntentsReceived:  sh.intentsReceived,
		IntentsDeferred:  sh.intentsDeferred,
		DedupHits:        sh.dedupHits,
		DuplicateIntents: sh.duplicateIntents,
		ExpiredBookings:  sh.expiredBookings,
		ExpiredIntents:   sh.expiredIntents,
	}
	if p.cfg.BookingTTL > 0 {
		ss.JobLastSeen = make(map[int]sim.Time, len(sh.jobs))
	}
	for job, js := range sh.jobs {
		for r, host := range js.reducerLoc {
			ss.ReducerLoc[[2]int{job, r}] = host
		}
		for m, row := range js.booked {
			for r, b := range row {
				if b.bits != 0 {
					ss.Booked[FlowKey{job, m, r}] = BookingSnap{b.bits, b.src, b.dst, b.at}
				}
			}
		}
		for r, bits := range js.backlog {
			if bits != 0 {
				ss.RedBacklog[[2]int{job, r}] = bits
			}
		}
		for k := range js.seen {
			ss.Seen[[3]int{job, k[0], k[1]}] = true
		}
		if ss.JobLastSeen != nil {
			ss.JobLastSeen[job] = js.lastSeen
		}
		for _, pi := range js.pending {
			ps := PendingSnap{Intent: pi.intent, Unresolved: make(map[int]float64, len(pi.unresolved)),
				At: pi.at, Seq: pi.seq}
			for r, b := range pi.unresolved {
				ps.Unresolved[r] = b
			}
			ss.Pending = append(ss.Pending, ps)
		}
	}
	sort.Slice(ss.Pending, func(i, j int) bool { return ss.Pending[i].Seq < ss.Pending[j].Seq })
	return ss
}

// snapshotVersion is the first byte of the binary snapshot encoding. Version
// 1 was the gob encoding of Snapshot, which carried no version byte of its
// own (the serving plane tells the two apart by its magic prefix).
const snapshotVersion = 2

// Binary snapshot format (DESIGN.md §13.3). Integers that can be negative in
// a Snapshot (IDs, counters) are zig-zag varints, counts and the two uint64
// ordinals are uvarints, and every float64 or sim.Time is its IEEE-754 bit
// pattern as 8 little-endian bytes — state restores bit-for-bit, which
// re-summing bookings would not give. Every count is followed by exactly
// that many elements, each at least one byte, so a decoder can bound a count
// by the bytes that remain.
//
//	version byte | nShards | ttl byte | nextSeq | nextCookie | 7 plane counters
//	per shard: 6 counters | booked (a map-size hint) | nJobs, then per job:
//	  job | [lastSeen, if ttl] |
//	  nReducerLoc × (reducer, host) |
//	  nBacklog × bits, indexed by reducer |
//	  nSeen × (map, attempt) |
//	  nRows × (map, nSlots × slot), slots indexed by reducer:
//	    0x00 (empty) | 0x01 bits src dst at |
//	  nPending × (map attempt srcHost nBytes×bytes mapFinishedAt emittedAt late
//	    nUnresolved × (reducer, bytes) at seq)
//	nAggregates, ascending pair key, each: keySrc keyDst repSrc repDst
//	  pathSrc pathDst nLinks × link | cookie | demandBits |
//	  flags byte (1 placed, 2 degraded) | nPerReducer × (job, reducer, bits)

func appendInt(dst []byte, v int) []byte       { return binary.AppendVarint(dst, int64(v)) }
func appendCount(dst []byte, n int) []byte     { return binary.AppendUvarint(dst, uint64(n)) }
func appendTime(dst []byte, t sim.Time) []byte { return appendF64(dst, float64(t)) }
func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendSnapshot appends the collector's full state to dst in the binary
// snapshot format and returns the extended slice. It reads the job tables in
// place — no intermediate maps, no reflection — so the serving plane can run
// it inside the batch loop's critical section. DecodeSnapshot of the result
// equals Snapshot(). The caller must hold the same exclusion ApplyBatch
// requires.
func (p *Pythia) AppendSnapshot(dst []byte) []byte {
	ttl := p.cfg.BookingTTL > 0
	dst = append(dst, snapshotVersion)
	dst = appendCount(dst, len(p.shards))
	dst = append(dst, b2u(ttl))
	dst = binary.AppendUvarint(dst, p.nextSeq)
	dst = binary.AppendUvarint(dst, p.nextCookie)
	for _, c := range [...]int{p.AggregatesPlaced, p.Reaffirmations, p.Reallocations,
		p.RuleInstallErrors, p.FlowsRescued, p.AggregatesDegraded, p.Reconciliations} {
		dst = appendInt(dst, c)
	}
	for _, sh := range p.shards {
		for _, c := range [...]int{sh.intentsReceived, sh.intentsDeferred, sh.dedupHits,
			sh.duplicateIntents, sh.expiredBookings, sh.expiredIntents} {
			dst = appendInt(dst, c)
		}
		dst = appendCount(dst, sh.booked)
		dst = appendCount(dst, len(sh.jobs))
		for job, js := range sh.jobs {
			dst = appendInt(dst, job)
			if ttl {
				dst = appendTime(dst, js.lastSeen)
			}
			dst = js.appendTo(dst)
		}
	}
	dst = appendCount(dst, p.pairs.n)
	for _, a := range p.sortedAggregates() {
		for _, n := range [...]topology.NodeID{a.key.src, a.key.dst, a.repSrc, a.repDst, a.path.Src, a.path.Dst} {
			dst = appendInt(dst, int(n))
		}
		dst = appendCount(dst, len(a.path.Links))
		for _, l := range a.path.Links {
			dst = appendInt(dst, int(l))
		}
		dst = binary.AppendUvarint(dst, a.cookie)
		dst = appendF64(dst, a.demandBits)
		dst = append(dst, b2u(a.placed)|b2u(a.degraded)<<1)
		dst = appendCount(dst, len(a.perReducer))
		for _, e := range a.perReducer {
			dst = appendInt(dst, e.job)
			dst = appendInt(dst, e.reduce)
			dst = appendF64(dst, e.bits)
		}
	}
	return dst
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendTo appends one job's tables (everything after the job ID and
// lastSeen) in the binary snapshot format.
func (js *jobState) appendTo(dst []byte) []byte {
	dst = appendCount(dst, len(js.reducerLoc))
	for r, host := range js.reducerLoc {
		dst = appendInt(dst, r)
		dst = appendInt(dst, int(host))
	}
	dst = appendCount(dst, len(js.backlog))
	for _, bits := range js.backlog {
		dst = appendF64(dst, bits)
	}
	dst = appendCount(dst, len(js.seen))
	for k := range js.seen {
		dst = appendInt(dst, k[0])
		dst = appendInt(dst, k[1])
	}
	dst = appendCount(dst, len(js.booked))
	for m, row := range js.booked {
		for len(row) > 0 && row[len(row)-1].bits == 0 {
			row = row[:len(row)-1] // released slots past the last live one carry nothing
		}
		dst = appendInt(dst, m)
		dst = appendCount(dst, len(row))
		for i := range row {
			b := &row[i]
			if b.bits == 0 {
				dst = append(dst, 0)
				continue
			}
			dst = append(dst, 1)
			dst = appendF64(dst, b.bits)
			dst = appendInt(dst, int(b.src))
			dst = appendInt(dst, int(b.dst))
			dst = appendTime(dst, b.at)
		}
	}
	dst = appendCount(dst, len(js.pending))
	for _, pi := range js.pending {
		in := &pi.intent
		dst = appendInt(dst, in.Map)
		dst = appendInt(dst, in.Attempt)
		dst = appendInt(dst, int(in.SrcHost))
		dst = appendCount(dst, len(in.PredictedWireBytes))
		for _, b := range in.PredictedWireBytes {
			dst = appendF64(dst, b)
		}
		dst = appendTime(dst, in.MapFinishedAt)
		dst = appendTime(dst, in.EmittedAt)
		dst = append(dst, b2u(in.Late))
		dst = appendCount(dst, len(pi.unresolved))
		for r, b := range pi.unresolved {
			dst = appendInt(dst, r)
			dst = appendF64(dst, b)
		}
		dst = appendTime(dst, pi.at)
		dst = binary.AppendUvarint(dst, pi.seq)
	}
	return dst
}

// snapReader consumes the binary snapshot format. The first malformed field
// latches err and empties the input, after which every read returns zero —
// decode loops run out instead of checking each field.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: decoding snapshot: "+format, args...)
	}
	r.b = nil
}

func (r *snapReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// count reads the count of elements that each take at least one byte, so a
// count beyond the bytes remaining is corrupt — checked here, before anything
// is sized from it.
func (r *snapReader) count() int { return r.countOf(1) }

// countOf is count for elements of at least size bytes each.
func (r *snapReader) countOf(size int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/size) {
		r.fail("count %d exceeds the %d bytes remaining", v, len(r.b))
		return 0
	}
	return int(v)
}

// f64 reads one float. NaN is rejected: collector state never holds one, and
// a NaN would make a decoded snapshot unequal to itself.
func (r *snapReader) f64() float64 {
	if len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if v != v {
		r.fail("NaN")
		return 0
	}
	return v
}

func (r *snapReader) time() sim.Time { return sim.Time(r.f64()) }

func (r *snapReader) bool() bool {
	v := r.byte()
	if v > 1 {
		r.fail("bool byte %d", v)
	}
	return v == 1
}

const (
	// minShardBytes is the smallest encoded shard: six counters, the booked
	// hint and the job count.
	minShardBytes = 6 + 1 + 1
	// minBookingBytes is the smallest encoded live booking slot: tag, bits,
	// two one-byte IDs, at.
	minBookingBytes = 1 + 8 + 1 + 1 + 8
)

// DecodeSnapshot parses AppendSnapshot's output into the Snapshot Restore
// consumes, in Snapshot()'s canonical shape: Pending seq-ascending per shard,
// Aggregates by ascending pair key, JobLastSeen nil when the TTL sweep was
// off. Corrupt input — an unknown version, a count the remaining bytes cannot
// hold, a job outside its shard, out-of-order aggregates or pending seqs,
// trailing bytes — is an error, never a panic or an oversized allocation.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := &snapReader{b: data}
	if v := r.byte(); r.err == nil && v != snapshotVersion {
		return nil, fmt.Errorf("core: decoding snapshot: version %d, want %d", v, snapshotVersion)
	}
	nShards := r.countOf(minShardBytes)
	ttl := r.bool()
	s := &Snapshot{
		Shards:     make([]ShardSnap, nShards),
		NextSeq:    r.uvarint(),
		NextCookie: r.uvarint(),

		AggregatesPlaced:   r.int(),
		Reaffirmations:     r.int(),
		Reallocations:      r.int(),
		RuleInstallErrors:  r.int(),
		FlowsRescued:       r.int(),
		AggregatesDegraded: r.int(),
		Reconciliations:    r.int(),
	}
	for i := 0; i < nShards && r.err == nil; i++ {
		ss := &s.Shards[i]
		*ss = ShardSnap{
			IntentsReceived:  r.int(),
			IntentsDeferred:  r.int(),
			DedupHits:        r.int(),
			DuplicateIntents: r.int(),
			ExpiredBookings:  r.int(),
			ExpiredIntents:   r.int(),
		}
		booked := r.count()
		ss.ReducerLoc = make(map[[2]int]topology.NodeID)
		ss.Booked = make(map[FlowKey]BookingSnap, min(booked, len(r.b)/minBookingBytes))
		ss.RedBacklog = make(map[[2]int]float64)
		ss.Seen = make(map[[3]int]bool)
		if ttl {
			ss.JobLastSeen = make(map[int]sim.Time)
		}
		for n := r.count(); n > 0 && r.err == nil; n-- {
			job := r.int()
			if job%nShards != i {
				r.fail("job %d in shard %d of %d", job, i, nShards)
			}
			if ttl {
				ss.JobLastSeen[job] = r.time()
			}
			r.job(ss, job)
		}
		sort.Slice(ss.Pending, func(a, b int) bool { return ss.Pending[a].Seq < ss.Pending[b].Seq })
		for k := 1; k < len(ss.Pending); k++ {
			if ss.Pending[k-1].Seq == ss.Pending[k].Seq {
				r.fail("shard %d holds two pending intents with seq %d", i, ss.Pending[k].Seq)
			}
		}
	}
	for n := r.count(); n > 0 && r.err == nil; n-- {
		as := AggSnap{KeySrc: r.node(), KeyDst: r.node(), RepSrc: r.node(), RepDst: r.node()}
		as.Path.Src, as.Path.Dst = r.node(), r.node()
		if nl := r.count(); nl > 0 {
			as.Path.Links = make([]topology.LinkID, nl)
			for k := range as.Path.Links {
				as.Path.Links[k] = topology.LinkID(r.int())
			}
		}
		as.Cookie = r.uvarint()
		as.DemandBits = r.f64()
		flags := r.byte()
		if flags > 3 {
			r.fail("aggregate flags %#x", flags)
		}
		as.Placed, as.Degraded = flags&1 != 0, flags&2 != 0
		as.PerReducer = make(map[[2]int]float64)
		for m := r.count(); m > 0 && r.err == nil; m-- {
			k := [2]int{r.int(), r.int()}
			as.PerReducer[k] = r.f64()
		}
		if last := len(s.Aggregates) - 1; last >= 0 {
			prev := s.Aggregates[last]
			if !(pairKey{prev.KeySrc, prev.KeyDst}).less(pairKey{as.KeySrc, as.KeyDst}) {
				r.fail("aggregates not in ascending pair-key order")
			}
		}
		s.Aggregates = append(s.Aggregates, as)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

func (r *snapReader) node() topology.NodeID { return topology.NodeID(r.int()) }

// job decodes one job's tables into the shard's (job, …)-keyed maps.
func (r *snapReader) job(ss *ShardSnap, job int) {
	for n := r.count(); n > 0 && r.err == nil; n-- {
		k := [2]int{job, r.int()}
		ss.ReducerLoc[k] = r.node()
	}
	n := r.count()
	for red := 0; red < n && r.err == nil; red++ {
		if bits := r.f64(); bits != 0 {
			ss.RedBacklog[[2]int{job, red}] = bits
		}
	}
	for n := r.count(); n > 0 && r.err == nil; n-- {
		ss.Seen[[3]int{job, r.int(), r.int()}] = true
	}
	for rows := r.count(); rows > 0 && r.err == nil; rows-- {
		m := r.int()
		n := r.count()
		for red := 0; red < n && r.err == nil; red++ {
			if !r.bool() {
				continue
			}
			b := BookingSnap{Bits: r.f64(), Src: r.node(), Dst: r.node(), At: r.time()}
			if b.Bits == 0 {
				r.fail("live booking slot with zero bits")
			}
			ss.Booked[FlowKey{job, m, red}] = b
		}
	}
	for n := r.count(); n > 0 && r.err == nil; n-- {
		ps := PendingSnap{Intent: instrument.Intent{Job: job, Map: r.int(), Attempt: r.int(), SrcHost: r.node()}}
		if nb := r.countOf(8); nb > 0 {
			ps.Intent.PredictedWireBytes = make([]float64, nb)
			for k := range ps.Intent.PredictedWireBytes {
				ps.Intent.PredictedWireBytes[k] = r.f64()
			}
		}
		ps.Intent.MapFinishedAt, ps.Intent.EmittedAt = r.time(), r.time()
		ps.Intent.Late = r.bool()
		ps.Unresolved = make(map[int]float64)
		for m := r.count(); m > 0 && r.err == nil; m-- {
			red := r.int()
			ps.Unresolved[red] = r.f64()
		}
		ps.At, ps.Seq = r.time(), r.uvarint()
		ss.Pending = append(ss.Pending, ps)
	}
}

// Restore rebuilds collector state from a snapshot. It must run
// on a freshly constructed Pythia (same Config.Shards, same fabric) before
// any ingest; rules held by snapshotted aggregates are re-programmed into
// the fresh controller under their original cookies — the restart-time
// switch re-sync a physical deployment would perform. After Restore the
// caller advances the engine to the snapshot instant and replays the
// journal tail.
func (p *Pythia) Restore(s *Snapshot) error {
	if len(s.Shards) != len(p.shards) {
		return fmt.Errorf("core: snapshot has %d shards, collector %d (shard count must match across restart)",
			len(s.Shards), len(p.shards))
	}
	for i, sh := range p.shards {
		if len(sh.jobs) != 0 {
			return fmt.Errorf("core: Restore on a non-fresh collector (shard %d has state)", i)
		}
	}
	if err := p.checkFabric(s); err != nil {
		return err
	}
	p.nextSeq = s.NextSeq
	p.nextCookie = s.NextCookie
	p.AggregatesPlaced = s.AggregatesPlaced
	p.Reaffirmations = s.Reaffirmations
	p.Reallocations = s.Reallocations
	p.RuleInstallErrors = s.RuleInstallErrors
	p.FlowsRescued = s.FlowsRescued
	p.AggregatesDegraded = s.AggregatesDegraded
	p.Reconciliations = s.Reconciliations

	for i, ss := range s.Shards {
		sh := p.shards[i]
		sh.intentsReceived = ss.IntentsReceived
		sh.intentsDeferred = ss.IntentsDeferred
		sh.dedupHits = ss.DedupHits
		sh.duplicateIntents = ss.DuplicateIntents
		sh.expiredBookings = ss.ExpiredBookings
		sh.expiredIntents = ss.ExpiredIntents
		for k, host := range ss.ReducerLoc {
			sh.job(k[0]).reducerLoc[k[1]] = host
		}
		for fk, b := range ss.Booked {
			js := sh.job(fk.Job)
			js.row(fk.Map, fk.Reduce+1)[fk.Reduce] = booking{bits: b.Bits, src: b.Src, dst: b.Dst, at: b.At}
			js.nBooked++
		}
		sh.booked = len(ss.Booked)
		for k, bits := range ss.RedBacklog {
			js := sh.job(k[0])
			js.reach(k[1] + 1)
			js.backlog[k[1]] = bits
		}
		for k := range ss.Seen {
			sh.job(k[0]).seen[[2]int{k[1], k[2]}] = true
		}
		for job, at := range ss.JobLastSeen {
			sh.job(job).lastSeen = at
		}
		// Snapshot pending lists are seq-ascending across the shard, so each
		// job's sublist comes out seq-ascending too.
		for _, ps := range ss.Pending {
			pi := &pendingIntent{intent: ps.Intent, unresolved: make(map[int]float64, len(ps.Unresolved)),
				at: ps.At, seq: ps.Seq}
			for r, b := range ps.Unresolved {
				pi.unresolved[r] = b
			}
			js := sh.job(ps.Intent.Job)
			js.pending = append(js.pending, pi)
		}
		sh.pending = len(ss.Pending)
	}

	for _, as := range s.Aggregates {
		a := &aggregate{
			key:        pairKey{as.KeySrc, as.KeyDst},
			repSrc:     as.RepSrc,
			repDst:     as.RepDst,
			path:       topology.Path{Links: append([]topology.LinkID(nil), as.Path.Links...), Src: as.Path.Src, Dst: as.Path.Dst},
			cookie:     as.Cookie,
			demandBits: as.DemandBits,
			placed:     as.Placed,
			degraded:   as.Degraded,
			perReducer: make([]reducerDemand, 0, len(as.PerReducer)),
		}
		for k, v := range as.PerReducer {
			a.perReducer = append(a.perReducer, reducerDemand{job: k[0], reduce: k[1], bits: v})
		}
		sort.Slice(a.perReducer, func(i, j int) bool {
			return a.perReducer[i].before(a.perReducer[j].job, a.perReducer[j].reduce)
		})
		p.pairs.put(a)
		if a.placed {
			p.indexAgg(a)
		} else {
			p.enqueue(a)
		}
		if a.cookie != 0 {
			// Re-program the rules the crashed process had installed. The
			// fresh control plane is assumed reachable at restore time, so
			// no degrade handling is wired; install acks are pure no-ops.
			if p.cfg.Scope == ScopeRackPair {
				p.ofc.InstallSteering(openflow.RackPair(int(a.key.src), int(a.key.dst)),
					a.path, p.cfg.RulePriority, a.cookie, nil)
			} else {
				p.ofc.InstallPath(openflow.HostPair(a.key.src, a.key.dst),
					a.path, p.cfg.RulePriority, a.cookie, nil)
			}
		}
	}
	return nil
}

// checkFabric rejects a snapshot that names a node or link this collector's
// fabric does not have — a snapshot of some other fabric, which would index
// past the fabric's tables on the first batch — or that files two aggregates
// under one pair. Every node it names is checked: aggregate keys (hosts, or
// racks under ScopeRackPair), representative and path endpoints, path links,
// booking endpoints, reducer hosts and deferred intents' source hosts.
func (p *Pythia) checkFabric(s *Snapshot) error {
	mismatch := func(what string, n topology.NodeID) error {
		return fmt.Errorf("core: snapshot names %s %d, not in the fabric's %d nodes (fabric must match across restart)",
			what, n, p.g.NumNodes())
	}
	isNode := func(n topology.NodeID) bool { return uint(n) < uint(p.g.NumNodes()) }
	isHost := func(n topology.NodeID) bool { return isNode(n) && p.g.Node(n).Kind == topology.Host }
	isKey, keyKind := isHost, "host"
	if p.cfg.Scope == ScopeRackPair {
		racks := make(map[topology.NodeID]bool)
		for _, n := range p.g.Nodes() {
			if n.Kind == topology.Host {
				racks[topology.NodeID(n.Rack)] = true
			}
		}
		isKey, keyKind = func(n topology.NodeID) bool { return racks[n] }, "rack"
	}
	for i, as := range s.Aggregates {
		for _, n := range [...]topology.NodeID{as.KeySrc, as.KeyDst} {
			if !isKey(n) {
				return mismatch("aggregate key "+keyKind, n)
			}
		}
		for _, n := range [...]topology.NodeID{as.RepSrc, as.RepDst} {
			if !isHost(n) {
				return mismatch("aggregate endpoint host", n)
			}
		}
		for _, n := range [...]topology.NodeID{as.Path.Src, as.Path.Dst} {
			if !isNode(n) {
				return mismatch("path endpoint", n)
			}
		}
		for _, l := range as.Path.Links {
			if l < 0 || int(l) >= p.g.NumLinks() {
				return fmt.Errorf("core: snapshot places pair %d->%d on link %d, fabric has %d links (fabric must match across restart)",
					as.KeySrc, as.KeyDst, l, p.g.NumLinks())
			}
		}
		if i > 0 && !(pairKey{s.Aggregates[i-1].KeySrc, s.Aggregates[i-1].KeyDst}).less(pairKey{as.KeySrc, as.KeyDst}) {
			return fmt.Errorf("core: snapshot aggregates not in ascending pair-key order at pair %d->%d", as.KeySrc, as.KeyDst)
		}
	}
	for _, ss := range s.Shards {
		for _, b := range ss.Booked {
			for _, n := range [...]topology.NodeID{b.Src, b.Dst} {
				if !isHost(n) {
					return mismatch("booking endpoint host", n)
				}
			}
		}
		for _, n := range ss.ReducerLoc {
			if !isHost(n) {
				return mismatch("reducer host", n)
			}
		}
		for _, ps := range ss.Pending {
			if !isHost(ps.Intent.SrcHost) {
				return mismatch("deferred intent source host", ps.Intent.SrcHost)
			}
		}
	}
	return nil
}

// NovelOps counts the operations of a batch that represent new work rather
// than at-least-once redelivery: intents not yet in the idempotence set,
// reducer placements that change the recorded host, and retirements of jobs
// the collector still knows. The serving layer's logical clock advances by
// this count, so a retried request — same ops, already applied — moves
// virtual time by zero and a crashed-and-recovered run keeps the exact
// sweep schedule of an uninterrupted one.
//
// The count is evaluated against pre-batch state (plus earlier ops of the
// same batch), is read-only, and is deterministic: journal replay re-derives
// the same value the original run metered.
func (p *Pythia) NovelOps(ops []Op) int {
	novel := 0
	var seenScratch map[[3]int]bool
	var redScratch map[[2]int]topology.NodeID
	var jobScratch map[int]bool // job known (true) / retired (false) by earlier ops in this batch
	markJob := func(job int, known bool) {
		if jobScratch == nil {
			jobScratch = make(map[int]bool)
		}
		jobScratch[job] = known
	}
	for i := range ops {
		op := &ops[i]
		job := op.job()
		js := p.shardOf(job).jobs[job]
		switch op.Kind {
		case OpIntent:
			k := [3]int{job, op.Intent.Map, op.Intent.Attempt}
			if seenScratch[k] || (js != nil && js.seen[[2]int{k[1], k[2]}]) {
				continue
			}
			if seenScratch == nil {
				seenScratch = make(map[[3]int]bool)
			}
			seenScratch[k] = true
			markJob(job, true)
			novel++
		case OpReducerUp:
			k := [2]int{job, op.Reducer.Reduce}
			cur, ok := redScratch[k]
			if !ok && js != nil {
				cur, ok = js.reducerLoc[op.Reducer.Reduce]
			}
			if ok && cur == op.Reducer.Host {
				continue
			}
			if redScratch == nil {
				redScratch = make(map[[2]int]topology.NodeID)
			}
			redScratch[k] = op.Reducer.Host
			markJob(job, true)
			novel++
		case OpJobDone:
			// Without the TTL sweep a lost JobDone is never cleaned up after,
			// so every JobDone meters (the documented conservative fallback).
			known, ok := jobScratch[job]
			if !ok {
				known = js != nil || p.cfg.BookingTTL <= 0
			}
			if !known {
				continue
			}
			markJob(job, false)
			novel++
		}
	}
	return novel
}
