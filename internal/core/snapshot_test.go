package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// snapStack is a collector driven the way the serving plane drives it:
// batches applied under a NovelOps-metered logical clock, no Hadoop cluster.
type snapStack struct {
	eng *sim.Engine
	py  *Pythia
	dig *placementDigest

	virtual float64
	clockHz float64
}

func newSnapStack(t testing.TB, shards int, ttl sim.Duration, clockHz float64) *snapStack {
	t.Helper()
	eng := sim.NewEngine()
	g, _, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	py := New(eng, net, ofc, Config{Aggregate: true, UseCriticality: true,
		Shards: shards, BookingTTL: ttl})
	s := &snapStack{eng: eng, py: py, dig: newPlacementDigest(), clockHz: clockHz}
	py.SetPlacementHook(s.dig.observe)
	return s
}

// apply runs one batch exactly like the serving loop: advance the logical
// clock by the batch's novel-op count, run the engine to the new instant
// (firing any due TTL sweeps), then ApplyBatch.
func (s *snapStack) apply(ops []Op) {
	s.virtual += float64(s.py.NovelOps(ops)) / s.clockHz
	s.eng.RunUntil(sim.Time(s.virtual))
	s.py.ApplyBatch(ops, 1)
}

// gobRoundTrip pushes a snapshot through the codec the serving plane used
// for its snapshot files through PR 21 and still reads, so the restore tests
// also prove that representation is lossless (exact float bits, array-keyed
// maps and all).
func gobRoundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	out := new(Snapshot)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// binaryRoundTrip captures the collector the way the serving plane does —
// AppendSnapshot straight from the job tables — and decodes it back.
func binaryRoundTrip(t *testing.T, p *Pythia) *Snapshot {
	t.Helper()
	out, err := DecodeSnapshot(p.AppendSnapshot(nil))
	if err != nil {
		t.Fatalf("decoding a fresh binary snapshot: %v", err)
	}
	return out
}

// snapshotCodecs are the two on-disk representations a restart may find.
var snapshotCodecs = []struct {
	name    string
	capture func(*testing.T, *Pythia) *Snapshot
}{
	{"gob", func(t *testing.T, p *Pythia) *Snapshot { return gobRoundTrip(t, p.Snapshot()) }},
	{"binary", binaryRoundTrip},
}

// TestSnapshotRestoreContinuesIdentically is the core recovery proof: take a
// snapshot mid-stream, rebuild a fresh stack from its round trip through each
// codec, and drive both the original and the restored collector through the
// identical remainder — placement digests, stats, and leak gauges must stay
// bit-identical, TTL sweeps included.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	for _, codec := range snapshotCodecs {
		t.Run(codec.name, func(t *testing.T) { testRestoreContinuesIdentically(t, codec.capture) })
	}
}

func testRestoreContinuesIdentically(t *testing.T, capture func(*testing.T, *Pythia) *Snapshot) {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	ops := batchTrace(hosts, 9, 6, 4, 42)
	const chunk, cutChunk = 17, 4
	const clockHz = 1.0

	oracle := newSnapStack(t, 2, 40, clockHz)
	var snap *Snapshot
	var snapVirtual float64
	var snapDig placementDigest
	for at, i := 0, 0; at < len(ops); at, i = at+chunk, i+1 {
		end := at + chunk
		if end > len(ops) {
			end = len(ops)
		}
		oracle.apply(ops[at:end])
		if i == cutChunk {
			// One aggregate goes into the snapshot degraded: unplaced, so
			// Restore must put it back on the worklist.
			oracle.py.degrade(oracle.py.sortedAggregates()[0])
			snap = capture(t, oracle.py)
			snapVirtual = oracle.virtual
			snapDig = *oracle.dig
		}
		if i == cutChunk+1 {
			oracle.py.onControllerUp()
		}
		checkWorklist(t, oracle.py)
	}
	if snap == nil {
		t.Fatal("trace too short to reach the snapshot chunk")
	}
	if oracle.py.Stats().ExpiredBookings == 0 {
		t.Fatal("trace never exercised the TTL sweep; the test is too weak")
	}

	restored := newSnapStack(t, 2, 40, clockHz)
	if err := restored.py.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	restored.virtual = snapVirtual
	*restored.dig = snapDig
	checkWorklist(t, restored.py)
	if len(restored.py.unplaced) != 1 || !restored.py.unplaced[0].degraded {
		t.Fatalf("restored worklist %+v, want the one degraded aggregate", restored.py.unplaced)
	}
	// Catch-up: run the fresh engine to the snapshot instant. Every TTL
	// sweep fired on the way is a no-op against restored state (anything it
	// could expire was expired by the same sweep before the snapshot).
	preCatchUp := restored.py.Stats()
	restored.eng.RunUntil(sim.Time(snapVirtual))
	if st := restored.py.Stats(); st != preCatchUp {
		t.Fatalf("catch-up sweeps mutated state:\n got %+v\nwant %+v", st, preCatchUp)
	}
	for at := (cutChunk + 1) * chunk; at < len(ops); at += chunk {
		end := at + chunk
		if end > len(ops) {
			end = len(ops)
		}
		restored.apply(ops[at:end])
		if at == (cutChunk+1)*chunk {
			restored.py.onControllerUp()
		}
		checkWorklist(t, restored.py)
	}
	if oracle.py.Reconciliations != 1 {
		t.Fatalf("oracle reconciled %d aggregates, want the degraded one", oracle.py.Reconciliations)
	}

	if restored.dig.h != oracle.dig.h || restored.dig.n != oracle.dig.n {
		t.Errorf("placement digest diverged after restore: %x/%d vs %x/%d",
			restored.dig.h, restored.dig.n, oracle.dig.h, oracle.dig.n)
	}
	if got, want := restored.py.Stats(), oracle.py.Stats(); got != want {
		t.Errorf("stats diverged after restore:\n got %+v\nwant %+v", got, want)
	}
	if restored.virtual != oracle.virtual {
		t.Errorf("logical clock diverged: %v vs %v", restored.virtual, oracle.virtual)
	}
	if n := restored.py.OutstandingTotal(); n != oracle.py.OutstandingTotal() {
		t.Errorf("leak gauge diverged: %d vs %d", n, oracle.py.OutstandingTotal())
	}
}

// TestRestoreAcrossShardCounts: a restart may change the shard count. A
// snapshot cut at 4 shards restores at 1 and at 8 through either codec, with
// every job on its home shard, the gauges recomputed from the jobs and the
// counters summed, and the common tail then reaches the uninterrupted 4-shard
// run's placement digest and Stats() totals with nothing leaked.
func TestRestoreAcrossShardCounts(t *testing.T) {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	ops := batchTrace(hosts, 9, 6, 4, 42)
	const chunk, cut = 17, 5 * 17
	const clockHz = 1.0

	oracle := newSnapStack(t, 4, 40, clockHz)
	snaps := make([]*Snapshot, len(snapshotCodecs))
	var cutStats CollectorStats
	var cutVirtual float64
	var cutDig placementDigest
	for at := 0; at < len(ops); at += chunk {
		oracle.apply(ops[at:min(at+chunk, len(ops))])
		if at+chunk == cut {
			for i, codec := range snapshotCodecs {
				snaps[i] = codec.capture(t, oracle.py)
			}
			cutStats, cutVirtual, cutDig = oracle.py.Stats(), oracle.virtual, *oracle.dig
		}
	}
	if cutStats.OutstandingBookings == 0 || cutStats.PendingIntents == 0 || cutStats.DedupHits == 0 {
		t.Fatalf("the cut holds too little state to fold: %+v", cutStats)
	}
	final := oracle.py.Stats()
	if final.ExpiredBookings == 0 {
		t.Fatal("trace never exercised the TTL sweep; the test is too weak")
	}

	for _, shards := range []int{1, 8} {
		for i, codec := range snapshotCodecs {
			name := fmt.Sprintf("shards=%d %s", shards, codec.name)
			s := newSnapStack(t, shards, 40, clockHz)
			if err := s.py.Restore(snaps[i]); err != nil {
				t.Fatalf("%s: restoring a 4-shard snapshot: %v", name, err)
			}
			for si, sh := range s.py.shards {
				booked, pending := 0, 0
				for job, js := range sh.jobs {
					if job%shards != si {
						t.Fatalf("%s: job %d restored into shard %d", name, job, si)
					}
					booked += js.nBooked
					pending += len(js.pending)
				}
				if sh.booked != booked || sh.pending != pending {
					t.Fatalf("%s: shard %d gauges booked=%d pending=%d, its jobs hold %d/%d",
						name, si, sh.booked, sh.pending, booked, pending)
				}
			}
			if st := s.py.Stats(); st.Shards != shards {
				t.Fatalf("%s: Stats().Shards = %d", name, st.Shards)
			} else if st.Shards = cutStats.Shards; st != cutStats {
				t.Fatalf("%s: Stats() after restore\n got %+v\nwant %+v", name, st, cutStats)
			}
			checkWorklist(t, s.py)

			s.virtual, *s.dig = cutVirtual, cutDig
			s.eng.RunUntil(sim.Time(cutVirtual))
			for at := cut; at < len(ops); at += chunk {
				s.apply(ops[at:min(at+chunk, len(ops))])
			}
			if s.dig.h != oracle.dig.h || s.dig.n != oracle.dig.n {
				t.Errorf("%s: placement digest %x/%d, uninterrupted 4-shard run %x/%d",
					name, s.dig.h, s.dig.n, oracle.dig.h, oracle.dig.n)
			}
			st := s.py.Stats()
			st.Shards = final.Shards
			if st != final {
				t.Errorf("%s: stats\n got %+v\nwant %+v", name, st, final)
			}
			if n := s.py.OutstandingTotal(); n != 0 {
				t.Errorf("%s: %d leaked bookings", name, n)
			}
		}
	}
}

// TestSnapshotGobLossless proves the snapshot of a collector with live state
// survives the gob codec structurally intact.
func TestSnapshotGobLossless(t *testing.T) {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	s := newSnapStack(t, 2, 40, 4)
	ops := batchTrace(hosts, 5, 4, 4, 7)
	s.apply(ops[:len(ops)/2]) // stop mid-stream so pending/booked state is live
	snap := s.py.Snapshot()
	if len(snap.Aggregates) == 0 {
		t.Fatal("snapshot captured no aggregates; the test is too weak")
	}
	got := gobRoundTrip(t, snap)
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("gob round trip not lossless:\n got %+v\nwant %+v", got, snap)
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	a := newSnapStack(t, 2, 40, 4)
	snap := a.py.Snapshot()

	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	dirty := newSnapStack(t, 2, 40, 4)
	dirty.apply([]Op{{Kind: OpIntent, Intent: instrument.Intent{Job: 1, Map: 0,
		SrcHost: hosts[0], PredictedWireBytes: []float64{1e6}}}})
	if err := dirty.py.Restore(snap); err == nil {
		t.Error("restore onto a non-fresh collector succeeded")
	}

	// A snapshot naming a node the fabric does not have — a larger fabric's
	// — is refused; admitted, the first batch would index past the fabric.
	foreign, err := DecodeSnapshot(foreignNodeSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := newSnapStack(t, 2, 40, 4).py.Restore(foreign); err == nil || !strings.Contains(err.Error(), "fabric must match") {
		t.Errorf("restore of a snapshot naming node 500: err = %v", err)
	}
	// Each other place a snapshot names a node, one at a time.
	live := newSnapStack(t, 2, 40, 4)
	live.apply([]Op{{Kind: OpReducerUp, Reducer: up(1, 0, hosts[5])},
		{Kind: OpIntent, Intent: intent(1, 0, hosts[0], []float64{1e6, 2e6})}})
	for _, c := range []struct {
		name string
		edit func(*Snapshot)
	}{
		{"aggregate key dst", func(s *Snapshot) { s.Aggregates[0].KeyDst = 500 }},
		{"aggregate key is a switch", func(s *Snapshot) { s.Aggregates[0].KeySrc = 0 }},
		{"representative dst", func(s *Snapshot) { s.Aggregates[0].RepDst = -1 }},
		{"path endpoint", func(s *Snapshot) { s.Aggregates[0].Path.Dst = 500 }},
		{"booking dst", func(s *Snapshot) {
			for k, b := range s.Shards[1].Booked {
				b.Dst = 500
				s.Shards[1].Booked[k] = b
			}
		}},
		{"reducer host", func(s *Snapshot) { s.Shards[1].ReducerLoc[[2]int{1, 0}] = 500 }},
		{"deferred intent source", func(s *Snapshot) { s.Shards[1].Pending[0].Intent.SrcHost = 500 }},
		{"duplicate pair", func(s *Snapshot) { s.Aggregates = append(s.Aggregates, s.Aggregates[0]) }},
	} {
		snap := live.py.Snapshot()
		if len(snap.Aggregates) != 1 || len(snap.Shards[1].Booked) != 1 || len(snap.Shards[1].Pending) != 1 {
			t.Fatalf("fixture: %d aggregates, %d bookings, %d deferred intents; want 1 each",
				len(snap.Aggregates), len(snap.Shards[1].Booked), len(snap.Shards[1].Pending))
		}
		c.edit(snap)
		if err := newSnapStack(t, 2, 40, 4).py.Restore(snap); err == nil {
			t.Errorf("%s: restore of a snapshot of another fabric succeeded", c.name)
		}
	}
}

// foreignNodeSnapshot is a binary snapshot of a TwoRack collector rewritten
// to name node 500, which the 12-node fabric does not have: one unplaced
// aggregate's key and representative source, and its booking's source.
// Restored, the aggregate is a placement candidate of the next batch, and it
// owes more demand than its booking, so it outlives a batch that retires the
// booking's job.
func foreignNodeSnapshot(t testing.TB) []byte {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	s := newSnapStack(t, 2, 40, 4)
	s.apply([]Op{{Kind: OpReducerUp, Reducer: up(1, 0, hosts[5])},
		{Kind: OpIntent, Intent: intent(1, 0, hosts[0], []float64{1e6})}})
	a := s.py.aggregateOf(hosts[0], hosts[5])
	s.py.degrade(a)    // unplaced and rule-free ...
	a.degraded = false // ... but still a candidate
	a.key.src, a.repSrc = 500, 500
	a.demandBits *= 2
	s.py.shardOf(1).jobs[1].booked[0][0].src = 500
	return s.py.AppendSnapshot(nil)
}

// TestNovelOps pins the duplicate-exemption rules of the logical clock: a
// redelivered batch must meter zero, and intra-batch ordering must be
// respected so replay re-derives the exact advance the original run used.
func TestNovelOps(t *testing.T) {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	s := newSnapStack(t, 2, 40, 4)
	in := instrument.Intent{Job: 1, Map: 0, Attempt: 0, SrcHost: hosts[0],
		PredictedWireBytes: []float64{5e6, 5e6}}
	batch := []Op{
		{Kind: OpIntent, Intent: in},
		{Kind: OpIntent, Intent: in}, // intra-batch dup: not novel
		{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: 1, Reduce: 0, Host: hosts[5]}},
		{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: 1, Reduce: 0, Host: hosts[5]}}, // same host: not novel
		{Kind: OpJobDone, Job: 99}, // unknown job: not novel
	}
	if n := s.py.NovelOps(batch); n != 2 {
		t.Errorf("NovelOps(first delivery) = %d, want 2", n)
	}
	s.apply(batch) // commit intent + reducer placement, keep job 1 live
	if n := s.py.NovelOps(batch); n != 0 {
		t.Errorf("NovelOps(redelivery) = %d, want 0", n)
	}
	// Moving a reducer to a new host is real work, metered.
	if n := s.py.NovelOps([]Op{{Kind: OpReducerUp,
		Reducer: instrument.ReducerUp{Job: 1, Reduce: 0, Host: hosts[6]}}}); n != 1 {
		t.Errorf("NovelOps(reducer moved) = %d, want 1", n)
	}
	// JobDone for a live job meters 1; after it retires the job the same
	// batch sees the job as gone.
	if n := s.py.NovelOps([]Op{{Kind: OpJobDone, Job: 1}, {Kind: OpJobDone, Job: 1}}); n != 1 {
		t.Errorf("NovelOps(done,done) = %d, want 1", n)
	}
	s.apply([]Op{{Kind: OpJobDone, Job: 1}})
	if n := s.py.NovelOps([]Op{{Kind: OpJobDone, Job: 1}}); n != 0 {
		t.Errorf("NovelOps(done after retire) = %d, want 0", n)
	}

	// Without TTL bookkeeping there is no liveness table; JobDone always
	// meters (documented conservative fallback).
	noTTL := newSnapStack(t, 1, 0, 4)
	if n := noTTL.py.NovelOps([]Op{{Kind: OpJobDone, Job: 5}}); n != 1 {
		t.Errorf("NovelOps(JobDone, no TTL) = %d, want 1", n)
	}
}

// TestSnapshotCanonicalAcrossRestore: the job table flattens into one
// canonical snapshot. With deferred intents from interleaved jobs live, each
// shard's Pending comes out merged by arrival seq (not grouped by job), and
// snapshot -> either codec -> Restore -> Snapshot reproduces the snapshot
// exactly, at any shard count.
func TestSnapshotCanonicalAcrossRestore(t *testing.T) {
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	ops := batchTrace(hosts, 9, 6, 4, 42)
	for _, shards := range []int{1, 2, 8} {
		s := newSnapStack(t, shards, 40, 4)
		s.apply(ops[:len(ops)/2]) // mid-stream: half of every job's reducers are still unplaced
		snap := s.py.Snapshot()
		interleaved := false
		for i, sh := range snap.Shards {
			left := make(map[int]bool) // jobs the list has moved on from
			for k := 1; k < len(sh.Pending); k++ {
				if sh.Pending[k-1].Seq >= sh.Pending[k].Seq {
					t.Fatalf("shards=%d: shard %d Pending not seq-ascending at %d", shards, i, k)
				}
				if prev, job := sh.Pending[k-1].Intent.Job, sh.Pending[k].Intent.Job; prev != job {
					left[prev] = true
					interleaved = interleaved || left[job]
				}
			}
		}
		if !interleaved && shards < 8 {
			t.Fatalf("shards=%d: no shard holds deferred intents of interleaved jobs; the test is too weak", shards)
		}
		for _, codec := range snapshotCodecs {
			restored := newSnapStack(t, shards, 40, 4)
			if err := restored.py.Restore(codec.capture(t, s.py)); err != nil {
				t.Fatalf("shards=%d %s: restore: %v", shards, codec.name, err)
			}
			if again := restored.py.Snapshot(); !reflect.DeepEqual(snap, again) {
				t.Errorf("shards=%d %s: snapshot of the restored collector differs:\n got %+v\nwant %+v", shards, codec.name, again, snap)
			}
			if got, want := restored.py.ShardStats(), s.py.ShardStats(); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d %s: gauges after restore %+v, want %+v", shards, codec.name, got, want)
			}
		}
	}
}

// TestRestoreParentCommitSnapshot: testdata/snapshot_pr13.gob was gob-encoded
// by the flat-map collector of the commit before the per-job table, cut after
// chunk 4 of TestSnapshotRestoreContinuesIdentically's trace; the digests and
// counters below are what that commit went on to produce. The on-disk shape
// did not change, so this collector must restore it and finish identically —
// and reach the same digest when it runs the whole trace itself.
func TestRestoreParentCommitSnapshot(t *testing.T) {
	const (
		chunk, cutChunk = 17, 4
		cutVirtual      = 75.0
		cutDigest       = 0x9018fe09b3923948
		cutPlacements   = 52
		finalDigest     = 0xea92303af579f392
		finalPlacements = 76
	)
	wantStats := CollectorStats{IntentsReceived: 66, IntentsDeferred: 66, DedupHits: 13,
		DuplicateIntents: 28, ExpiredBookings: 66, ExpiredIntents: 36, AggregatesPlaced: 76, Shards: 2}

	raw, err := os.ReadFile("testdata/snapshot_pr13.gob")
	if err != nil {
		t.Fatal(err)
	}
	snap := new(Snapshot)
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(snap); err != nil {
		t.Fatalf("decoding fixture: %v", err)
	}
	_, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	ops := batchTrace(hosts, 9, 6, 4, 42)
	replay := func(s *snapStack, from int) {
		for at := from; at < len(ops); at += chunk {
			s.apply(ops[at:min(at+chunk, len(ops))])
		}
		if s.dig.h != finalDigest || s.dig.n != finalPlacements {
			t.Errorf("shards=%d: placement digest %#x/%d, parent commit produced %#x/%d",
				s.py.Shards(), s.dig.h, s.dig.n, uint64(finalDigest), finalPlacements)
		}
		want := wantStats
		want.Shards = s.py.Shards()
		if st := s.py.Stats(); st != want {
			t.Errorf("shards=%d: stats diverged from the parent commit:\n got %+v\nwant %+v", s.py.Shards(), st, want)
		}
	}

	// The fixture holds two shards; a restart may fold them into any count.
	for _, shards := range []int{2, 1, 8} {
		restored := newSnapStack(t, shards, 40, 1)
		if err := restored.py.Restore(snap); err != nil {
			t.Fatalf("shards=%d: restoring the parent commit's snapshot: %v", shards, err)
		}
		restored.virtual = cutVirtual
		*restored.dig = placementDigest{h: cutDigest, n: cutPlacements}
		restored.eng.RunUntil(sim.Time(cutVirtual))
		replay(restored, (cutChunk+1)*chunk)
	}

	replay(newSnapStack(t, 2, 40, 1), 0)
}
