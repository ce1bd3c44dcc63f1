package core

import (
	"encoding/gob"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pythia/internal/sim"
)

// codecStack drives the differential trace (randomOps: duplicates,
// speculative attempts, reducer moves, early and stray JobDones) through a
// collector at the given shard count, degrading the first aggregate that
// appears so the snapshot carries one, and calls check after every batch.
func codecStack(t testing.TB, shards int, ttl sim.Duration, check func(*Pythia)) {
	t.Helper()
	s := newSnapStack(t, shards, ttl, 2)
	ops, cuts := randomOps(7, twoRackHosts())
	degraded := false
	at := 0
	for _, end := range cuts {
		s.apply(ops[at:end])
		at = end
		if aggs := s.py.sortedAggregates(); !degraded && len(aggs) > 0 {
			s.py.degrade(aggs[0])
			degraded = true
		}
		checkWorklist(t, s.py)
		check(s.py)
	}
}

// TestSnapshotCodecMatchesStructSnapshot holds the binary capture to its
// oracle: after every batch of the differential trace, decoding
// AppendSnapshot's bytes gives exactly the struct Snapshot() builds — at every
// shard count, with the TTL sweep on and off, with deferred intents and a
// degraded aggregate in the state.
func TestSnapshotCodecMatchesStructSnapshot(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for _, ttl := range []sim.Duration{0, 30} {
			var sawPending, sawDegraded, sawBooked bool
			codecStack(t, shards, ttl, func(p *Pythia) {
				want := p.Snapshot()
				got, err := DecodeSnapshot(p.AppendSnapshot(nil))
				if err != nil {
					t.Fatalf("shards=%d ttl=%v: %v", shards, ttl, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d ttl=%v: decoded binary snapshot differs from Snapshot():\n got %+v\nwant %+v", shards, ttl, got, want)
				}
				for _, sh := range want.Shards {
					sawPending = sawPending || len(sh.Pending) > 0
					sawBooked = sawBooked || len(sh.Booked) > 0
					if (sh.JobLastSeen != nil) != (ttl > 0) {
						t.Fatalf("shards=%d ttl=%v: JobLastSeen nil-ness wrong", shards, ttl)
					}
				}
				for _, a := range want.Aggregates {
					sawDegraded = sawDegraded || a.Degraded
				}
			})
			if !sawPending || !sawDegraded || !sawBooked {
				t.Fatalf("shards=%d ttl=%v: trace too weak: pending=%v degraded=%v booked=%v",
					shards, ttl, sawPending, sawDegraded, sawBooked)
			}
		}
	}
}

// realSnapshots returns one mid-trace binary snapshot per shard count 1/2/8
// (TTL on for the first two, off for the third).
func realSnapshots(t testing.TB) [][]byte {
	var out [][]byte
	for i, shards := range []int{1, 2, 8} {
		ttl := sim.Duration(30)
		if i == 2 {
			ttl = 0
		}
		var last []byte
		n := 0
		codecStack(t, shards, ttl, func(p *Pythia) {
			if n++; n == 3 { // early: small seeds fuzz (and minimize) fast, and already hold every table
				last = p.AppendSnapshot(nil)
			}
		})
		out = append(out, last)
	}
	return out
}

// TestDecodeSnapshotRejectsCorruption: every strict prefix of a real
// snapshot, a trailing byte, a foreign version byte and a count larger than
// the input are errors, not panics.
func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	for _, good := range realSnapshots(t) {
		if _, err := DecodeSnapshot(good); err != nil {
			t.Fatalf("real snapshot rejected: %v", err)
		}
		for n := 0; n < len(good); n++ {
			if _, err := DecodeSnapshot(good[:n]); err == nil {
				t.Fatalf("accepted a %d-byte prefix of a %d-byte snapshot", n, len(good))
			}
		}
		if _, err := DecodeSnapshot(append(append([]byte(nil), good...), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing byte: err = %v", err)
		}
		bad := append([]byte(nil), good...)
		bad[0] = 1
		if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version 1: err = %v", err)
		}
	}
	// One shard claiming 2^40 jobs in a 20-byte input.
	huge := []byte{snapshotVersion, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := DecodeSnapshot(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized count: err = %v", err)
	}
}

// FuzzDecodeSnapshot: DecodeSnapshot never panics and never allocates more
// than a small multiple of its input (counts are bounded by the bytes that
// remain before anything is sized from them); and whatever it accepts is a
// state the collector can hold — Restore it, capture again, and the bytes
// decode to the same Snapshot. Whatever Restore admits must also survive a
// batch: retiring every restored job runs the release and placement paths on
// the restored state, after which the capture still round-trips. The
// foreign-node seed is a snapshot of a larger fabric, which Restore must
// refuse rather than leave to panic in that batch.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range realSnapshots(f) {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:len(s)-1])
	}
	f.Add(foreignNodeSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := DecodeSnapshot(data)
		runtime.ReadMemStats(&after)
		// The densest decoded form is a shard header (8 bytes in, a ShardSnap
		// and its map headers out) at well under 128x; the constant covers the
		// fuzz worker's own goroutines.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+64<<10); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if len(snap.Shards) == 0 || len(snap.Shards) > 64 {
			return // no collector has this shape; Restore would refuse it
		}
		ttl := sim.Duration(0)
		if snap.Shards[0].JobLastSeen != nil {
			ttl = 30
		}
		s := newSnapStack(t, len(snap.Shards), ttl, 1)
		if err := s.py.Restore(snap); err != nil {
			return // a snapshot of some other fabric
		}
		again, err := DecodeSnapshot(s.py.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("snapshot changed across Restore and re-encode:\n got %+v\nwant %+v", again, snap)
		}

		s.apply(jobDones(snap))
		done, err := DecodeSnapshot(s.py.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("snapshot after a batch does not decode: %v", err)
		}
		if want := s.py.Snapshot(); !reflect.DeepEqual(done, want) {
			t.Fatalf("binary capture after a batch differs from Snapshot():\n got %+v\nwant %+v", done, want)
		}
		fresh := newSnapStack(t, len(snap.Shards), ttl, 1)
		if err := fresh.py.Restore(done); err != nil {
			t.Fatalf("restoring the collector's own capture: %v", err)
		}
		if again, err := DecodeSnapshot(fresh.py.AppendSnapshot(nil)); err != nil || !reflect.DeepEqual(again, done) {
			t.Fatalf("snapshot after a batch changed across Restore and re-encode (err %v):\n got %+v\nwant %+v", err, again, done)
		}
	})
}

// jobDones retires every job a snapshot holds state for, in ascending job
// order.
func jobDones(s *Snapshot) []Op {
	seen := make(map[int]bool)
	for _, ss := range s.Shards {
		for k := range ss.ReducerLoc {
			seen[k[0]] = true
		}
		for k := range ss.Booked {
			seen[k.Job] = true
		}
		for k := range ss.Seen {
			seen[k[0]] = true
		}
		for _, ps := range ss.Pending {
			seen[ps.Intent.Job] = true
		}
		for job := range ss.JobLastSeen {
			seen[job] = true
		}
	}
	ops := make([]Op, 0, len(seen))
	for job := range seen {
		ops = append(ops, Op{Kind: OpJobDone, Job: job})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Job < ops[j].Job })
	return ops
}

// BenchmarkSnapshotCapture compares the two captures at a state shaped like
// the serving benchmark's (many live bookings per job): what the batch loop
// used to hold its lock for (Snapshot + gob) against what it holds it for now.
func BenchmarkSnapshotCapture(b *testing.B) {
	const jobs = 40
	s := newSnapStack(b, 4, 40, 1e6)
	ops := batchTrace(twoRackHosts(), jobs, 60, 40, 3)
	s.apply(ops[:len(ops)-jobs]) // everything but the trailing JobDones
	if s.py.totalBooked() < 50_000 {
		b.Fatalf("only %d live bookings; the state is too small to mean anything", s.py.totalBooked())
	}
	b.Run("struct+gob", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := gob.NewEncoder(io.Discard).Encode(s.py.Snapshot()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = s.py.AppendSnapshot(buf[:0])
		}
		b.SetBytes(int64(len(buf)))
	})
}
