package serve

import (
	"bytes"
	"encoding/gob"
	"os"
	"runtime"
	"testing"

	"pythia/internal/core"
)

// FuzzDecodeSnapshotFile: decodeSnapshot never panics on a snapshot file's
// payload, in the binary format or the legacy gob one, and whatever it
// accepts either restores into a fresh server's collector or is refused by
// Restore with an error. What Restore admits must also survive a batch:
// retiring every job that holds bookings or deferred intents leaves none.
func FuzzDecodeSnapshotFile(f *testing.F) {
	srv, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	// Deferred intents, their reducers, fresh and duplicate intents, and one
	// intent whose reducer never comes up: every job table holds something.
	stray := &IngestRequest{Intents: []WireIntent{{Job: 9, SrcHost: 1, PredictedWireBytes: []float64{1e6}}}}
	for _, req := range append(flightTrace()[:4], stray) {
		srv.col.ApplyBatch(req.ToOps(srv.hosts), 1)
	}
	bin := srv.appendSnapshotFile(nil)
	f.Add(bin)
	f.Add(bin[:len(bin)/2])
	legacy, err := encodeSnapshot(&walSnapshot{Core: srv.col.Snapshot(), VirtualSec: 1.5,
		Digest: srv.digest, Placements: srv.placements})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	// A bare core.Snapshot written by the PR-13 collector (no walSnapshot
	// field matches it), and the same state as a legacy snapshot file.
	pr13, err := os.ReadFile("../core/testdata/snapshot_pr13.gob")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pr13)
	snap13 := new(core.Snapshot)
	if err := gob.NewDecoder(bytes.NewReader(pr13)).Decode(snap13); err != nil {
		f.Fatal(err)
	}
	if legacy13, err := encodeSnapshot(&walSnapshot{Core: snap13}); err != nil {
		f.Fatal(err)
	} else {
		f.Add(legacy13)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		srv, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.col.Restore(snap.Core); err != nil {
			return
		}
		srv.col.ApplyBatch(retireAll(snap.Core), 1)
		if n := srv.col.OutstandingTotal(); n != 0 {
			t.Fatalf("%d bookings and deferred intents outlive their jobs", n)
		}
	})
}

// retireAll is a JobDone for every job a snapshot holds bookings or
// deferred intents for.
func retireAll(s *core.Snapshot) []core.Op {
	jobs := make(map[int]bool)
	for _, ss := range s.Shards {
		for fk := range ss.Booked {
			jobs[fk.Job] = true
		}
		for _, ps := range ss.Pending {
			jobs[ps.Intent.Job] = true
		}
	}
	ops := make([]core.Op, 0, len(jobs))
	for job := range jobs {
		ops = append(ops, core.Op{Kind: core.OpJobDone, Job: job})
	}
	return ops
}

// TestDecodeSnapshotBoundsGobCounts: a legacy gob snapshot whose map count
// claims far more entries than its bytes hold is refused before gob sizes a
// map from the count. The fixture is a real one-entry gob snapshot with the
// count of its one map rewritten to 2^20; sized from it, the map alone would
// take tens of megabytes.
func TestDecodeSnapshotBoundsGobCounts(t *testing.T) {
	legacy, err := encodeSnapshot(&walSnapshot{Core: &core.Snapshot{
		Shards: []core.ShardSnap{{Seen: map[[3]int]bool{{1, 2, 3}: true}}}}})
	if err != nil {
		t.Fatal(err)
	}
	// The map is its count (1), then the key — an array of 3 ints, 1, 2, 3
	// zig-zagged — then the value, true.
	entry := []byte{0x01, 0x03, 0x02, 0x04, 0x06, 0x01}
	at := bytes.Index(legacy, entry)
	if at < 0 || bytes.Count(legacy, entry) != 1 {
		t.Fatalf("map entry not found once in % x", legacy)
	}
	// gob writes 2^20 as its byte count, negated, then 3 big-endian bytes.
	huge := append(append(append([]byte(nil), legacy[:at]...), 0xfd, 0x10, 0x00, 0x00), legacy[at+1:]...)
	// The value is the stream's last message: grow its length prefix, a
	// one-byte count, by the 3 bytes added. Type messages before it may
	// have longer prefixes: a negated byte count, then big-endian bytes.
	for pos := 0; ; {
		n, width := int(huge[pos]), 1
		if n >= 0x80 {
			width = 1 + 256 - n
			n = 0
			for _, b := range huge[pos+1 : pos+width] {
				n = n<<8 | int(b)
			}
		}
		if pos+width+n+3 == len(huge) {
			if width != 1 || n+3 >= 0x80 {
				t.Fatalf("value message of %d bytes has no one-byte length", n)
			}
			huge[pos] += 3
			break
		}
		if pos += width + n; pos >= len(huge) {
			t.Fatal("no message ends where the value does")
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeSnapshot(huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a map count of 2^20 over one entry's bytes decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("refusing a %d-byte snapshot allocated %d bytes", len(huge), alloc)
	}
	if _, err := decodeSnapshot(legacy); err != nil {
		t.Fatalf("the unedited fixture: %v", err)
	}
}
