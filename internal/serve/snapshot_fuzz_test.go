package serve

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"

	"pythia/internal/core"
)

// FuzzDecodeSnapshotFile: decodeSnapshot never panics on a snapshot file's
// payload and refuses every payload without the binary format's magic —
// the gob seeds, snapshots of the retired format, among them. Whatever it
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
	// A bare core.Snapshot gob-encoded by an early collector, and the same
	// state as a gob snapshot file.
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
		if !bytes.HasPrefix(data, snapshotMagic[:]) {
			t.Fatalf("accepted a payload without the magic: % x", data[:min(len(data), 16)])
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
