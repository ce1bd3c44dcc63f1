package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pythia/internal/wal"
)

// encodeSnapshot is the gob snapshot encoder servers used through PR 21,
// kept so tests can plant a legacy snapshot; production only decodes gob.
func encodeSnapshot(s *walSnapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// dirNames lists the journal directory's entries with the given suffix.
func dirNames(t *testing.T, dir, suffix string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestCrashMidBackgroundSnapshot extends the crash-point matrix into the
// window the background snapshot opened. The process is killed with its
// first snapshot (through journal seq 4) in each state it passes through:
//
//   - captured: the payload was encoded but the writer never got to rename —
//     a torn .tmp is all that is on disk;
//   - written: the file is renamed into place but the batch loop never
//     adopted it, so no segment was compacted;
//   - adopted: compaction ran, then the process died journaling batch 5.
//
// Each successor must reach the uninterrupted oracle's placement digest and
// clock bit-for-bit, and no .tmp may survive the next Open.
func TestCrashMidBackgroundSnapshot(t *testing.T) {
	// One journal record per segment, so compaction is visible as files.
	base := Config{Shards: 2, ClockHz: 50, QueueCap: 64, SnapshotEvery: 4, SegmentBytes: 1}
	trace := stormTrace(4, 2, 2, 16)
	oracle, _ := runStorm(t, base, "", nil, trace)

	const snapName = "snap-0000000000000004.snap"
	shapes := []struct {
		name string
		gate bool // hold the writer, so the kill finds the payload unwritten
		// crash decides, on the batch loop, whether to die at this point.
		crash func(s *Server, dir string, p CrashPoint) bool
		// check inspects (and for "captured", tears) the directory the dead
		// process left; wantReplayed is what the successor must replay.
		check        func(t *testing.T, dir string)
		wantReplayed int
	}{
		{
			name: "captured", gate: true,
			crash: func(s *Server, _ string, p CrashPoint) bool { return p == CrashAfterCommit && s.snapInFlight },
			check: func(t *testing.T, dir string) {
				if snaps := dirNames(t, dir, ".snap"); len(snaps) != 0 {
					t.Errorf("snapshot renamed despite the held writer: %v", snaps)
				}
				// What a kill mid-write leaves: part of a frame under the .tmp name.
				if err := os.WriteFile(filepath.Join(dir, snapName+".tmp"), []byte("torn"), 0o644); err != nil {
					t.Error(err)
				}
			},
			wantReplayed: 4,
		},
		{
			name: "written",
			crash: func(s *Server, dir string, p CrashPoint) bool {
				if p != CrashAfterCommit || !s.snapInFlight {
					return false
				}
				// Stall the batch loop — it cannot adopt from in here — until
				// the writer has renamed the file into place, then die.
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if _, err := os.Stat(filepath.Join(dir, snapName)); err == nil {
						break
					}
				}
				return true
			},
			check: func(t *testing.T, dir string) {
				if snaps := dirNames(t, dir, ".snap"); len(snaps) != 1 || snaps[0] != snapName {
					t.Errorf("snapshots on disk %v, want [%s]", snaps, snapName)
				}
				if segs := dirNames(t, dir, ".seg"); len(segs) < 4 || segs[0] != "wal-0000000000000001.seg" {
					t.Errorf("segments %v: compacted although the snapshot was never adopted", segs)
				}
			},
			wantReplayed: 0,
		},
		{
			name:  "adopted",
			crash: func(s *Server, _ string, p CrashPoint) bool { return p == CrashAfterAppend && s.snapshots == 1 },
			check: func(t *testing.T, dir string) {
				if snaps := dirNames(t, dir, ".snap"); len(snaps) != 1 || snaps[0] != snapName {
					t.Errorf("snapshots on disk %v, want [%s]", snaps, snapName)
				}
				// Segment 4 was the append target when compaction ran, so it stays.
				if segs := dirNames(t, dir, ".seg"); len(segs) == 0 || segs[0] != "wal-0000000000000004.seg" {
					t.Errorf("segments %v: records the adopted snapshot covers were not compacted", segs)
				}
			},
			wantReplayed: 1, // batch 5: journaled, never applied
		},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := base
			cfg.WALDir = dir
			var first *Server
			cfg.CrashHook = func(p CrashPoint) bool { return shape.crash(first, dir, p) }
			first, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if shape.gate {
				first.snapGate = make(chan struct{})
			}
			first.Start()

			var front frontDoor
			front.cur.Store(first)
			succC := make(chan *Server, 1)
			go func() { // the supervisor: one restart, once the process is fully dead
				defer close(succC)
				<-first.loopDone
				if !first.crashed() {
					t.Error("first generation exited without crashing")
					return
				}
				shape.check(t, dir)
				cfg := base
				cfg.WALDir = dir
				cfg.Recover = true
				succ, err := New(cfg)
				if err != nil {
					t.Errorf("restart: %v", err)
					return
				}
				if tmps := dirNames(t, dir, ".tmp"); len(tmps) != 0 {
					t.Errorf("Open left %v behind", tmps)
				}
				succ.Start()
				front.cur.Store(succ)
				succC <- succ
			}()

			ts := httptest.NewServer(&front)
			defer ts.Close()
			cl := NewClient(ts.URL, ClientConfig{AttemptTimeout: 2 * time.Second,
				BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Seed: 7, HTTP: ts.Client()})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i, req := range trace {
				if shape.name == "adopted" && i == 4 {
					awaitSnapshotIdle(t, first) // batch 5 must find the snapshot adopted
				}
				if _, err := cl.Ingest(ctx, req); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			succ := <-succC
			if succ == nil {
				t.Fatal("no successor generation")
			}
			st, err := cl.ServerStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := succ.Shutdown(context.Background()); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if st.PlacementDigest != oracle.PlacementDigest || st.Placements != oracle.Placements {
				t.Errorf("digest %s/%d != oracle %s/%d", st.PlacementDigest, st.Placements, oracle.PlacementDigest, oracle.Placements)
			}
			if st.VirtualSec != oracle.VirtualSec {
				t.Errorf("clock %v != oracle %v", st.VirtualSec, oracle.VirtualSec)
			}
			if st.OutstandingBookings != 0 || st.PendingIntents != 0 {
				t.Errorf("leaked state: bookings=%d pending=%d", st.OutstandingBookings, st.PendingIntents)
			}
			if !st.Recovered || st.RecoveredRecords != shape.wantReplayed {
				t.Errorf("recovered=%v replayed=%d, want true/%d", st.Recovered, st.RecoveredRecords, shape.wantReplayed)
			}
			if tmps := dirNames(t, dir, ".tmp"); len(tmps) != 0 {
				t.Errorf("run left %v behind", tmps)
			}
		})
	}
}

// TestRecoverFromGobSnapshot: a journal directory written by a server of PR
// 21 or earlier holds a gob snapshot. The current server restores it — at
// every shard count — and finishes the trace on the oracle's digest; its own
// next snapshot is in the current format.
func TestRecoverFromGobSnapshot(t *testing.T) {
	trace := stormTrace(4, 3, 2, 16)
	const cut = 10 // mid-trace: job 2 has its reducers and one of its three intents in
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := Config{Shards: shards, ClockHz: 50, QueueCap: 64, SnapshotEvery: -1}
			oracle, _ := runStorm(t, base, "", nil, trace)

			dir := t.TempDir()
			if _, gens := runStorm(t, base, dir, nil, trace[:cut]); gens != 1 {
				t.Fatalf("first half ran %d generations", gens)
			}
			// Rewrite the final snapshot the way the old server would have.
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seq, payload, ok, err := l.LatestSnapshot()
			if err != nil || !ok || seq != cut {
				t.Fatalf("LatestSnapshot = %d %v %v, want the final snapshot through %d", seq, ok, err, cut)
			}
			if !bytes.HasPrefix(payload, snapshotMagic[:]) {
				t.Fatal("the current server did not write the current format")
			}
			snap, err := decodeSnapshot(payload)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := encodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.HasPrefix(legacy, snapshotMagic[:]) {
				t.Fatal("gob payload carries the magic; the sniff cannot tell them apart")
			}
			if err := l.WriteSnapshot(seq, legacy); err != nil {
				t.Fatal(err)
			}
			l.Abort()

			cfg := base
			cfg.WALDir = dir
			cfg.Recover = true
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			cl := NewClient(ts.URL, ClientConfig{HTTP: ts.Client()})
			ctx := context.Background()
			if err := srv.AwaitReady(ctx); err != nil {
				t.Fatalf("restoring the gob snapshot: %v", err)
			}
			for i, req := range trace[cut:] {
				if _, err := cl.Ingest(ctx, req); err != nil {
					t.Fatalf("request %d: %v", cut+i, err)
				}
			}
			st, err := cl.ServerStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if st.RecoveredRecords != 0 {
				t.Errorf("replayed %d records; the gob snapshot was not used", st.RecoveredRecords)
			}
			if st.PlacementDigest != oracle.PlacementDigest || st.VirtualSec != oracle.VirtualSec {
				t.Errorf("digest %s clock %v != oracle %s %v", st.PlacementDigest, st.VirtualSec, oracle.PlacementDigest, oracle.VirtualSec)
			}
			if st.OutstandingBookings != 0 {
				t.Errorf("%d leaked bookings", st.OutstandingBookings)
			}
			l, err = wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Abort()
			if _, payload, ok, _ := l.LatestSnapshot(); !ok || !bytes.HasPrefix(payload, snapshotMagic[:]) {
				t.Error("the final snapshot after the upgrade is not in the current format")
			}
		})
	}
}

// TestSnapshotLifecycle is ROADMAP item 6e's slice for the snapshot writer:
// twenty New -> Start -> ingest past two snapshot triggers -> Shutdown cycles
// over one journal directory. Every restart restores from the previous
// cycle's final snapshot without replaying a record, Shutdowns racing each
// other and the in-flight snapshot never close the journal under the writer
// (-race), a later Shutdown is a no-op, and afterwards no goroutine and no
// .tmp is left.
func TestSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, ClockHz: 50, WALDir: dir, SnapshotEvery: 2, Recover: true}
	settle := func() int { // goroutine count once exiting goroutines have gone
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				break
			} else {
				n = m
			}
		}
		return n
	}
	var before int
	var digest string
	for cycle := 0; cycle < 20; cycle++ {
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		srv.Start()
		if err := srv.AwaitReady(context.Background()); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		ts := httptest.NewServer(srv.Handler())
		client := ts.Client()
		if st := getStats(t, client, ts.URL); cycle > 0 && (!st.Recovered || st.RecoveredRecords != 0 || st.PlacementDigest != digest) {
			t.Fatalf("cycle %d: recovered=%v replayed=%d digest=%s, want a pure snapshot restore of %s",
				cycle, st.Recovered, st.RecoveredRecords, st.PlacementDigest, digest)
		}
		job := cycle
		postJSON(t, client, ts.URL, fmt.Sprintf(`{"reducers":[{"job":%d,"reduce":0,"host":%d}]}`, job, 1+cycle%15))
		for m := 0; m < 4; m++ { // five batches: triggers at the 2nd and 4th
			body := fmt.Sprintf(`{"intents":[{"job":%d,"map":%d,"src_host":0,"predicted_wire_bytes":[4e6]}]}`, job, m)
			if resp, b := postJSON(t, client, ts.URL, body); resp.StatusCode != 200 {
				t.Fatalf("cycle %d: HTTP %d: %s", cycle, resp.StatusCode, b)
			}
		}
		digest = getStats(t, client, ts.URL).PlacementDigest
		// The fifth batch just landed; the fourth's snapshot may still be in
		// flight. Two Shutdowns race it and each other.
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := srv.Shutdown(context.Background()); err != nil {
					t.Errorf("cycle %d: shutdown: %v", cycle, err)
				}
			}()
		}
		wg.Wait()
		snaps := srv.snapshots
		if snaps < 2 {
			t.Fatalf("cycle %d: %d snapshots adopted, want a periodic one and the final one at least", cycle, snaps)
		}
		if err := srv.Shutdown(context.Background()); err != nil || srv.snapshots != snaps {
			t.Fatalf("cycle %d: third Shutdown: err=%v snapshots %d -> %d, want a no-op", cycle, err, snaps, srv.snapshots)
		}
		ts.Close()
		client.CloseIdleConnections()
		if cycle == 0 {
			before = settle() // after one full cycle: lazily started runtime goroutines are in
		}
	}
	if after := settle(); after > before {
		t.Errorf("goroutines: %d after the first cycle, %d after twenty", before, after)
	}
	if tmps := dirNames(t, dir, ".tmp"); len(tmps) != 0 {
		t.Errorf("cycles left %v behind", tmps)
	}
}
