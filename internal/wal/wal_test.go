package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// collect replays the whole journal into memory.
func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	if err := l.Replay(from, func(seq uint64, p []byte) error {
		out[seq] = string(p)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	got := collect(t, l, 1)
	if len(got) != 10 || got[1] != "rec-1" || got[10] != "rec-10" {
		t.Fatalf("replay: %v", got)
	}
	if got := collect(t, l, 7); len(got) != 4 || got[7] != "rec-7" {
		t.Fatalf("replay from 7: %v", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen continues the sequence.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != 11 {
		t.Fatalf("NextSeq after reopen = %d, want 11", l2.NextSeq())
	}
	if seq, _ := l2.Append([]byte("rec-11")); seq != 11 {
		t.Fatalf("append after reopen: seq %d", seq)
	}
	if got := collect(t, l2, 1); len(got) != 11 {
		t.Fatalf("replay after reopen: %d records", len(got))
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 20) // 28 bytes framed: 2 per segment
	for i := 0; i < 10; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 4 {
		t.Fatalf("expected rotation, got %d segments", l.Segments())
	}
	if got := collect(t, l, 1); len(got) != 10 {
		t.Fatalf("replay across segments: %d records", len(got))
	}

	// Snapshot through seq 7, then compact: segments entirely below 8 go.
	if err := l.WriteSnapshot(7, []byte("snap7")); err != nil {
		t.Fatal(err)
	}
	removed, err := l.Compact(8)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	got := collect(t, l, 8)
	if len(got) != 3 || got[8] == "" {
		t.Fatalf("post-compaction replay: %v", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after compaction: seq numbering must survive the missing head.
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != 11 {
		t.Fatalf("NextSeq after compacted reopen = %d, want 11", l2.NextSeq())
	}
	if seq, p, ok, err := l2.LatestSnapshot(); err != nil || !ok || seq != 7 || string(p) != "snap7" {
		t.Fatalf("snapshot after reopen: seq=%d ok=%v err=%v", seq, ok, err)
	}
}

// openAfterCompactionFails guards the missing-middle-segment check: a hole
// in the sequence (not a compacted prefix) must fail loudly.
func TestOpenMissingMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 20)
	for i := 0; i < 6; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("want >=3 segments, got %d", l.Segments())
	}
	middle := l.segs[1].name()
	l.Close()
	if err := os.Remove(filepath.Join(dir, middle)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 64}); err == nil {
		t.Fatal("open with a missing middle segment succeeded")
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 5, 9} { // inside header, inside payload, just shy of full
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("whole")); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("torn!!")); err != nil {
				t.Fatal(err)
			}
			name := l.segs[0].name()
			l.Abort()

			// Simulate the torn write: keep the first record whole, cut the
			// second mid-frame.
			path := filepath.Join(dir, name)
			whole := int64(frameHeader + len("whole"))
			if err := os.Truncate(path, whole+int64(cut)); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer l2.Close()
			got := collect(t, l2, 1)
			if len(got) != 1 || got[1] != "whole" {
				t.Fatalf("after repair: %v", got)
			}
			if l2.NextSeq() != 2 {
				t.Fatalf("NextSeq after repair = %d, want 2", l2.NextSeq())
			}
			// The journal must accept appends at the repaired boundary.
			if seq, err := l2.Append([]byte("again")); err != nil || seq != 2 {
				t.Fatalf("append after repair: seq=%d err=%v", seq, err)
			}
			if got := collect(t, l2, 1); got[2] != "again" {
				t.Fatalf("replay after repair append: %v", got)
			}
		})
	}
}

// TestCorruptMiddleSegmentFails: CRC damage in a non-final segment is not a
// torn tail and must not be silently truncated.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 20)
	for i := 0; i < 6; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	first := l.segs[0].name()
	l.Close()

	path := filepath.Join(dir, first)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeader+3] ^= 0xff // flip a payload bit in record 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 64}); err == nil {
		t.Fatal("open with corrupt non-final segment succeeded")
	}
}

func TestSnapshotCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteSnapshot(3, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(9, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// WriteSnapshot removes superseded snapshots; re-create the older one to
	// model the window where both exist, then corrupt the newer.
	if err := l.WriteSnapshot(3, []byte("old")); err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(dir, "snap-0000000000000009.snap")
	b, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(newPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, p, ok, err := l.LatestSnapshot()
	if err != nil || !ok || seq != 3 || string(p) != "old" {
		t.Fatalf("fallback snapshot: seq=%d p=%q ok=%v err=%v", seq, p, ok, err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, every := range []int{0, 3, -1} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{SyncEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 7; i++ {
				if _, err := l.Append([]byte("p")); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{SyncEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := collect(t, l2, 1); len(got) != 7 {
				t.Fatalf("replay: %d records", len(got))
			}
		})
	}
}

func TestAbortThenReopenSeesAllRecords(t *testing.T) {
	// A process crash (Abort: no final fsync) must not lose page-cache
	// writes on a same-machine restart — the property the serving plane's
	// kill-and-restart recovery depends on.
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Abort()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 1); len(got) != 5 || got[5] != "r4" {
		t.Fatalf("after abort/reopen: %v", got)
	}
}

func TestEmptyJournal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextSeq() != 1 || l.Records() != 0 {
		t.Fatalf("fresh journal: next=%d records=%d", l.NextSeq(), l.Records())
	}
	if _, _, ok, err := l.LatestSnapshot(); ok || err != nil {
		t.Fatalf("fresh journal has a snapshot? ok=%v err=%v", ok, err)
	}
	if got := collect(t, l, 1); len(got) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(got))
	}
}

// TestWriteSnapshotFailureLeavesNoTmp: a snapshot write that fails after its
// .tmp exists removes it. A directory squatting on the final name makes the
// rename fail (file modes would not: the open fails first, and root ignores
// them).
func TestWriteSnapshotFailureLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteSnapshot(2, []byte("good")); err != nil {
		t.Fatal(err)
	}
	squat := filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, 5, snapSuffix))
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(5, []byte("doomed")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("failed snapshot write left %s behind", e.Name())
		}
	}
	if seq, p, ok, err := l.LatestSnapshot(); err != nil || !ok || seq != 2 || string(p) != "good" {
		t.Fatalf("LatestSnapshot after the failed write = %d %q %v %v, want the older good one", seq, p, ok, err)
	}
}

// TestWriteSnapshotConcurrentWithAppend exercises the contract Log documents:
// one goroutine appends (rotating and compacting) while another writes and
// reads snapshots, observer hooks firing on both. Run under -race; afterwards
// a reopened journal holds exactly what was written.
func TestWriteSnapshotConcurrentWithAppend(t *testing.T) {
	const records, snaps = 400, 40
	var appended, snapshotted atomic.Int64
	obs := &Observer{
		Append:   func(int) { appended.Add(1) },
		Fsync:    func(float64) {},
		Rotate:   func() {},
		Compact:  func(int) {},
		Snapshot: func(int) { snapshotted.Add(1) },
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, SyncEvery: 8, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { // the snapshot writer
		defer close(done)
		for i := 1; i <= snaps; i++ {
			if err := l.WriteSnapshot(uint64(i), []byte(fmt.Sprintf("snap-%d", i))); err != nil {
				t.Errorf("WriteSnapshot(%d): %v", i, err)
				return
			}
			if seq, _, ok, err := l.LatestSnapshot(); err != nil || !ok || seq != uint64(i) {
				t.Errorf("LatestSnapshot after writing %d = %d %v %v", i, seq, ok, err)
				return
			}
		}
	}()
	for i := 1; i <= records; i++ { // the appender
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if _, err := l.Compact(uint64(i - 20)); err != nil {
				t.Fatal(err)
			}
		}
	}
	<-done
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if appended.Load() != records || snapshotted.Load() != snaps {
		t.Fatalf("hooks saw %d appends, %d snapshots; want %d, %d", appended.Load(), snapshotted.Load(), records, snaps)
	}

	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != records+1 {
		t.Fatalf("NextSeq after reopen = %d, want %d", l2.NextSeq(), records+1)
	}
	got := collect(t, l2, 1)
	first := uint64(records+1) - uint64(len(got))
	if first > records-20 {
		t.Fatalf("journal starts at %d; compaction removed records it was told to keep", first)
	}
	for seq := first; seq <= records; seq++ {
		if want := fmt.Sprintf("rec-%04d", seq); got[seq] != want {
			t.Fatalf("record %d = %q, want %q", seq, got[seq], want)
		}
	}
	if seq, p, ok, err := l2.LatestSnapshot(); err != nil || !ok || seq != snaps || string(p) != fmt.Sprintf("snap-%d", snaps) {
		t.Fatalf("LatestSnapshot after reopen = %d %q %v %v", seq, p, ok, err)
	}
}
