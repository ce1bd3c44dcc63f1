package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenSegment feeds arbitrary bytes to Open as a segment file. As the
// journal's last segment they never fail Open: a torn or corrupt tail is
// truncated away, Records() counts exactly what Replay yields, and an
// Append survives a reopen as one more record. As a segment with a
// successor the same bytes are either clean, and open unchanged, or Open
// fails: only the tail is ever repaired.
func FuzzOpenSegment(f *testing.F) {
	var two bytes.Buffer
	appendFrame(&two, []byte(`{"virtual_sec":1,"ops":[]}`))
	appendFrame(&two, nil)
	f.Add(two.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	torn := append([]byte(nil), two.Bytes()...)
	torn[len(torn)-1] ^= 0xff
	f.Add(torn)
	// A whole record, then a header whose length exceeds MaxRecordBytes.
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, MaxRecordBytes+1)
	f.Add(append(append([]byte(nil), two.Bytes()...), hdr...))
	opts := Options{SyncEvery: -1}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segment{firstSeq: 1}.name())
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open of a last segment: %v", err)
		}
		replayed := 0
		if err := l.Replay(1, func(seq uint64, _ []byte) error {
			if seq != uint64(replayed)+1 {
				t.Fatalf("replayed seq %d after %d records", seq, replayed)
			}
			replayed++
			return nil
		}); err != nil {
			t.Fatalf("Replay after Open: %v", err)
		}
		if l.Records() != replayed {
			t.Fatalf("Records() = %d, Replay yielded %d", l.Records(), replayed)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		clean := info.Size() == int64(len(data))
		if _, err := l.Append([]byte("after")); err != nil {
			t.Fatalf("Append after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen after Append: %v", err)
		}
		if l.Records() != replayed+1 {
			t.Fatalf("reopened Records() = %d, want %d", l.Records(), replayed+1)
		}
		l.Close()

		if clean && replayed == 0 {
			return // an empty segment cannot have a successor at the same seq
		}
		dir = t.TempDir()
		path = filepath.Join(dir, segment{firstSeq: 1}.name())
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		next := segment{firstSeq: uint64(replayed) + 1}
		if replayed == 0 {
			next.firstSeq = 2
		}
		if err := os.WriteFile(filepath.Join(dir, next.name()), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, opts)
		switch {
		case clean && err != nil:
			t.Fatalf("Open of a clean inner segment: %v", err)
		case clean && l.Records() != replayed:
			t.Fatalf("clean inner segment opened with %d records, want %d", l.Records(), replayed)
		case !clean && err == nil:
			t.Fatal("Open accepted a corrupt inner segment")
		}
		if l != nil {
			l.Close()
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("inner segment rewritten (%d bytes, was %d): %v", len(got), len(data), err)
		}
	})
}
