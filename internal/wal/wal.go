// Package wal is the serving plane's durability substrate: an append-only
// write-ahead journal of opaque records plus durable point-in-time
// snapshots, both living in one directory. The serving layer (internal/
// serve) encodes each committed batch with its wire types and appends it
// here *before* results are released to clients; on restart it loads the
// latest snapshot and replays the journal tail, so recovery cost is bounded
// by the snapshot cadence, not history length.
//
// # On-disk layout
//
//	wal-<firstSeq:016x>.seg   — record segments, rotated at SegmentBytes
//	snap-<seq:016x>.snap      — snapshots ("state through record seq")
//
// Records are framed [len u32le][crc32c u32le][payload]; record sequence
// numbers are implicit (the segment name carries the first, records count
// up from there), so a record cannot be forged at the wrong position.
// Snapshots use the same frame and are written tmp+rename, so a torn
// snapshot write never shadows an older good one.
//
// # Failure tolerance
//
// A torn append (crash mid-write) leaves a short or CRC-broken frame at the
// tail of the *last* segment; Open truncates it away and the journal
// resumes from the last whole record — exactly the record boundary the
// server never acked. The same damage in a non-final segment is real
// corruption and fails Open loudly. Snapshots that fail their CRC are
// skipped in favor of the next-older one.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Observer receives journal lifecycle callbacks for the serving plane's
// metrics. Every field is optional (nil = not observed). Hooks run
// synchronously on the goroutine that made the call they report: Append,
// Fsync, Rotate and Compact on the appender, Snapshot on whichever goroutine
// called WriteSnapshot — possibly while the appender is inside another hook,
// so implementations must be safe for that concurrency (atomic counters are),
// fast, and must not call back into the log. A nil *Observer disables
// observation entirely at the cost of one pointer check.
type Observer struct {
	// Append fires after each successful Append with the payload size.
	Append func(bytes int)
	// Fsync fires after each explicit fsync of the append segment with its
	// wall-clock duration in seconds.
	Fsync func(seconds float64)
	// Rotate fires when a new segment is opened (including the first).
	Rotate func()
	// Snapshot fires after each durable snapshot write with the payload size.
	Snapshot func(bytes int)
	// Compact fires when Compact removes segments, with the count removed.
	Compact func(segments int)
}

// Options tunes the journal.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would grow the
	// current segment past it opens a new segment first. Default 4 MiB.
	SegmentBytes int64
	// SyncEvery is the fsync cadence in appends: 0 (default) syncs every
	// append — the strict policy under which an acked batch survives a
	// machine crash; N > 1 syncs every Nth append (and on rotation and
	// Close); negative never syncs explicitly, leaving flush timing to the
	// OS (a process crash still loses nothing; a machine crash may lose the
	// unsynced tail, which Open then truncates away).
	SyncEvery int
	// Observer, when non-nil, receives lifecycle callbacks for metrics.
	Observer *Observer
}

func (o Options) defaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	return o
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	frameHeader = 8 // u32 length + u32 crc
	// frameChunk is the least a payload buffer grows by while it is read;
	// it grows by at most max(frameChunk, bytes read so far), so a corrupt
	// length cannot size a buffer far beyond what the file holds.
	frameChunk = 64 << 10
	// readBuffer sizes the buffered reader a segment is read through: one
	// read system call serves several records.
	readBuffer = 64 << 10
)

// MaxRecordBytes is the largest payload Append accepts and Replay reads; a
// longer frame length is taken for corruption before it can drive a huge
// allocation. Writers size what they batch into one record under it.
const MaxRecordBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment is one journal file: records [firstSeq, firstSeq+records).
type segment struct {
	firstSeq uint64
	records  int
	size     int64
}

func (s segment) name() string { return fmt.Sprintf("%s%016x%s", segPrefix, s.firstSeq, segSuffix) }

// Log is an open journal directory. Its methods fall into two groups:
//
//   - Append, Sync, Compact, Replay, Close and the size accessors touch the
//     segment list and the append handle. They belong to one goroutine at a
//     time, the appender — the serving layer's batch loop.
//   - WriteSnapshot and LatestSnapshot touch only snap-* files (and the
//     Observer's Snapshot hook). Any one goroutine may call them concurrently
//     with the appender; they are not safe against each other.
//
// Close and Abort may race each other (concurrent shutdowns, crash vs. drain)
// and are serialized by closeMu. A WriteSnapshot still running when the log
// is closed completes normally: it holds no handle Close releases.
type Log struct {
	dir  string
	opts Options

	segs []segment // ascending firstSeq; last is the append target
	cur  *os.File  // append handle for the last segment

	nextSeq     uint64 // seq the next Append returns
	unsynced    int    // appends since the last fsync
	appendedCRC uint32 // last appended record's CRC (introspection/tests)

	closeMu sync.Mutex
	closed  bool
}

// Open opens (creating if needed) the journal in dir, repairs a torn tail,
// and positions the log to append after the last whole record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	// Sweep leftovers from snapshot writes that died before their rename.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	names, err := l.list(segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		first, err := parseSeq(name, segPrefix, segSuffix)
		if err != nil {
			return nil, fmt.Errorf("wal: bad segment name %q: %w", name, err)
		}
		last := i == len(names)-1
		seg, err := l.scanSegment(name, first, last)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// A compacted journal legitimately starts past seq 1; the first
			// surviving segment is the authority on where history resumes.
			l.nextSeq = seg.firstSeq
		}
		if seg.firstSeq != l.nextSeq {
			return nil, fmt.Errorf("wal: segment %s starts at seq %d, want %d (missing segment?)",
				name, seg.firstSeq, l.nextSeq)
		}
		l.segs = append(l.segs, seg)
		l.nextSeq = seg.firstSeq + uint64(seg.records)
	}
	if len(l.segs) == 0 {
		if err := l.rotate(); err != nil {
			return nil, err
		}
	} else {
		tail := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, tail.name()), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.cur = f
	}
	return l, nil
}

// scanSegment validates a segment's frames, repairing (truncating) a torn
// tail if the segment is the journal's last.
func (l *Log) scanSegment(name string, first uint64, last bool) (segment, error) {
	path := filepath.Join(l.dir, name)
	f, err := os.Open(path)
	if err != nil {
		return segment{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, readBuffer)
	seg := segment{firstSeq: first}
	var good int64
	var buf []byte
	for {
		var n int
		buf, n, err = readFrame(r, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !last {
				return segment{}, fmt.Errorf("wal: segment %s corrupt at offset %d: %w", name, good, err)
			}
			// Torn tail: drop the partial frame and everything after it.
			if terr := os.Truncate(path, good); terr != nil {
				return segment{}, fmt.Errorf("wal: truncating torn tail of %s: %w", name, terr)
			}
			break
		}
		good += int64(n)
		seg.records++
	}
	seg.size = good
	return seg, nil
}

// readFrame reads one frame into buf, reusing its capacity, and returns the
// payload and the frame's total byte length. The payload buffer grows as it
// is filled (see frameChunk), so the length header alone never sizes an
// allocation. Any short read or CRC mismatch is an error (io.EOF alone
// means a clean end); the returned slice is then still buf's storage, for
// reuse.
func readFrame(r io.Reader, buf []byte) ([]byte, int, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return buf[:0], 0, io.EOF
		}
		return buf[:0], 0, fmt.Errorf("short frame header: %w", err)
	}
	length32 := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length32 > MaxRecordBytes {
		return buf[:0], 0, fmt.Errorf("frame length %d exceeds %d", length32, MaxRecordBytes)
	}
	length := int(length32)
	p := buf[:0]
	for len(p) < length {
		k := len(p)
		step := min(length-k, max(frameChunk, k))
		p = slices.Grow(p, step)[:k+step]
		if _, err := io.ReadFull(r, p[k:]); err != nil {
			return p[:0], 0, fmt.Errorf("short frame payload: %w", err)
		}
	}
	if got := crc32.Checksum(p, crcTable); got != want {
		return p[:0], 0, fmt.Errorf("crc mismatch: %08x != %08x", got, want)
	}
	return p, frameHeader + length, nil
}

// appendFrame writes one framed payload to w.
func appendFrame(w io.Writer, payload []byte) (int, error) {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return frameHeader + len(payload), nil
}

// rotate syncs and closes the current segment and opens a fresh one whose
// name carries the next record's sequence number.
func (l *Log) rotate() error {
	if l.cur != nil {
		if err := l.fsyncCur(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.cur = nil
		l.unsynced = 0
	}
	seg := segment{firstSeq: l.nextSeq}
	f, err := os.OpenFile(filepath.Join(l.dir, seg.name()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.cur = f
	l.segs = append(l.segs, seg)
	l.syncDir()
	if obs := l.opts.Observer; obs != nil && obs.Rotate != nil {
		obs.Rotate()
	}
	return nil
}

// fsyncCur syncs the append segment, timing the fsync for the observer.
func (l *Log) fsyncCur() error {
	obs := l.opts.Observer
	timed := obs != nil && obs.Fsync != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if timed {
		obs.Fsync(time.Since(t0).Seconds())
	}
	return nil
}

// Append journals one record and returns its sequence number (1-based,
// strictly increasing across restarts). The record is on disk (page cache)
// when Append returns; it is fsync-durable per Options.SyncEvery.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record %d bytes exceeds %d", len(payload), MaxRecordBytes)
	}
	tail := &l.segs[len(l.segs)-1]
	if tail.size > 0 && tail.size+frameHeader+int64(len(payload)) > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
		tail = &l.segs[len(l.segs)-1]
	}
	n, err := appendFrame(l.cur, payload)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.appendedCRC = crc32.Checksum(payload, crcTable)
	tail.size += int64(n)
	tail.records++
	seq := l.nextSeq
	l.nextSeq++
	if obs := l.opts.Observer; obs != nil && obs.Append != nil {
		obs.Append(len(payload))
	}
	if l.opts.SyncEvery > 0 {
		l.unsynced++
		if l.unsynced >= l.opts.SyncEvery {
			if err := l.Sync(); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// Sync fsyncs the current segment.
func (l *Log) Sync() error {
	if l.cur == nil {
		return nil
	}
	if err := l.fsyncCur(); err != nil {
		return err
	}
	l.unsynced = 0
	return nil
}

// Replay invokes fn for every record with seq >= from, in order. The
// payload slice is valid only until fn returns: Replay reads every record
// into one buffer. Replay reads through separate handles, so it is valid on
// a log positioned for append (the recovery path replays, then keeps
// appending).
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	var buf []byte
	for _, seg := range l.segs {
		if seg.firstSeq+uint64(seg.records) <= from {
			continue
		}
		f, err := os.Open(filepath.Join(l.dir, seg.name()))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		r := bufio.NewReaderSize(f, readBuffer)
		seq := seg.firstSeq
		for i := 0; i < seg.records; i++ {
			buf, _, err = readFrame(r, buf)
			if err != nil {
				f.Close()
				return fmt.Errorf("wal: replaying %s record %d: %w", seg.name(), seq, err)
			}
			if seq >= from {
				if err := fn(seq, buf); err != nil {
					f.Close()
					return err
				}
			}
			seq++
		}
		f.Close()
	}
	return nil
}

// NextSeq reports the sequence number the next Append will return.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// Records reports the number of records currently in the journal
// (post-compaction tail only).
func (l *Log) Records() int {
	n := 0
	for _, s := range l.segs {
		n += s.records
	}
	return n
}

// Segments reports the live segment count.
func (l *Log) Segments() int { return len(l.segs) }

// Size reports the journal's byte footprint across live segments.
func (l *Log) Size() int64 {
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// WriteSnapshot durably records "state through record seq": tmp write,
// fsync, rename, directory sync. Older snapshots are removed afterwards, so
// at most the newest good snapshot plus the one being replaced exist at any
// instant. A failed write leaves no .tmp behind. It reads and writes only
// snap-* files, so it may run on its own goroutine while the appender appends
// (see Log).
func (l *Log) WriteSnapshot(seq uint64, payload []byte) error {
	name := fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
	tmp := filepath.Join(l.dir, name+".tmp")
	if err := writeSynced(tmp, payload); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	l.syncDir()
	if obs := l.opts.Observer; obs != nil && obs.Snapshot != nil {
		obs.Snapshot(len(payload))
	}
	// Drop superseded snapshots.
	names, err := l.list(snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for _, n := range names {
		s, err := parseSeq(n, snapPrefix, snapSuffix)
		if err == nil && s < seq {
			os.Remove(filepath.Join(l.dir, n))
		}
	}
	return nil
}

// writeSynced creates path holding one framed payload, fsynced and closed.
func writeSynced(path string, payload []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := appendFrame(f, payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LatestSnapshot loads the newest snapshot that passes its CRC, reporting
// the record seq it covers. ok is false when no usable snapshot exists.
func (l *Log) LatestSnapshot() (seq uint64, payload []byte, ok bool, err error) {
	names, err := l.list(snapPrefix, snapSuffix)
	if err != nil {
		return 0, nil, false, err
	}
	// list is ascending; try newest first, falling back past corrupt ones.
	for i := len(names) - 1; i >= 0; i-- {
		s, perr := parseSeq(names[i], snapPrefix, snapSuffix)
		if perr != nil {
			continue
		}
		f, oerr := os.Open(filepath.Join(l.dir, names[i]))
		if oerr != nil {
			continue
		}
		p, _, rerr := readFrame(f, nil)
		f.Close()
		if rerr != nil {
			continue // corrupt snapshot: fall back to an older one
		}
		return s, p, true, nil
	}
	return 0, nil, false, nil
}

// Compact removes segments every record of which precedes keepFrom —
// typically LatestSnapshot's seq + 1 — bounding journal size by the
// snapshot cadence. The segment containing keepFrom (and the append
// segment) always survive.
func (l *Log) Compact(keepFrom uint64) (removed int, err error) {
	for len(l.segs) > 1 && l.segs[0].firstSeq+uint64(l.segs[0].records) <= keepFrom {
		if err := os.Remove(filepath.Join(l.dir, l.segs[0].name())); err != nil {
			return removed, fmt.Errorf("wal: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		l.syncDir()
		if obs := l.opts.Observer; obs != nil && obs.Compact != nil {
			obs.Compact(removed)
		}
	}
	return removed, nil
}

// Close syncs and closes the append segment. Idempotent and safe to race
// with Abort or another Close.
func (l *Log) Close() error {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.cur == nil {
		return nil
	}
	if err := l.fsyncCur(); err != nil {
		l.cur.Close()
		return err
	}
	err := l.cur.Close()
	l.cur = nil
	return err
}

// Abort closes the append segment *without* a final sync — the crash path.
// Data already written survives in the OS page cache (a same-machine
// restart sees it); only a machine crash could lose the unsynced tail.
func (l *Log) Abort() {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	if l.cur != nil {
		l.cur.Close()
		l.cur = nil
	}
}

// syncDir best-effort fsyncs the journal directory (durable file creation
// and renames on filesystems that need it).
func (l *Log) syncDir() {
	if d, err := os.Open(l.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// list returns dir entries with the given prefix/suffix, ascending by name
// (= ascending by seq, since the hex is fixed-width).
func (l *Log) list(prefix, suffix string) ([]string, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func parseSeq(name, prefix, suffix string) (uint64, error) {
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	return strconv.ParseUint(hex, 16, 64)
}
