package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"strconv"
	"time"

	"pythia/internal/core"
	"pythia/internal/flight"
	"pythia/internal/sim"
)

// This file is the serving plane's durability layer: the write-ahead
// discipline in the batch loop (journal before commit, commit before ack),
// snapshots cut off the commit path and the compaction they allow,
// crash-point injection for the chaos tests, and the startup recovery path.
//
// The recovery contract: with ClockHz set, a server killed at any crash
// point and restarted with Recover reaches a placement digest bit-identical
// to an uninterrupted run fed the same requests. Three properties carry it:
//
//  1. Journal-before-ack. A batch's request bodies, byte for byte as the
//     handlers validated them, are framed with the batch's clock target into
//     one record (journalRecord; WireBatch's request form) and appended
//     before ApplyBatch runs — nothing is re-encoded on the batch loop, and
//     replay lowers each request exactly as its handler did. A response is
//     only released after commit. A crash before append loses nothing
//     acked; a crash after append is replayed on restart; in both windows
//     the client saw no reply and retries, where the collector's (job, map,
//     attempt) idempotence set makes the resubmission a no-op —
//     exactly-once by construction.
//  2. The journal is the clock authority. Each record carries the engine
//     instant its batch committed at; replay runs the engine to exactly
//     that instant, so TTL sweeps fire at the same virtual times in the
//     recovered timeline. Live traffic meters the clock by NovelOps —
//     already-applied redeliveries advance virtual time by zero — so a
//     crashed-and-retried run and the oracle agree on every sweep instant.
//  3. Snapshots are exact. The collector snapshot carries float64 state
//     bit-for-bit (summing bookings back up would re-associate additions),
//     and rules are re-installed under their original cookies, so the
//     restored placement plane is indistinguishable from the original.

// CrashPoint identifies an injection site in the batch loop's write-ahead
// sequence. The three points bracket the durability windows that matter: a
// batch can die before it is journaled, after it is journaled but before it
// mutates the collector, or after commit but before clients hear about it.
type CrashPoint int

const (
	// CrashBeforeAppend kills the loop before the batch reaches the
	// journal: the batch is lost, clients time out and retry.
	CrashBeforeAppend CrashPoint = iota
	// CrashAfterAppend kills the loop between journal append and collector
	// commit: restart replays the batch, client retries deduplicate.
	CrashAfterAppend
	// CrashAfterCommit kills the loop after commit but before responses are
	// released: restart already has the batch (journaled and applied),
	// client retries deduplicate.
	CrashAfterCommit
)

func (p CrashPoint) String() string {
	switch p {
	case CrashBeforeAppend:
		return "before-append"
	case CrashAfterAppend:
		return "after-append"
	case CrashAfterCommit:
		return "after-commit"
	}
	return fmt.Sprintf("CrashPoint(%d)", int(p))
}

// crashAt consults the injection hook; on a hit it simulates a process kill
// and the caller abandons the batch without answering anyone.
func (s *Server) crashAt(p CrashPoint) bool {
	if s.cfg.CrashHook == nil || !s.cfg.CrashHook(p) {
		return false
	}
	s.die(nil)
	return true
}

// die is the fail-stop path, shared by injected crashes (journalErr nil) and
// a journal that refused an append: the journal handle is abandoned without
// a final sync (the OS page cache keeps un-fsynced writes alive across an
// in-process "restart", exactly as a kill -9 on the same machine would) and
// crashedC wakes every waiting handler to answer 503.
func (s *Server) die(journalErr error) {
	s.crashOnce.Do(func() {
		s.journalErr = journalErr
		if s.wal != nil {
			s.wal.Abort()
		}
		if journalErr != nil && s.log != nil {
			s.log.Error("journal append failed; refusing to ack unjournaled batches", "error", journalErr)
		}
		close(s.crashedC)
	})
}

// crashReason names why the loop died, for probes and refusals. Only
// meaningful once crashed() reports true.
func (s *Server) crashReason() string {
	if s.journalErr != nil {
		return fmt.Sprintf("journal failed: %v", s.journalErr)
	}
	return "crashed"
}

// crashed reports whether the batch loop died (crash point or journal failure).
func (s *Server) crashed() bool {
	select {
	case <-s.crashedC:
		return true
	default:
		return false
	}
}

// journalRecord frames a batch as one journal record in the reused record
// buffer: {"virtual_sec":<target>,"requests":[<body>,…]}, the bodies in
// queue order and verbatim, so the record decodes to the WireBatch whose
// ToOps is the batch's concatenated operations. target is formatted
// shortest round trip, a JSON number that parses back to the bit-identical
// instant, so replay runs the engine exactly there. A buffer grown past
// maxPooledInput by a rare huge batch is not kept.
func (s *Server) journalRecord(target float64, batch []*ingestJob) ([]byte, error) {
	if math.IsInf(target, 0) || math.IsNaN(target) {
		return nil, fmt.Errorf("serve: clock target %v is not a finite JSON number", target)
	}
	b := append(s.recBuf[:0], `{"virtual_sec":`...)
	b = strconv.AppendFloat(b, target, 'g', -1, 64)
	b = append(b, `,"requests":[`...)
	for i, j := range batch {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, j.body...)
	}
	b = append(b, "]}"...)
	s.recBuf = nil
	if cap(b) <= maxPooledInput {
		s.recBuf = b
	}
	return b, nil
}

// walSnapshot is the decoded snapshot-file payload: the collector's complete
// state plus the serving-plane continuation values (logical clock, running
// placement digest) that let a restart resume the digest stream mid-word.
type walSnapshot struct {
	Core       *core.Snapshot
	VirtualSec float64
	Digest     uint64
	Placements int
}

// Snapshot files (DESIGN.md §13.3) are snapshotMagic, then VirtualSec's
// float64 bits, Digest and Placements as three little-endian uint64s, then the
// collector's binary snapshot (core.AppendSnapshot). Through PR 21 they were
// the gob encoding of walSnapshot; a gob stream never starts with a byte in
// 0x80..0xF7, so the magic's first byte tells the two apart.
var snapshotMagic = [4]byte{0x89, 'P', 'Y', 'S'}

const snapshotHeaderLen = len(snapshotMagic) + 3*8

// decodeSnapshot reads a snapshot file's payload: the current format by its
// magic, anything else as the gob format older servers wrote — read-only, so
// a journal directory carried across the upgrade still restores.
func decodeSnapshot(p []byte) (*walSnapshot, error) {
	if !bytes.HasPrefix(p, snapshotMagic[:]) {
		s := new(walSnapshot)
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(s); err != nil {
			return nil, err
		}
		if s.Core == nil {
			return nil, fmt.Errorf("gob snapshot carries no collector state")
		}
		return s, nil
	}
	if len(p) < snapshotHeaderLen {
		return nil, fmt.Errorf("snapshot header truncated at %d bytes", len(p))
	}
	h := p[len(snapshotMagic):]
	s := &walSnapshot{
		VirtualSec: math.Float64frombits(binary.LittleEndian.Uint64(h)),
		Digest:     binary.LittleEndian.Uint64(h[8:]),
		Placements: int(binary.LittleEndian.Uint64(h[16:])),
	}
	var err error
	s.Core, err = core.DecodeSnapshot(p[snapshotHeaderLen:])
	return s, err
}

// Snapshots run as capture -> write -> adopt (DESIGN.md §13.4), so the batch
// loop stops only for the capture:
//
//   - captureSnapshot, on the batch loop under colMu, encodes the state
//     through appliedSeq into one buffer (milliseconds) and starts
//   - one goroutine that writes, fsyncs and renames the file — it touches only
//     snap-* files, never the segment list — and posts a snapResult, which
//   - adoptSnapshot, back on the batch loop under colMu, turns into
//     compaction (Compact mutates the segment list, so it stays with the
//     single appender) and the advance of snapSeq.
//
// At most one snapshot is in flight; a trigger that finds one is skipped and
// re-evaluated by the next batch. Snapshots are not on the durability path —
// the journal is authoritative — so a crash anywhere in the sequence leaves
// either the old snapshot and a longer tail or the new snapshot and an
// uncompacted tail, and both recover to the same state.

// snapResult is the writer goroutine's report to the batch loop.
type snapResult struct {
	seq     uint64
	payload []byte // handed back for the next capture to reuse
	err     error
}

// captureSnapshot encodes the state through appliedSeq and hands it to a
// writer goroutine. Caller holds colMu, is the goroutine that owns the
// journal, and has checked that no snapshot is in flight.
func (s *Server) captureSnapshot() {
	t0 := time.Now()
	seq := s.appliedSeq
	buf := append(s.snapBuf[:0], snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.virtual))
	buf = binary.LittleEndian.AppendUint64(buf, s.digest)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.placements))
	buf = s.col.AppendSnapshot(buf)
	s.snapBuf = nil
	s.snapInFlight = true
	s.met.walSnapPause.Observe(time.Since(t0).Seconds())
	if s.fr != nil {
		// Recorded by the batch that stopped for the capture, so the gap to
		// the next batch's start reads as the pause the snapshot cost.
		ev := flight.Ev(flight.SnapshotTaken, flight.PlaneServe)
		ev.T = sim.Time(s.virtual)
		ev.Bytes = float64(len(buf))
		s.fr.Record(ev)
	}
	s.snapWriters.Add(1)
	go func() {
		defer s.snapWriters.Done()
		if s.snapGate != nil {
			select { // test hook: hold the write until released or the server dies
			case <-s.snapGate:
			case <-s.crashedC:
			}
		}
		res := snapResult{seq: seq, payload: buf}
		if s.crashed() {
			res.err = fmt.Errorf("server crashed before the write began")
		} else {
			t0 := time.Now()
			res.err = s.wal.WriteSnapshot(seq, buf)
			s.met.walSnapWrite.Observe(time.Since(t0).Seconds())
		}
		s.snapDone <- res // one slot, one snapshot in flight: never blocks
	}()
}

// adoptSnapshot finishes a snapshot whose write has ended: on success the
// segments it supersedes are compacted away and snapSeq advances — so snapSeq
// only ever names a durable snapshot. Failure is availability-safe — the
// journal remains authoritative and the next restart just replays more — so
// errors skip compaction rather than stopping the server; they are counted
// and logged, because a server that can no longer snapshot grows its journal
// without bound, and the next trigger tries again. Caller holds colMu and owns
// the journal.
func (s *Server) adoptSnapshot(r snapResult) {
	s.snapInFlight = false
	s.snapBuf = r.payload
	if r.err != nil {
		s.snapshotFailed(r.seq, r.err)
		return
	}
	if _, err := s.wal.Compact(r.seq + 1); err != nil {
		s.snapshotFailed(r.seq, err)
	}
	s.snapSeq = r.seq
	s.snapshots++
	if s.log != nil {
		s.log.Debug("snapshot written", "seq", r.seq, "bytes", len(r.payload))
	}
}

// adoptFinishedSnapshot adopts the in-flight snapshot if its write has ended.
// Caller holds colMu and owns the journal.
func (s *Server) adoptFinishedSnapshot() {
	select {
	case r := <-s.snapDone:
		s.adoptSnapshot(r)
	default:
	}
}

func (s *Server) snapshotFailed(seq uint64, err error) {
	s.met.walSnapErrors.Inc()
	if s.log != nil {
		s.log.Warn("snapshot failed", "seq", seq, "error", err)
	}
}

// seal is the clean drain's last step, after the batch loop and with it any
// snapshot writer have exited: adopt what the loop left behind, cut a final
// snapshot so the next start restores instead of replaying, and close the
// journal.
func (s *Server) seal() error {
	s.colMu.Lock()
	s.adoptFinishedSnapshot()
	final := s.appliedSeq > s.snapSeq
	if final {
		s.captureSnapshot()
	}
	s.colMu.Unlock()
	if final {
		r := <-s.snapDone
		s.colMu.Lock()
		s.adoptSnapshot(r)
		s.colMu.Unlock()
	}
	return s.wal.Close()
}

// recover rebuilds collector and serving state from the journal directory:
// restore the latest snapshot (if any), run the engine to the snapshot
// instant — catch-up TTL sweeps are no-ops against restored state — then
// replay the journal tail through the normal ApplyBatch path, each record at
// its journaled engine instant. Runs in Start's goroutine behind the
// readiness gate, concurrent with stats and metrics scrapes, so it holds
// colMu around the restore and around each replayed record — a scrape
// interleaving mid-replay sees a consistent prefix of the recovered state.
func (s *Server) recover() error {
	t0 := time.Now()
	seq, payload, ok, err := s.wal.LatestSnapshot()
	if err != nil {
		return fmt.Errorf("serve: reading snapshot: %w", err)
	}
	from := uint64(1)
	if ok {
		snap, err := decodeSnapshot(payload)
		if err != nil {
			return fmt.Errorf("serve: decoding snapshot %d: %w", seq, err)
		}
		s.colMu.Lock()
		if err := s.col.Restore(snap.Core); err != nil {
			s.colMu.Unlock()
			return fmt.Errorf("serve: restoring snapshot %d: %w", seq, err)
		}
		s.virtual = snap.VirtualSec
		s.digest = snap.Digest
		s.placements = snap.Placements
		s.appliedSeq = seq
		s.snapSeq = seq
		from = seq + 1
		if t := sim.Time(s.virtual); t > s.eng.Now() {
			s.eng.RunUntil(t)
		}
		s.colMu.Unlock()
	}
	n := 0
	err = s.wal.Replay(from, func(recSeq uint64, p []byte) error {
		b, err := decodeBatch(p)
		if err != nil {
			return fmt.Errorf("serve: journal record %d: %w", recSeq, err)
		}
		ops, err := b.ToOps(s.hosts)
		if err != nil {
			return fmt.Errorf("serve: journal record %d: %w", recSeq, err)
		}
		s.colMu.Lock()
		if t := sim.Time(b.VirtualSec); t > s.eng.Now() {
			s.eng.RunUntil(t)
		}
		s.col.ApplyBatch(ops, s.cfg.Workers)
		s.virtual = b.VirtualSec
		s.appliedSeq = recSeq
		s.colMu.Unlock()
		n++
		return nil
	})
	if err != nil {
		return err
	}
	sec := time.Since(t0).Seconds()
	s.colMu.Lock()
	s.recovered = true
	s.recoveredRecords = n
	s.recoverySec = sec
	virtual := s.virtual
	s.colMu.Unlock()
	if s.fr != nil {
		ev := flight.Ev(flight.RecoveryReplay, flight.PlaneServe)
		ev.T = sim.Time(virtual)
		ev.Count = n
		ev.DelaySec = sec
		s.fr.Record(ev)
	}
	if s.log != nil {
		s.log.Info("recovery complete",
			"replayed_records", n, "virtual_sec", virtual, "wall_sec", sec)
	}
	return nil
}
