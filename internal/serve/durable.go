package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"pythia/internal/core"
	"pythia/internal/flight"
	"pythia/internal/sim"
)

// This file is the serving plane's durability layer: the write-ahead
// discipline in the batch loop (journal before commit, commit before ack),
// snapshot compaction, crash-point injection for the chaos tests, and the
// startup recovery path.
//
// The recovery contract: with ClockHz set, a server killed at any crash
// point and restarted with Recover reaches a placement digest bit-identical
// to an uninterrupted run fed the same requests. Three properties carry it:
//
//  1. Journal-before-ack. A batch's ops are framed (WireBatch) and appended
//     before ApplyBatch runs; a response is only released after commit. A
//     crash before append loses nothing acked; a crash after append is
//     replayed on restart; in both windows the client saw no reply and
//     retries, where the collector's (job, map, attempt) idempotence set
//     makes the resubmission a no-op — exactly-once by construction.
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

// walSnapshot is the snapshot-file payload: the collector's complete state
// plus the serving-plane continuation values (logical clock, running
// placement digest) that let a restart resume the digest stream mid-word.
// gob preserves float64 bit patterns and the collector snapshot's
// array-keyed maps.
type walSnapshot struct {
	Core       *core.Snapshot
	VirtualSec float64
	Digest     uint64
	Placements int
}

func encodeSnapshot(s *walSnapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeSnapshot(p []byte) (*walSnapshot, error) {
	s := new(walSnapshot)
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(s); err != nil {
		return nil, err
	}
	return s, nil
}

// snapshotLocked cuts a snapshot covering the journal through appliedSeq and
// compacts segments the snapshot supersedes. Caller holds colMu. Snapshot
// failure is availability-safe — the journal remains authoritative and the
// next restart just replays more — so errors skip compaction rather than
// stopping the server; they are counted and logged, because a server that
// can no longer snapshot grows its journal without bound.
func (s *Server) snapshotLocked() {
	payload, err := encodeSnapshot(&walSnapshot{
		Core:       s.col.Snapshot(),
		VirtualSec: s.virtual,
		Digest:     s.digest,
		Placements: s.placements,
	})
	if err == nil {
		err = s.wal.WriteSnapshot(s.appliedSeq, payload)
	}
	if err != nil {
		s.snapshotFailed(err)
		return
	}
	if _, err := s.wal.Compact(s.appliedSeq + 1); err != nil {
		s.snapshotFailed(err)
	}
	s.snapSeq = s.appliedSeq
	s.snapshots++
	if s.fr != nil {
		ev := flight.Ev(flight.SnapshotTaken, flight.PlaneServe)
		ev.T = sim.Time(s.virtual)
		ev.Bytes = float64(len(payload))
		s.fr.Record(ev)
	}
	if s.log != nil {
		s.log.Debug("snapshot written", "seq", s.appliedSeq, "bytes", len(payload))
	}
}

func (s *Server) snapshotFailed(err error) {
	s.met.walSnapErrors.Inc()
	if s.log != nil {
		s.log.Warn("snapshot failed", "seq", s.appliedSeq, "error", err)
	}
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
