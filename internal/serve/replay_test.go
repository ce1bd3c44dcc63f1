package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pythia/internal/core"
	"pythia/internal/instrument"
	"pythia/internal/wal"
)

// replayTail is longer than replayDepth by a wide margin, so a reader the
// applier abandons is blocked on a full channel, not finished.
const replayTail = 8 * replayDepth

// jobRecord is a valid request-form record at virtualSec: one reducer and
// one intent of job, which place a flow.
func jobRecord(t *testing.T, virtualSec float64, job int) []byte {
	return bodyRecord(t, virtualSec, fmt.Appendf(nil,
		`{"reducers":[{"job":%d,"reduce":0,"host":1}],"intents":[{"job":%[1]d,"map":0,"src_host":0,"predicted_wire_bytes":[1e6]}]}`, job))
}

// handJournal writes records to a fresh journal in dir as seqs 1, 2, …,
// each CRC-framed by wal.Append as the batch loop's are, plus, when snap is
// non-nil, a snapshot file through snapSeq holding snap.
func handJournal(t *testing.T, dir string, snapSeq uint64, snap []byte, records ...[]byte) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range records {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if snap != nil {
		if err := l.WriteSnapshot(snapSeq, snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoverMustFail recovers a server over dir and checks that recovery fails
// with an error containing want after applying exactly the records through
// wantApplied, that /v1/readyz reports the failure, and that once the server
// is shut down no goroutine it started — the journal reader included — is
// left.
func recoverMustFail(t *testing.T, dir, want string, wantApplied uint64) {
	t.Helper()
	before := settledGoroutines()
	srv, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ctx := context.Background()
	err = srv.AwaitReady(ctx)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("AwaitReady = %v, want an error containing %q", err, want)
	}
	srv.colMu.Lock()
	applied := srv.appliedSeq
	srv.colMu.Unlock()
	if applied != wantApplied {
		t.Errorf("applied through record %d before failing, want %d", applied, wantApplied)
	}
	ts := httptest.NewServer(srv.Handler())
	code, body := getText(t, ts.Client(), ts.URL+"/v1/readyz")
	if code != http.StatusServiceUnavailable || body != "recovery failed: "+err.Error() {
		t.Errorf("readyz: HTTP %d %q, want 503 recovery failed: %v", code, body, err)
	}
	ts.Client().CloseIdleConnections()
	ts.Close()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if after := settledGoroutines(); after > before {
		t.Errorf("goroutines: %d before New, %d after Shutdown; the journal reader was not joined", before, after)
	}
}

// TestReplayErrorReachesApplierInOrder: record k of the journal has a valid
// CRC but names a host past the fabric. The reader decodes ahead of the
// applier, yet recovery applies every record before k, none after, and
// fails naming k.
func TestReplayErrorReachesApplierInOrder(t *testing.T) {
	const k = 3 * replayDepth
	var records [][]byte
	for seq := 1; seq <= k+replayTail; seq++ {
		p := jobRecord(t, float64(seq/2), seq)
		if seq == k {
			p = bodyRecord(t, float64(seq/2), []byte(`{"reducers":[{"job":0,"reduce":0,"host":9999}]}`))
		}
		records = append(records, p)
	}
	dir := t.TempDir()
	handJournal(t, dir, 0, nil, records...)
	recoverMustFail(t, dir, fmt.Sprintf("serve: journal record %d: request 0: reducers[0]: host 9999 outside", k), k-1)
}

// TestReplayJoinsReaderOnSnapshotError: the snapshot file is framed
// correctly but does not decode, and a long journal tail lies behind it.
// The reader, started before the snapshot is decoded, is stopped and joined.
func TestReplayJoinsReaderOnSnapshotError(t *testing.T) {
	const snapSeq = 2
	var records [][]byte
	for seq := 1; seq <= snapSeq+replayTail; seq++ {
		records = append(records, jobRecord(t, float64(seq), seq))
	}
	dir := t.TempDir()
	handJournal(t, dir, snapSeq, append(snapshotMagic[:], 1, 2, 3), records...)
	recoverMustFail(t, dir, fmt.Sprintf("serve: decoding snapshot %d: snapshot header truncated", snapSeq), 0)
}

// TestReplayRefusesClockRewind: a record whose virtual_sec is negative, or
// behind the instant an earlier record reached, fails recovery naming it,
// instead of rewinding the serving clock behind the engine. A record at the
// instant already reached (a batch of redeliveries) replays.
func TestReplayRefusesClockRewind(t *testing.T) {
	for _, tc := range []struct {
		name    string
		k       int
		virtual float64
	}{
		{"negative", 1, -1},
		{"behind", 2 * replayDepth, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var records [][]byte
			for seq := 1; seq <= tc.k+replayTail; seq++ {
				v := float64(seq / 2) // every instant twice
				if seq == tc.k {
					v = tc.virtual
				}
				records = append(records, jobRecord(t, v, seq))
			}
			dir := t.TempDir()
			handJournal(t, dir, 0, nil, records...)
			want := fmt.Sprintf("serve: journal record %d: virtual_sec %v is negative or behind the clock %v already reached",
				tc.k, tc.virtual, float64((tc.k-1)/2))
			recoverMustFail(t, dir, want, uint64(tc.k-1))
		})
	}
}

// TestReplayRecordsOwnTheirMemory: the reader decodes record n+1 into
// wal.Replay's reused buffer and the decoder's pooled scratch while the
// applier may still be reading record n. Every record it sends keeps its
// values after the reader has moved on: held until the journal ends, each
// still holds the operations its bytes name.
func TestReplayRecordsOwnTheirMemory(t *testing.T) {
	var records [][]byte
	for seq := 1; seq <= replayTail; seq++ {
		records = append(records, bodyRecord(t, float64(seq), fmt.Appendf(nil,
			`{"reducers":[{"job":%d,"reduce":%[1]d,"host":%d}],"intents":[{"job":%[1]d,"map":%[1]d,"src_host":%[2]d,"predicted_wire_bytes":[%[1]d,%[1]d.5]}]}`,
			seq, seq%16)))
	}
	dir := t.TempDir()
	handJournal(t, dir, 0, nil, records...)
	srv, err := New(Config{WALDir: dir, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.wal.Abort()
	out := make(chan replayRecord, replayDepth)
	go srv.readJournal(1, out, make(chan struct{}))
	var got []replayRecord
	for r := range out {
		if r.err != nil {
			t.Fatal(r.err)
		}
		got = append(got, r)
	}
	if len(got) != len(records) {
		t.Fatalf("reader sent %d records, want %d", len(got), len(records))
	}
	for i, r := range got {
		seq := i + 1
		host := srv.hosts[seq%16]
		want := []core.Op{
			{Kind: core.OpReducerUp, Reducer: instrument.ReducerUp{Job: seq, Reduce: seq, Host: host}},
			{Kind: core.OpIntent, Intent: instrument.Intent{Job: seq, Map: seq, SrcHost: host,
				PredictedWireBytes: []float64{float64(seq), float64(seq) + 0.5}}},
		}
		if r.seq != uint64(seq) || r.virtualSec != float64(seq) || !reflect.DeepEqual(r.ops, want) {
			t.Errorf("record %d arrived as seq %d at %v with %+v, want %+v", seq, r.seq, r.virtualSec, r.ops, want)
		}
	}
}
