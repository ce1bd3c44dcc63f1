package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pythia/internal/core"
	"pythia/internal/topology"
	"pythia/internal/wal"
)

// The op kinds of the retired ops-form journal record.
const (
	wireKindIntent    = "intent"
	wireKindReducerUp = "reducer_up"
	wireKindJobDone   = "job_done"
)

// opsToWire and encodeBatch are the journal encoder the batch loop ran
// before records became request bodies: lowered operations raised back to
// wire form through the reverse host table, then json.Marshal.
// BenchmarkJournalRecord keeps them as the cost the framing replaced.
func opsToWire(ops []core.Op, hostIdx map[topology.NodeID]int) []WireOp {
	out := make([]WireOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case core.OpIntent:
			out[i] = WireOp{Kind: wireKindIntent, Intent: &WireIntent{
				Job: op.Intent.Job, Map: op.Intent.Map, Attempt: op.Intent.Attempt,
				SrcHost:            hostIdx[op.Intent.SrcHost],
				PredictedWireBytes: op.Intent.PredictedWireBytes,
			}}
		case core.OpReducerUp:
			out[i] = WireOp{Kind: wireKindReducerUp, Reducer: &WireReducerUp{
				Job: op.Reducer.Job, Reduce: op.Reducer.Reduce,
				Host: hostIdx[op.Reducer.Host],
			}}
		case core.OpJobDone:
			out[i] = WireOp{Kind: wireKindJobDone, Job: op.Job}
		}
	}
	return out
}

func encodeBatch(b *WireBatch) ([]byte, error) { return json.Marshal(b) }

// bodyRecord frames bodies as one request-form record, as the batch loop
// journals a batch of requests that arrived as those bodies.
func bodyRecord(t testing.TB, virtualSec float64, bodies ...[]byte) []byte {
	batch := make([]*ingestJob, len(bodies))
	for i, b := range bodies {
		batch[i] = &ingestJob{body: b}
	}
	p, err := new(Server).journalRecord(virtualSec, batch)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// eachRecord reads the journal in dir, handing every record to fn (which
// must not keep the slice).
func eachRecord(t *testing.T, dir string, fn func(seq uint64, p []byte)) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Replay(1, func(seq uint64, p []byte) error { fn(seq, p); return nil }); err != nil {
		t.Fatal(err)
	}
}

// recoveredStats restarts a server over cfg.WALDir with Recover and returns
// its stats once replay is done.
func recoveredStats(t *testing.T, cfg Config) StatsResponse {
	t.Helper()
	cfg.Recover = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("recovering: %v", err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	if err := srv.AwaitReady(context.Background()); err != nil {
		t.Fatalf("awaiting recovery: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	return getStats(t, ts.Client(), ts.URL)
}

// kill stops srv the way a kill -9 would: the journal is abandoned without
// a final snapshot.
func kill(t *testing.T, srv *Server) {
	t.Helper()
	srv.die(nil)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// stalledServer starts a journaled server and parks its batch loop inside
// its first batch — one sentinel request — under colMu, so that requests
// posted next queue up behind it. release lets the loop go on and checks
// the sentinel's answer.
func stalledServer(t *testing.T, cfg Config) (srv *Server, ts *httptest.Server, release func()) {
	t.Helper()
	stalled, gate := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	cfg.CrashHook = func(p CrashPoint) bool {
		if p == CrashBeforeAppend && first.CompareAndSwap(false, true) {
			close(stalled)
			<-gate
		}
		return false
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts = httptest.NewServer(srv.Handler())
	sentinel := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(`{"done_jobs":[1000000]}`))
		if err != nil {
			sentinel <- 0
			return
		}
		resp.Body.Close()
		sentinel <- resp.StatusCode
	}()
	<-stalled
	return srv, ts, func() {
		close(gate)
		if code := <-sentinel; code != http.StatusOK {
			t.Fatalf("sentinel request: HTTP %d", code)
		}
	}
}

// queueInOrder posts one body per call of body(i), each once the previous
// one sits in the stalled server's queue, so the queue holds them in order.
// wait returns the HTTP status of each.
func queueInOrder(t *testing.T, srv *Server, ts *httptest.Server, n int, body func(i int) io.Reader) (wait func() []int) {
	t.Helper()
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json", body(i))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
		for deadline := time.Now().Add(30 * time.Second); len(srv.queue) < i+1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never reached the queue", i)
			}
		}
	}
	return func() []int { wg.Wait(); return codes }
}

// TestJournalRecordIsRequestBodies: a coalesced batch is journaled as its
// request bodies byte for byte — whitespace, escaped and case-folded keys
// and all — in queue order, framed with the batch's clock target; nothing
// is re-encoded. The record replays to the live placement digest.
func TestJournalRecordIsRequestBodies(t *testing.T) {
	cfg := Config{Shards: 2, ClockHz: 50, SnapshotEvery: -1, WALDir: t.TempDir()}
	bodies := [][]byte{
		[]byte(`{"reducers":[{"job":0,"reduce":0,"host":1},{"job":0,"reduce":1,"host":5}]}`),
		[]byte("\t{ \"intents\" : [ {\"job\":0,\"map\":0,\"src_host\":2,\"predicted_wire_bytes\":[4e6, 1.5E6]} ] }\r\n"),
		[]byte(`{"Intents":[{"job":0,"MAP":1,"ſrc_host":9,"predicted_wire_bytes":[2500000,0.1e-2]}],"done_jobs":null}`),
		[]byte(`{"done_jobs":[0]}`),
	}
	srv, ts, release := stalledServer(t, cfg)
	defer ts.Close()
	wait := queueInOrder(t, srv, ts, len(bodies), func(i int) io.Reader { return bytes.NewReader(bodies[i]) })
	release()
	for i, code := range wait() {
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, code)
		}
	}
	live := getStats(t, ts.Client(), ts.URL)
	kill(t, srv)

	var records [][]byte
	eachRecord(t, cfg.WALDir, func(_ uint64, p []byte) { records = append(records, bytes.Clone(p)) })
	if len(records) != 2 {
		t.Fatalf("journal holds %d records, want the sentinel's and one coalesced batch", len(records))
	}
	b, err := decodeBatch(records[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := bodyRecord(t, b.VirtualSec, bodies...); !bytes.Equal(records[1], want) {
		t.Fatalf("record\n%s\nwant\n%s", records[1], want)
	}
	if b.VirtualSec != live.VirtualSec {
		t.Errorf("record clock %v, live clock %v", b.VirtualSec, live.VirtualSec)
	}

	got := recoveredStats(t, cfg)
	if got.RecoveredRecords != 2 || got.PlacementDigest != live.PlacementDigest ||
		got.Placements != live.Placements || got.VirtualSec != live.VirtualSec {
		t.Errorf("recovered %d records to digest %s (%d placements, clock %v), live %s (%d, %v)",
			got.RecoveredRecords, got.PlacementDigest, got.Placements, got.VirtualSec,
			live.PlacementDigest, live.Placements, live.VirtualSec)
	}
}

// TestCoalesceBoundsRecordBytes: ten valid one-intent requests of
// maxBodyBytes each, queued together, once folded into one batch whose
// record exceeded the journal's record cap; the append failed and the
// server fail-stopped, refusing every later request. Coalescing now stops
// at maxBatchBodyBytes, so every request is answered, the server stays up,
// and recovery replays the split batches to the live digest. The bodies
// are mostly whitespace: the journal appends them verbatim, so padding
// counts.
func TestCoalesceBoundsRecordBytes(t *testing.T) {
	const n = 10
	// The queue holds 80 MiB of bodies; collect eagerly so the test's peak
	// memory stays near that instead of twice it.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	cfg := Config{Shards: 2, ClockHz: 50, SnapshotEvery: -1, WALDir: t.TempDir()}
	floats := strings.TrimSuffix(strings.Repeat("1e6,", 64), ",")
	head := func(i int) string {
		return fmt.Sprintf(`{"intents":[{"job":%d,"map":0,"src_host":%d,"predicted_wire_bytes":[%s]}]`, i, i%16, floats)
	}
	pad := bytes.Repeat([]byte{' '}, maxBodyBytes)
	srv, ts, release := stalledServer(t, cfg)
	defer ts.Close()
	wait := queueInOrder(t, srv, ts, n, func(i int) io.Reader {
		h := head(i)
		return io.MultiReader(strings.NewReader(h), bytes.NewReader(pad[:maxBodyBytes-len(h)-1]), strings.NewReader("}"))
	})
	release()
	for i, code := range wait() {
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, code)
		}
	}
	if srv.crashed() {
		t.Fatalf("server fail-stopped: %s", srv.crashReason())
	}
	live := getStats(t, ts.Client(), ts.URL)
	if live.IntentsReceived != n {
		t.Fatalf("intents_received = %d, want %d", live.IntentsReceived, n)
	}
	kill(t, srv)

	// Queued in order, the bodies coalesce maxBatchBodyBytes' worth at a
	// time: one record for the sentinel, then full batches and a remainder.
	per := maxBatchBodyBytes / maxBodyBytes
	records, largest := 0, 0
	eachRecord(t, cfg.WALDir, func(_ uint64, p []byte) {
		records++
		largest = max(largest, len(p))
	})
	if want := 1 + (n+per-1)/per; records != want || largest < per*maxBodyBytes || largest > wal.MaxRecordBytes {
		t.Errorf("%d records, the largest %d bytes; want %d, the largest holding %d bodies under the %d-byte cap",
			records, largest, want, per, wal.MaxRecordBytes)
	}
	got := recoveredStats(t, cfg)
	if got.RecoveredRecords != records || got.PlacementDigest != live.PlacementDigest || got.VirtualSec != live.VirtualSec {
		t.Errorf("recovered %d of %d records to digest %s clock %v, live %s %v",
			got.RecoveredRecords, records, got.PlacementDigest, got.VirtualSec, live.PlacementDigest, live.VirtualSec)
	}
}

// opsFormBodies and opsFormConfig made testdata/ops_journal: a server of the
// last commit whose batch loop wrote ops-form records (WireBatch.Ops, one
// lowered operation each) took these bodies one request at a time, then was
// killed before appending a sentinel, leaving one record per body and no
// snapshot. The clock is slow and the TTL short, so the journaled instants
// fire booking sweeps. That server reported the pinned digest, placement
// count and clock in TestUpgradeFromOpsFormJournal.
var opsFormBodies = []string{
	`{"reducers":[{"job":0,"reduce":0,"host":1},{"job":0,"reduce":1,"host":5}]}`,
	`{"intents":[{"job":0,"map":0,"src_host":2,"predicted_wire_bytes":[4e6,1.5e6]},{"job":0,"map":1,"attempt":1,"src_host":9,"predicted_wire_bytes":[2500000,0]}]}`,
	`{"intents":[{"job":1,"map":0,"src_host":3,"predicted_wire_bytes":[3e6]}]}`,
	`{"reducers":[{"job":1,"reduce":0,"host":12}],"intents":[{"job":1,"map":1,"src_host":7,"predicted_wire_bytes":[1e6]}],"done_jobs":[0]}`,
	`{"intents":[{"job":1,"map":1,"src_host":7,"predicted_wire_bytes":[1e6]}]}`,
	`{"reducers":[{"job":2,"reduce":0,"host":0},{"job":2,"reduce":1,"host":15}],"intents":[{"job":2,"map":0,"src_host":4,"predicted_wire_bytes":[0.125,7e6]},{"job":2,"map":1,"src_host":8,"predicted_wire_bytes":[6e6,6e6]}]}`,
	`{"done_jobs":[1]}`,
	` { "Intents" : [ {"job":3,"map":0,"src_host":10,"predicted_wire_bytes":[1e5]} ] }`,
	`{"reducers":[{"job":3,"reduce":0,"host":6}]}`,
	`{"done_jobs":[3]}`,
	`{"intents":[{"job":5,"map":0,"src_host":0,"predicted_wire_bytes":[1000000.0]},{"job":5,"map":1,"src_host":1,"predicted_wire_bytes":[2000000.0]},{"job":5,"map":2,"src_host":2,"predicted_wire_bytes":[3000000.0]},{"job":5,"map":3,"src_host":3,"predicted_wire_bytes":[4000000.0]},{"job":5,"map":4,"src_host":4,"predicted_wire_bytes":[5000000.0]},{"job":5,"map":5,"src_host":5,"predicted_wire_bytes":[6000000.0]},{"job":5,"map":6,"src_host":6,"predicted_wire_bytes":[7000000.0]},{"job":5,"map":7,"src_host":7,"predicted_wire_bytes":[8000000.0]},{"job":5,"map":8,"src_host":8,"predicted_wire_bytes":[9000000.0]},{"job":5,"map":9,"src_host":9,"predicted_wire_bytes":[10000000.0]}]}`,
	`{"intents":[{"job":4,"map":0,"src_host":11,"predicted_wire_bytes":[2e6]}]}`,
}

var opsFormConfig = Config{Shards: 2, ClockHz: 2, BookingTTLSec: 4, SnapshotEvery: -1}

// opsFormFixture copies testdata/ops_journal into a fresh directory and
// checks that it is what it claims: one ops-form record per body.
func opsFormFixture(t *testing.T) (dir string, records int) {
	t.Helper()
	dir = t.TempDir()
	src := filepath.Join("testdata", "ops_journal")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eachRecord(t, dir, func(seq uint64, p []byte) {
		records++
		var b WireBatch
		if err := json.Unmarshal(p, &b); err != nil || len(b.Ops) == 0 || b.Requests != nil {
			t.Fatalf("fixture record %d is not an ops-form record (%v): %s", seq, err, p)
		}
	})
	if records != len(opsFormBodies) {
		t.Fatalf("fixture holds %d records, want %d", records, len(opsFormBodies))
	}
	return dir, records
}

// TestOpsFormJournalRefused: a journal of ops-form records, the format
// servers wrote before records became request bodies, fails recovery at
// its first record with an error that names the format and gives the
// upgrade path; the readiness probe reports it, and no goroutine outlives
// Shutdown.
func TestOpsFormJournalRefused(t *testing.T) {
	dir, _ := opsFormFixture(t)
	if msg := errOpsForm.Error(); !strings.Contains(msg, "ops-form") || !strings.Contains(msg, upgradePath) {
		t.Fatalf("refusal %q names neither the ops form nor the upgrade path", msg)
	}
	recoverMustFail(t, dir, "serve: journal record 1: "+errOpsForm.Error(), 0)
}

// TestUpgradeFromOpsFormJournal: the upgrade path carries an ops-form
// journal across. A build that still reads the ops form recovers the
// fixture and, shut down gracefully, cuts a binary snapshot through its last
// record. A fresh server fed the same bodies stands in for that build: it
// holds the state the replay rebuilds, and its graceful shutdown cuts that
// snapshot. Next to the fixture, the snapshot recovers without decoding a
// single ops-form record, to the digest, placement count and clock the
// server that wrote the fixture reported.
func TestUpgradeFromOpsFormJournal(t *testing.T) {
	const (
		wantDigest     = "b33161aed2a48894"
		wantPlacements = 10
		wantVirtual    = 13.5
	)
	dir, records := opsFormFixture(t)
	cfg := opsFormConfig
	cfg.WALDir = t.TempDir()
	want := restartAndIngest(t, cfg, opsFormBodies...)
	seq, payload := latestSnapshot(t, cfg.WALDir)
	if seq != uint64(records) {
		t.Fatalf("the fresh server's final snapshot is through record %d, want %d", seq, records)
	}
	writeSnapshot(t, dir, seq, payload)

	cfg.WALDir = dir
	got := recoveredStats(t, cfg)
	if got.RecoveredRecords != 0 {
		t.Errorf("replayed %d records; the snapshot covers all %d", got.RecoveredRecords, records)
	}
	for _, st := range []StatsResponse{want, got} {
		if st.PlacementDigest != wantDigest || st.Placements != wantPlacements || st.VirtualSec != wantVirtual {
			t.Errorf("digest %s, %d placements, clock %v; the writing server reported %s, %d, %v",
				st.PlacementDigest, st.Placements, st.VirtualSec, wantDigest, wantPlacements, wantVirtual)
		}
	}
	da, db := got.OutstandingDemandBits, want.OutstandingDemandBits
	got.OutstandingDemandBits, want.OutstandingDemandBits = 0, 0
	if got.CollectorStats != want.CollectorStats || math.Abs(da-db) > 1e-9*math.Max(math.Abs(da), math.Abs(db)) {
		t.Errorf("recovered counters %+v (demand %v), fresh server %+v (demand %v)",
			got.CollectorStats, da, want.CollectorStats, db)
	}
	if got.ExpiredBookings == 0 {
		t.Error("no booking expired: the fixture no longer exercises the journaled sweep instants")
	}
}

// BenchmarkJournalRecord prices the batch loop's journal encode for one
// 64-op request shaped like the serve_wal workload's, nine byte predictions
// per intent: encode is the ops-form encoder it replaced (raise to wire
// form, json.Marshal), frame the request-form framing of the body into the
// reused buffer. copy is the handler's copy of the validated body, which
// moved off the batch loop onto the request's own goroutine.
func BenchmarkJournalRecord(b *testing.B) {
	req := sampleRequest(64)
	var pool []float64
	for _, in := range req.Intents {
		pool = append(pool, in.PredictedWireBytes...)
	}
	for i := range req.Intents {
		bytes := make([]float64, 9)
		for r := range bytes {
			bytes[r] = pool[(9*i+r)%len(pool)]
		}
		req.Intents[i].PredictedWireBytes = bytes
	}
	body := mustMarshal(b, req)
	hosts := make([]topology.NodeID, 8)
	hostIdx := make(map[topology.NodeID]int)
	for i := range hosts {
		hosts[i] = topology.NodeID(100 + i)
		hostIdx[hosts[i]] = i
	}
	ops := req.ToOps(hosts)
	floats := 0
	for _, in := range req.Intents {
		floats += len(in.PredictedWireBytes)
	}
	const virtualSec = 1234.5678901234567
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(floats)/float64(len(req.Intents)), "floats/intent")
		for i := 0; i < b.N; i++ {
			if _, err := encodeBatch(&WireBatch{VirtualSec: virtualSec, Ops: opsToWire(ops, hostIdx)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame", func(b *testing.B) {
		s, batch := new(Server), []*ingestJob{{body: body}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.journalRecord(virtualSec, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bytes.Clone(body)
		}
	})
}

// BenchmarkReplayRecord prices what recovery does per record before
// ApplyBatch — decode and lower to collector operations — for one 64-op
// request journaled as the batch loop journals it.
func BenchmarkReplayRecord(b *testing.B) {
	_, record := sampleRecord(b, 64)
	hosts := make([]topology.NodeID, 8)
	for i := range hosts {
		hosts[i] = topology.NodeID(100 + i)
	}
	b.SetBytes(int64(len(record)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := decodeBatch(record)
		if err == nil {
			_, err = w.ToOps(hosts)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
