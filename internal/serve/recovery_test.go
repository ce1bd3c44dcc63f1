package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// frontDoor gives a fleet of server generations one stable URL: requests
// always land on the current generation, the way a restarted process
// reclaims its listen address.
type frontDoor struct {
	cur atomic.Pointer[Server]
}

func (f *frontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.cur.Load().Handler().ServeHTTP(w, r)
}

// stormTrace builds a deterministic request sequence: per job a reducer
// placement request then one request per map intent, with job retirements
// at the end. Every intent is unique, so exactly-once delivery is directly
// readable from intents_received.
func stormTrace(jobs, maps, reduces, numHosts int) []*IngestRequest {
	var reqs []*IngestRequest
	for j := 0; j < jobs; j++ {
		ups := make([]WireReducerUp, reduces)
		for r := 0; r < reduces; r++ {
			ups[r] = WireReducerUp{Job: j, Reduce: r, Host: (j*3 + r) % numHosts}
		}
		reqs = append(reqs, &IngestRequest{Reducers: ups})
		for m := 0; m < maps; m++ {
			bytes := make([]float64, reduces)
			for r := range bytes {
				bytes[r] = 1e6 * float64(1+(j+m+r)%5)
			}
			reqs = append(reqs, &IngestRequest{Intents: []WireIntent{{
				Job: j, Map: m, SrcHost: (j + m) % numHosts, PredictedWireBytes: bytes}}})
		}
	}
	for j := 0; j < jobs; j++ {
		reqs = append(reqs, &IngestRequest{DoneJobs: []int{j}})
	}
	return reqs
}

// crashPlan schedules one injected kill: fire point when the generation's
// batch counter reaches at.
type crashPlan struct {
	point CrashPoint
	at    int
}

// crashHook builds a CrashHook firing plan once. The batch counter ticks at
// CrashBeforeAppend, which every batch passes first.
func crashHook(plan crashPlan) func(CrashPoint) bool {
	var batches atomic.Int32
	return func(p CrashPoint) bool {
		if p == CrashBeforeAppend {
			batches.Add(1)
		}
		return p == plan.point && int(batches.Load()) == plan.at
	}
}

// runStorm drives trace sequentially (depth 1: one in-flight request = one
// batch, pinning batch boundaries) through a chain of server generations
// that crash per schedule and restart with Recover. It returns the final
// generation's stats and the generation count. With an empty schedule and no
// WALDir this is the uninterrupted oracle.
func runStorm(t *testing.T, base Config, walDir string, schedule []crashPlan, trace []*IngestRequest) (StatsResponse, int) {
	t.Helper()
	build := func(resume bool, plan *crashPlan) *Server {
		cfg := base
		cfg.WALDir = walDir
		cfg.Recover = resume
		if plan != nil {
			cfg.CrashHook = crashHook(*plan)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Errorf("building server generation: %v", err)
			return nil
		}
		return srv
	}

	var front frontDoor
	var mu sync.Mutex
	generations := 1
	var watch func(s *Server, next int)
	watch = func(s *Server, next int) {
		go func() {
			select {
			case <-s.crashedC:
			case <-s.loopDone:
				if !s.crashed() {
					return // clean exit, no successor needed
				}
			}
			<-s.loopDone
			var plan *crashPlan
			if next < len(schedule) {
				plan = &schedule[next]
			}
			succ := build(true, plan)
			if succ == nil {
				return
			}
			succ.Start()
			mu.Lock()
			generations++
			mu.Unlock()
			front.cur.Store(succ)
			watch(succ, next+1)
		}()
	}

	var plan *crashPlan
	if len(schedule) > 0 {
		plan = &schedule[0]
	}
	first := build(false, plan)
	if first == nil {
		t.FailNow()
	}
	first.Start()
	front.cur.Store(first)
	watch(first, 1)

	ts := httptest.NewServer(&front)
	defer ts.Close()
	cl := NewClient(ts.URL, ClientConfig{
		AttemptTimeout: 2 * time.Second,
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Seed:           7,
		HTTP:           ts.Client(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, req := range trace {
		if _, err := cl.Ingest(ctx, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	final := front.cur.Load()
	st, err := cl.ServerStats(ctx)
	if err != nil {
		t.Fatalf("final stats: %v", err)
	}
	if err := final.Shutdown(context.Background()); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return *st, generations
}

// TestCrashRecoveryStorm is the acceptance proof for the durable serving
// plane: a retrying client pushes a fixed trace while the server is killed
// at every crash point in turn (after journal append, after commit, before
// append), each successor recovering from the journal. The surviving
// process must reach the exact placement digest and logical clock of an
// uninterrupted oracle run, with zero leaked bookings, and the dedup
// counters must show every op applied exactly once despite the retries.
func TestCrashRecoveryStorm(t *testing.T) {
	base := Config{
		Shards:        2,
		ClockHz:       50,
		QueueCap:      64,
		SnapshotEvery: 4,
		FsyncEvery:    0,
	}
	const jobs, maps, reduces = 6, 3, 2
	trace := stormTrace(jobs, maps, reduces, 16)

	oracle, oracleGens := runStorm(t, base, "", nil, trace)
	if oracleGens != 1 {
		t.Fatalf("oracle restarted %d times", oracleGens)
	}
	if oracle.DedupHits != 0 {
		t.Fatalf("oracle saw %d dedup hits; the trace must be duplicate-free", oracle.DedupHits)
	}

	// Batch numbers land on intent requests (per-job blocks of 1 reducer +
	// 3 intent requests), so the crashed-and-retried request carries an
	// intent and the dedup counter proves the exactly-once path.
	schedule := []crashPlan{
		{CrashAfterCommit, 3},
		{CrashAfterAppend, 4},
		{CrashBeforeAppend, 5},
	}
	st, gens := runStorm(t, base, t.TempDir(), schedule, trace)
	if want := len(schedule) + 1; gens != want {
		t.Fatalf("storm ran %d generations, want %d (every crash must fire)", gens, want)
	}

	if st.PlacementDigest != oracle.PlacementDigest {
		t.Errorf("placement digest %s != oracle %s", st.PlacementDigest, oracle.PlacementDigest)
	}
	if st.Placements != oracle.Placements {
		t.Errorf("placements %d != oracle %d", st.Placements, oracle.Placements)
	}
	if st.VirtualSec != oracle.VirtualSec {
		t.Errorf("logical clock %v != oracle %v (NovelOps must exempt redeliveries)",
			st.VirtualSec, oracle.VirtualSec)
	}
	if st.IntentsReceived != jobs*maps {
		t.Errorf("intents_received = %d, want %d (exactly-once)", st.IntentsReceived, jobs*maps)
	}
	if st.DedupHits == 0 {
		t.Error("no dedup hits: the storm never exercised a cross-crash retry")
	}
	if st.OutstandingBookings != 0 || st.PendingIntents != 0 {
		t.Errorf("leaked state after storm: bookings=%d pending=%d",
			st.OutstandingBookings, st.PendingIntents)
	}
	if !st.Recovered {
		t.Error("final generation does not report recovery")
	}
}

// TestCrashPointMatrix runs one focused kill-and-recover cycle per crash
// point, each in a fresh journal directory, proving every window recovers
// to the oracle digest on its own (the storm composes them).
func TestCrashPointMatrix(t *testing.T) {
	base := Config{Shards: 2, ClockHz: 50, QueueCap: 64, SnapshotEvery: 4}
	trace := stormTrace(4, 2, 2, 16)
	oracle, _ := runStorm(t, base, "", nil, trace)
	for _, point := range []CrashPoint{CrashBeforeAppend, CrashAfterAppend, CrashAfterCommit} {
		t.Run(point.String(), func(t *testing.T) {
			st, gens := runStorm(t, base, t.TempDir(), []crashPlan{{point, 3}}, trace)
			if gens != 2 {
				t.Fatalf("%d generations, want 2", gens)
			}
			if st.PlacementDigest != oracle.PlacementDigest {
				t.Errorf("digest %s != oracle %s", st.PlacementDigest, oracle.PlacementDigest)
			}
			if st.VirtualSec != oracle.VirtualSec {
				t.Errorf("clock %v != oracle %v", st.VirtualSec, oracle.VirtualSec)
			}
			if st.OutstandingBookings != 0 {
				t.Errorf("%d leaked bookings", st.OutstandingBookings)
			}
		})
	}
}

// TestRecoverySweepExactness crashes a server whose TTL sweep is actively
// reclaiming bookings (low clock rate, short TTL, jobs never retired) and
// checks the recovered run reclaims exactly what the oracle does — the
// test that fails if redeliveries were allowed to advance the logical
// clock and skew sweep instants.
func TestRecoverySweepExactness(t *testing.T) {
	base := Config{
		Shards:        2,
		ClockHz:       2, // 1 op = 0.5 virtual seconds: sweeps fire mid-trace
		BookingTTLSec: 4,
		QueueCap:      64,
		SnapshotEvery: 3,
	}
	// No done_jobs: every booking must drain through the TTL sweep.
	var trace []*IngestRequest
	for j := 0; j < 5; j++ {
		trace = append(trace, &IngestRequest{Reducers: []WireReducerUp{
			{Job: j, Reduce: 0, Host: (j * 2) % 16}, {Job: j, Reduce: 1, Host: (j*2 + 1) % 16}}})
		for m := 0; m < 3; m++ {
			trace = append(trace, &IngestRequest{Intents: []WireIntent{{
				Job: j, Map: m, SrcHost: (j + m) % 16, PredictedWireBytes: []float64{2e6, 3e6}}}})
		}
	}

	oracle, _ := runStorm(t, base, "", nil, trace)
	if oracle.ExpiredBookings == 0 {
		t.Fatalf("oracle expired nothing; the trace does not exercise the sweep: %+v", oracle.CollectorStats)
	}
	st, gens := runStorm(t, base, t.TempDir(), []crashPlan{{CrashAfterAppend, 6}}, trace)
	if gens != 2 {
		t.Fatalf("%d generations, want 2", gens)
	}
	if st.PlacementDigest != oracle.PlacementDigest {
		t.Errorf("digest %s != oracle %s", st.PlacementDigest, oracle.PlacementDigest)
	}
	if st.ExpiredBookings != oracle.ExpiredBookings || st.ExpiredIntents != oracle.ExpiredIntents {
		t.Errorf("sweep diverged: expired %d/%d vs oracle %d/%d",
			st.ExpiredBookings, st.ExpiredIntents, oracle.ExpiredBookings, oracle.ExpiredIntents)
	}
	if st.VirtualSec != oracle.VirtualSec {
		t.Errorf("clock %v != oracle %v", st.VirtualSec, oracle.VirtualSec)
	}
}

// TestGracefulRestartFromSnapshot: a clean Shutdown seals the journal with
// a final snapshot; the next start restores it without replaying records
// and continues the digest stream.
func TestGracefulRestartFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, ClockHz: 50, WALDir: dir}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	postJSON(t, client, ts.URL, `{"reducers":[{"job":0,"reduce":0,"host":1}]}`)
	postJSON(t, client, ts.URL, `{"intents":[{"job":0,"map":0,"src_host":2,"predicted_wire_bytes":[4e6]}]}`)
	before := getStats(t, client, ts.URL)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	cfg.Recover = true
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovering: %v", err)
	}
	srv2.Start()
	if err := srv2.AwaitReady(context.Background()); err != nil {
		t.Fatalf("awaiting recovery: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	after := getStats(t, ts2.Client(), ts2.URL)
	if !after.Recovered {
		t.Error("restart does not report recovery")
	}
	if after.RecoveredRecords != 0 {
		t.Errorf("replayed %d records despite final snapshot", after.RecoveredRecords)
	}
	if after.PlacementDigest != before.PlacementDigest {
		t.Errorf("digest %s != pre-shutdown %s", after.PlacementDigest, before.PlacementDigest)
	}
	if after.OutstandingBookings != before.OutstandingBookings {
		t.Errorf("bookings %d != pre-shutdown %d", after.OutstandingBookings, before.OutstandingBookings)
	}
	// The restored process keeps serving: retire the job and check drain.
	postJSON(t, ts2.Client(), ts2.URL, `{"done_jobs":[0]}`)
	if st := getStats(t, ts2.Client(), ts2.URL); st.OutstandingBookings != 0 {
		t.Errorf("%d bookings leaked after restart-then-retire", st.OutstandingBookings)
	}
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestJournalRequiresRecoverFlag: starting over a non-empty journal without
// Recover must fail loudly instead of silently orphaning history.
func TestJournalRequiresRecoverFlag(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[3]}`)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if _, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir}); err == nil {
		t.Fatal("New over a journal with history succeeded without Recover")
	}
}

// TestJournalAppendFailureFailsStop: a journal that refuses an append takes
// the crash path instead of panicking — nothing is acked, the loop dies,
// probes say why, later requests are refused and counted, and a restart over
// the same directory holds none of the unacked operations. wal.Log.Append
// errors on a closed log, so aborting the handle is the whole fault.
func TestJournalAppendFailureFailsStop(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	if resp, _ := postJSON(t, client, ts.URL, `{"reducers":[{"job":0,"reduce":0,"host":1}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: HTTP %d", resp.StatusCode)
	}

	srv.colMu.Lock()
	srv.wal.Abort()
	srv.colMu.Unlock()
	intent := `{"intents":[{"job":0,"map":0,"src_host":2,"predicted_wire_bytes":[4e6]}]}`
	if resp, body := postJSON(t, client, ts.URL, intent); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unjournaled batch answered HTTP %d: %s", resp.StatusCode, body)
	}
	<-srv.loopDone

	if code, body := getText(t, client, ts.URL+"/v1/readyz"); code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "journal failed: ") {
		t.Fatalf("readyz after append failure: HTTP %d %q, want 503 journal failed: <err>", code, body)
	}
	if code, _ := getText(t, client, ts.URL+"/v1/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after append failure: HTTP %d, want 503", code)
	}
	if resp, _ := postJSON(t, client, ts.URL, `{"done_jobs":[0]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after append failure: HTTP %d, want 503", resp.StatusCode)
	}
	if s := scrape(t, client, ts.URL).Sample("pythia_serve_rejected_total", "reason", "crashed"); s == nil || s.Value != 1 {
		t.Fatalf("rejected_total{reason=crashed} = %+v, want 1", s)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after append failure: %v", err)
	}

	succ, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir, Recover: true})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	succ.Start()
	defer succ.Shutdown(context.Background())
	if err := succ.AwaitReady(context.Background()); err != nil {
		t.Fatalf("AwaitReady: %v", err)
	}
	ts2 := httptest.NewServer(succ.Handler())
	defer ts2.Close()
	if st := getStats(t, ts2.Client(), ts2.URL); st.RecoveredRecords != 1 || st.IntentsReceived != 0 || st.OutstandingBookings != 0 {
		t.Fatalf("restart holds unacked work: replayed=%d intents=%d bookings=%d, want 1/0/0",
			st.RecoveredRecords, st.IntentsReceived, st.OutstandingBookings)
	}
}

// TestSnapshotFailureIsCounted: a server that can no longer snapshot keeps
// serving (the journal stays authoritative) but says so. The write fails on
// its own goroutine and the error is counted when the batch loop adopts the
// result, so the counter is polled; meanwhile every batch answers 200, the
// records-since-snapshot gauge grows by one per batch, no snapshot is ever
// reported, and a failed snapshot does not stop the next trigger from trying
// again. Removing the journal directory under the running server is
// the fault: appends to the open segment still succeed, creating the
// snapshot file does not.
func TestSnapshotFailureIsCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	srv, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir, SnapshotEvery: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	awaitErrors := func(atLeast float64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if s := scrape(t, client, ts.URL).Sample("pythia_wal_snapshot_errors_total"); s != nil && s.Value >= atLeast {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("snapshot_errors_total never reached %v", atLeast)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for batch := 1; batch <= 4; batch++ {
		if resp, body := postJSON(t, client, ts.URL, fmt.Sprintf(`{"done_jobs":[%d]}`, batch)); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: HTTP %d: %s", batch, resp.StatusCode, body)
		}
		if lag := scrape(t, client, ts.URL).Sample("pythia_wal_records_since_snapshot"); lag == nil || lag.Value != float64(batch) {
			t.Fatalf("after batch %d: records_since_snapshot = %+v, want %d", batch, lag, batch)
		}
		// Every batch from the second on finds nothing in flight and a stale
		// snapSeq, so it tries — and fails — again; the idle loop adopts the
		// failure, which is when it is counted.
		awaitErrors(float64(batch - 1))
	}
	if st := getStats(t, client, ts.URL); st.Snapshots != 0 || st.SnapshotSeq != 0 {
		t.Fatalf("snapshots=%d snapshot_seq=%d reported from a removed directory", st.Snapshots, st.SnapshotSeq)
	}
}
