package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pythia/internal/flight"
	"pythia/internal/flight/flighttest"
)

func scrape(t *testing.T, client *http.Client, url string) *flight.Exposition {
	t.Helper()
	exp, err := tryScrape(client, url)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// getText GETs url and returns the status and the trimmed plain-text body
// (the probes' reason strings).
func getText(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, strings.TrimSpace(string(body))
}

// awaitSnapshotIdle blocks until no snapshot is in flight: the writer has
// finished and the (idle) batch loop has adopted its result.
func awaitSnapshotIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.colMu.Lock()
		busy := srv.snapInFlight
		srv.colMu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot still in flight after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// tryScrape fetches, lints and parses /metrics; goroutines other than the
// test's own use it directly and report with t.Error.
func tryScrape(client *http.Client, url string) (*flight.Exposition, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("Content-Type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := flighttest.LintExposition(string(raw)); err != nil {
		return nil, fmt.Errorf("exposition fails lint: %v\n%s", err, raw)
	}
	return flight.ParseExposition(string(raw))
}

// TestMetricsEndToEnd ingests real traffic on a server with every plane on and
// checks the scrape: the exposition parses and lints clean, and the key
// series across the serve, WAL, and collector planes carry the expected
// values.
func TestMetricsEndToEnd(t *testing.T) {
	srv, err := New(Config{
		Shards:       2,
		ClockHz:      50,
		WALDir:       t.TempDir(),
		Metrics:      true,
		FlightEvents: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Real ingest through the retrying client; the second intent is an exact
	// duplicate, so dedup must tick.
	in := WireIntent{Job: 0, Map: 0, SrcHost: 1, PredictedWireBytes: []float64{1e7, 2e7}}
	if _, err := NewClient(ts.URL, ClientConfig{HTTP: client, Seed: 1}).Ingest(context.Background(), &IngestRequest{
		Reducers: []WireReducerUp{{Job: 0, Reduce: 0, Host: 0}, {Job: 0, Reduce: 1, Host: 3}},
		Intents:  []WireIntent{in, in},
	}); err != nil {
		t.Fatalf("client ingest: %v", err)
	}
	if resp, _ := postJSON(t, client, ts.URL, `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request: HTTP %d", resp.StatusCode)
	}

	exp := scrape(t, client, ts.URL)
	checks := []struct {
		name string
		kv   []string
		want float64
	}{
		{"pythia_serve_requests_total", []string{"route", "/v1/ingest", "code", "200"}, 1},
		{"pythia_serve_requests_total", []string{"route", "/v1/ingest", "code", "400"}, 1},
		{"pythia_serve_rejected_total", []string{"reason", "bad_request"}, 1},
		{"pythia_serve_batches_total", nil, 1},
		{"pythia_serve_ops_total", nil, 4},
		{"pythia_serve_ready", nil, 1},
		{"pythia_serve_draining", nil, 0},
		{"pythia_collector_intents_received_total", nil, 1},
		{"pythia_collector_dedup_hits_total", nil, 1},
	}
	for _, c := range checks {
		s := exp.Sample(c.name, c.kv...)
		if s == nil {
			t.Errorf("series %s%v missing from scrape", c.name, c.kv)
			continue
		}
		if s.Value != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.kv, s.Value, c.want)
		}
	}
	// Cumulative families that only assert nonzero (timing-dependent).
	for _, name := range []string{
		"pythia_wal_appends_total", "pythia_wal_appended_bytes_total",
		"pythia_wal_rotations_total", "pythia_wal_fsync_seconds_count",
		"pythia_serve_placements_total",
	} {
		if s := exp.Sample(name); s == nil || s.Value <= 0 {
			t.Errorf("series %s missing or zero", name)
		}
	}
	// Histogram families present and consistent (lint already proved
	// cumulative buckets; check the observation landed).
	if s := exp.Sample("pythia_serve_request_seconds_count", "route", "/v1/ingest"); s == nil || s.Value != 2 {
		t.Errorf("request latency histogram: got %+v, want count 2", s)
	}
	if s := exp.Sample("pythia_serve_commit_seconds_count"); s == nil || s.Value != 1 {
		t.Errorf("commit latency histogram: got %+v, want count 1", s)
	}
	// Per-shard series exist for every shard.
	for _, shard := range []string{"0", "1"} {
		for _, name := range []string{"pythia_collector_shard_booked_flows", "pythia_collector_shard_dedup_hits_total"} {
			if s := exp.Sample(name, "shard", shard); s == nil {
				t.Errorf("per-shard series %s missing for shard %s", name, shard)
			}
		}
	}

	// The middleware stamps request IDs.
	resp, err := client.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID on the response")
	}

	// The flight recorder saw the batch lifecycle.
	kinds := map[flight.Kind]bool{}
	for _, ev := range srv.FlightEvents() {
		kinds[ev.Kind] = true
	}
	for _, k := range []flight.Kind{flight.BatchIngested, flight.BatchJournaled, flight.BatchCommitted} {
		if !kinds[k] {
			t.Errorf("flight recorder missing %s event", k)
		}
	}
	if tr, err := srv.ChromeTrace(); err != nil || len(tr) == 0 {
		t.Errorf("ChromeTrace: %v (%d bytes)", err, len(tr))
	}
}

// TestReadyzTransitions walks the readiness state machine: "recovering" while
// the (gated) replay runs, "ready" after, "draining" during shutdown — while
// /v1/healthz stays a pure liveness probe (200 during recovery).
func TestReadyzTransitions(t *testing.T) {
	dir := t.TempDir()
	seed, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seed.Start()
	ts := httptest.NewServer(seed.Handler())
	postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[1]}`)
	if err := seed.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	srv, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.recoverGate = make(chan struct{}) // hold replay: server stays "recovering"
	srv.Start()
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	client := ts2.Client()

	probe := func(path string) (int, string) {
		t.Helper()
		return getText(t, client, ts2.URL+path)
	}

	if code, body := probe("/v1/readyz"); code != http.StatusServiceUnavailable || body != "recovering" {
		t.Fatalf("recovering readyz: HTTP %d %q, want 503 recovering", code, body)
	}
	if code, _ := probe("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during recovery: HTTP %d, want 200 (liveness only)", code)
	}
	resp, err := client.Post(ts2.URL+"/v1/ingest", "application/json", strings.NewReader(`{"done_jobs":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest during recovery: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("recovering 503 carries no Retry-After")
	}

	close(srv.recoverGate)
	if err := srv.AwaitReady(context.Background()); err != nil {
		t.Fatalf("AwaitReady: %v", err)
	}
	if code, body := probe("/v1/readyz"); code != http.StatusOK || body != "ready" {
		t.Fatalf("ready readyz: HTTP %d %q, want 200 ready", code, body)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := probe("/v1/readyz"); code != http.StatusServiceUnavailable || body != "draining" {
		t.Fatalf("draining readyz: HTTP %d %q, want 503 draining", code, body)
	}
}

// TestRecoveryMetricsAfterRestart kills a server mid-stream, restarts over
// the journal, and checks the successor's scrape reports a nonzero replay:
// the crash-recovery storm's observability counterpart.
func TestRecoveryMetricsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	kill := make(chan struct{})
	srv, err := New(Config{
		Shards: 2, ClockHz: 50, WALDir: dir, SnapshotEvery: -1,
		CrashHook: func(p CrashPoint) bool {
			select {
			case <-kill:
				return p == CrashAfterCommit
			default:
				return false
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	postJSON(t, client, ts.URL, `{"reducers":[{"job":0,"reduce":0,"host":1}]}`)
	postJSON(t, client, ts.URL, `{"intents":[{"job":0,"map":0,"src_host":2,"predicted_wire_bytes":[4e6]}]}`)
	close(kill) // next batch dies after commit, journal unsealed
	resp, _ := postJSON(t, client, ts.URL, `{"done_jobs":[9]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("crashed batch answered HTTP %d, want 503", resp.StatusCode)
	}
	<-srv.loopDone
	ts.Close()

	succ, err := New(Config{Shards: 2, ClockHz: 50, WALDir: dir, Recover: true, Metrics: true})
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
	exp := scrape(t, ts2.Client(), ts2.URL)
	if s := exp.Sample("pythia_recovery_recovered"); s == nil || s.Value != 1 {
		t.Errorf("pythia_recovery_recovered = %+v, want 1", s)
	}
	if s := exp.Sample("pythia_recovery_replayed_records"); s == nil || s.Value <= 0 {
		t.Errorf("pythia_recovery_replayed_records = %+v, want > 0", s)
	}
	if s := exp.Sample("pythia_recovery_seconds"); s == nil || s.Value <= 0 {
		t.Errorf("pythia_recovery_seconds = %+v, want > 0", s)
	}
}

// TestStatsSnapshotConsistencyHammer pounds ingest while concurrently reading
// the book the way /v1/stats does — one view plus the registry totals — (run
// under -race): totals must be monotone across reads, and the final read
// must account for every request.
func TestStatsSnapshotConsistencyHammer(t *testing.T) {
	srv, err := New(Config{Shards: 2, QueueCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, perWriter = 8, 25
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[1]}`)
				}
			}(w)
		}
		wg.Wait()
	}()

	var lastReq, lastCommitted float64
	var lastVirtual float64
	for {
		v := srv.view()
		req, committed := srv.met.ingestRequests.Value(), float64(flighttest.HistogramCount(srv.met.enqueueCommit))
		if req < lastReq || committed < lastCommitted || v.virtual < lastVirtual {
			t.Fatalf("book went backwards: requests %v→%v committed %v→%v virtual %v→%v",
				lastReq, req, lastCommitted, committed, lastVirtual, v.virtual)
		}
		lastReq, lastCommitted, lastVirtual = req, committed, v.virtual
		select {
		case <-done:
			// Every client has its answer, so every request was counted on
			// the way in and sampled on the way out.
			if req := srv.met.ingestRequests.Value(); req != writers*perWriter {
				t.Fatalf("final requests %v, want %d", req, writers*perWriter)
			}
			if n := flighttest.HistogramCount(srv.met.enqueueCommit); n != writers*perWriter {
				t.Fatalf("final enqueue→commit samples %d, want %d", n, writers*perWriter)
			}
			if st := getStats(t, ts.Client(), ts.URL); st.RequestsTotal != writers*perWriter || st.LatencyP99Micros <= 0 {
				t.Fatalf("/v1/stats requests_total=%d p99=%v", st.RequestsTotal, st.LatencyP99Micros)
			}
			return
		default:
		}
	}
}

// TestRequestLogging: with a Logger configured, each request emits one
// structured line carrying the request ID, route, and status.
func TestRequestLogging(t *testing.T) {
	var mu sync.Mutex
	var logs strings.Builder
	syncW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logs.Write(p)
	})
	logger := slog.New(slog.NewJSONHandler(syncW, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv, err := New(Config{Shards: 2, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[1]}`)

	mu.Lock()
	out := logs.String()
	mu.Unlock()
	for _, want := range []string{`"msg":"request"`, `"route":"/v1/ingest"`, `"status":200`, `"request_id":`} {
		if !strings.Contains(out, want) {
			t.Errorf("request log missing %s:\n%s", want, out)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestClientStatsCounters: the client's local counters see its retries.
func TestClientStatsCounters(t *testing.T) {
	var calls int
	var mu sync.Mutex
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"recovering"}`))
			return
		}
		_, _ = w.Write([]byte(`{"results":[],"accepted":0}`))
	}))
	defer h.Close()
	cl := NewClient(h.URL, ClientConfig{
		HTTP: h.Client(), Seed: 1, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if _, err := cl.Ingest(context.Background(), &IngestRequest{DoneJobs: []int{1}}); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Attempts != 2 || st.Retries != 1 {
		t.Errorf("attempts=%d retries=%d, want 2/1", st.Attempts, st.Retries)
	}
	if st.RetryAfterHonored != 1 {
		t.Errorf("retry_after_honored=%d, want 1 (server hint exceeded jitter)", st.RetryAfterHonored)
	}
	if st.BackoffSeconds < 1 {
		t.Errorf("backoff_seconds=%v, want >= 1 (stretched to Retry-After)", st.BackoffSeconds)
	}

	// A permanent rejection counts without retrying.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"no"}`))
	}))
	defer bad.Close()
	cl2 := NewClient(bad.URL, ClientConfig{HTTP: bad.Client(), Seed: 1})
	if _, err := cl2.Ingest(context.Background(), &IngestRequest{}); err == nil {
		t.Fatal("permanent rejection returned no error")
	}
	if st := cl2.Stats(); st.PermanentErrors != 1 || st.Attempts != 1 {
		t.Errorf("permanent=%d attempts=%d, want 1/1", st.PermanentErrors, st.Attempts)
	}
}

// TestPprofOptIn: /debug/pprof is absent by default and mounted with
// Config.Pprof.
func TestPprofOptIn(t *testing.T) {
	plain, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(plain.Handler())
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: HTTP %d, want 404", resp.StatusCode)
	}

	prof, err := New(Config{Shards: 2, Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(prof.Handler())
	defer ts2.Close()
	resp2, err := ts2.Client().Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof with opt-in: HTTP %d, want 200", resp2.StatusCode)
	}
}

// TestStatsAndMetricsAgree: /v1/stats and /metrics are two views of one
// book. After a mixed run on a journaled server — a 429, a 400, duplicates,
// placements — every quantity both endpoints publish is equal between one
// fetch of each at quiescence.
func TestStatsAndMetricsAgree(t *testing.T) {
	srv, err := New(Config{Shards: 2, ClockHz: 50, QueueCap: 1, WALDir: t.TempDir(), SnapshotEvery: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Not started yet: the first request fills the one-slot queue, the
	// second is refused with 429.
	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, client, ts.URL, `{"reducers":[{"job":0,"reduce":0,"host":0},{"job":0,"reduce":1,"host":3}]}`)
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, client, ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postJSON(t, client, ts.URL, `{"done_jobs":[8]}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: HTTP %d, want 429", resp.StatusCode)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	if code := <-first; code != http.StatusOK {
		t.Fatalf("queued request: HTTP %d", code)
	}
	for m := 0; m < 3; m++ {
		body := fmt.Sprintf(`{"intents":[
			{"job":0,"map":%d,"src_host":1,"predicted_wire_bytes":[1e7,2e7]},
			{"job":0,"map":%d,"src_host":1,"predicted_wire_bytes":[1e7,2e7]}]}`, m, m)
		if resp, b := postJSON(t, client, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("intents: HTTP %d: %s", resp.StatusCode, b)
		}
	}
	if resp, _ := postJSON(t, client, ts.URL, `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request: HTTP %d", resp.StatusCode)
	}

	// Snapshots are written off the batch loop and adopted by it; wait for
	// the last one to land so both endpoints describe a quiescent server.
	awaitSnapshotIdle(t, srv)
	st := getStats(t, client, ts.URL)
	exp := scrape(t, client, ts.URL)
	if st.RequestsTotal != 6 || st.RejectedTotal != 1 || st.Placements == 0 || st.DedupHits != 3 ||
		st.Snapshots == 0 || st.SnapshotPauseSec <= 0 || st.SnapshotWriteSec <= 0 ||
		st.CommitIngestSec <= 0 || st.CommitPlaceSec <= 0 {
		t.Fatalf("the run did not exercise what it should: %+v", st)
	}
	cs := st.CollectorStats
	pairs := []struct {
		series string
		kv     []string
		stats  float64
	}{
		{"pythia_serve_ingest_requests_total", nil, float64(st.RequestsTotal)},
		{"pythia_serve_rejected_total", []string{"reason", "queue_full"}, float64(st.RejectedTotal)},
		{"pythia_serve_placements_total", nil, float64(st.Placements)},
		{"pythia_serve_virtual_seconds", nil, st.VirtualSec},
		{"pythia_serve_queue_depth", nil, float64(st.QueueDepth)},
		{"pythia_collector_intents_received_total", nil, float64(cs.IntentsReceived)},
		{"pythia_collector_intents_deferred_total", nil, float64(cs.IntentsDeferred)},
		{"pythia_collector_dedup_hits_total", nil, float64(cs.DedupHits)},
		{"pythia_collector_duplicate_intents_total", nil, float64(cs.DuplicateIntents)},
		{"pythia_collector_expired_bookings_total", nil, float64(cs.ExpiredBookings)},
		{"pythia_collector_expired_intents_total", nil, float64(cs.ExpiredIntents)},
		{"pythia_collector_aggregates_placed_total", nil, float64(cs.AggregatesPlaced)},
		{"pythia_collector_reaffirmations_total", nil, float64(cs.Reaffirmations)},
		{"pythia_collector_reallocations_total", nil, float64(cs.Reallocations)},
		{"pythia_collector_rule_install_errors_total", nil, float64(cs.RuleInstallErrors)},
		{"pythia_collector_flows_rescued_total", nil, float64(cs.FlowsRescued)},
		{"pythia_collector_aggregates_degraded_total", nil, float64(cs.AggregatesDegraded)},
		{"pythia_collector_reconciliations_total", nil, float64(cs.Reconciliations)},
		{"pythia_collector_pending_intents", nil, float64(cs.PendingIntents)},
		{"pythia_collector_outstanding_bookings", nil, float64(cs.OutstandingBookings)},
		{"pythia_collector_outstanding_demand_bits", nil, cs.OutstandingDemandBits},
		{"pythia_collector_commit_phase_seconds_sum", []string{"phase", "ingest"}, st.CommitIngestSec},
		{"pythia_collector_commit_phase_seconds_sum", []string{"phase", "place"}, st.CommitPlaceSec},
		{"pythia_collector_unplaced_aggregates", nil, float64(st.UnplacedAggregates)},
		{"pythia_wal_records", nil, float64(st.WALRecords)},
		{"pythia_wal_segments", nil, float64(st.WALSegments)},
		{"pythia_wal_size_bytes", nil, float64(st.WALBytes)},
		{"pythia_wal_snapshots_total", nil, float64(st.Snapshots)},
		{"pythia_wal_snapshot_pause_seconds_count", nil, float64(st.Snapshots)},
		{"pythia_wal_snapshot_pause_seconds_sum", nil, st.SnapshotPauseSec},
		{"pythia_wal_snapshot_write_seconds_count", nil, float64(st.Snapshots)},
		{"pythia_wal_snapshot_write_seconds_sum", nil, st.SnapshotWriteSec},
		{"pythia_wal_records_since_snapshot", nil, float64(uint64(st.WALRecords) - st.SnapshotSeq)},
		{"pythia_recovery_recovered", nil, b2f(st.Recovered)},
		{"pythia_recovery_replayed_records", nil, float64(st.RecoveredRecords)},
		{"pythia_recovery_seconds", nil, st.RecoverySec},
	}
	for _, p := range pairs {
		s := exp.Sample(p.series, p.kv...)
		if s == nil {
			t.Errorf("%s%v missing from /metrics", p.series, p.kv)
		} else if s.Value != p.stats {
			t.Errorf("%s%v = %v on /metrics, %v on /v1/stats", p.series, p.kv, s.Value, p.stats)
		}
	}
	// The latency fields are the enqueue→commit histogram's quantiles: they
	// sit inside the bucket range the exposition shows samples in.
	if n := exp.Sample("pythia_serve_enqueue_commit_seconds_count"); n == nil || n.Value != 4 {
		t.Errorf("enqueue→commit histogram count %+v, want 4 (requests answered 200)", n)
	}
	if st.LatencyP50Micros <= 0 || st.LatencyP99Micros < st.LatencyP50Micros {
		t.Errorf("latency quantiles p50=%v p99=%v", st.LatencyP50Micros, st.LatencyP99Micros)
	}
	// One observation per committed batch in every leg of the commit.
	batches := exp.Sample("pythia_serve_batches_total")
	for _, phase := range []string{"ingest", "place"} {
		n := exp.Sample("pythia_collector_commit_phase_seconds_count", "phase", phase)
		if batches == nil || n == nil || n.Value != batches.Value || n.Value == 0 {
			t.Errorf("commit phase %q observed %+v times, batches_total %+v", phase, n, batches)
		}
	}
	if flighttest.Family(exp, "pythia_serve_latency_p50_seconds") != nil || flighttest.Family(exp, "pythia_serve_latency_p99_seconds") != nil {
		t.Error("quantile gauges still published next to the histogram")
	}
}

// TestMetricsUnsetStillKeepsTheBook: Config.Metrics only mounts the
// endpoint. Without it GET /metrics is a 404, and /v1/stats still reports
// the totals the registry keeps.
func TestMetricsUnsetStillKeepsTheBook(t *testing.T) {
	srv, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with Metrics unset: HTTP %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID: the middleware is on every server")
	}
	postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[1]}`)
	postJSON(t, ts.Client(), ts.URL, `not json`)
	if st := getStats(t, ts.Client(), ts.URL); st.RequestsTotal != 2 || st.RejectedTotal != 0 || st.LatencyP50Micros <= 0 {
		t.Fatalf("requests_total=%d rejected_total=%d p50=%v, want 2/0/>0", st.RequestsTotal, st.RejectedTotal, st.LatencyP50Micros)
	}
}

// TestScrapesNeverRewindCollectorCounters: concurrent scrapes each store a
// polled view into the registry; a slow one must not overwrite a newer one's
// collector counters (run under -race).
func TestScrapesNeverRewindCollectorCounters(t *testing.T) {
	srv, err := New(Config{Shards: 2, QueueCap: 512, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL, `{"reducers":[{"job":0,"reduce":0,"host":0}]}`)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last float64
			for {
				// A scrape that starts after another finished must not
				// report less: each goroutine's own scrapes are ordered.
				exp, err := tryScrape(ts.Client(), ts.URL)
				if err != nil {
					t.Error(err)
					return
				}
				got := exp.Sample("pythia_collector_intents_received_total").Value
				if got < last {
					t.Errorf("intents_received went backwards: %v after %v", got, last)
					return
				}
				last = got
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for m := 0; m < 200; m++ {
		postJSON(t, ts.Client(), ts.URL, fmt.Sprintf(
			`{"intents":[{"job":0,"map":%d,"src_host":1,"predicted_wire_bytes":[1e6]}]}`, m))
	}
	close(done)
	wg.Wait()
	if got := scrape(t, ts.Client(), ts.URL).Sample("pythia_collector_intents_received_total").Value; got != 200 {
		t.Fatalf("final intents_received %v, want 200", got)
	}
}

// TestStatusWriterUnwrap: http.ResponseController reaches the real writer
// through the middleware's wrapper.
func TestStatusWriterUnwrap(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, code: http.StatusOK}
	if err := http.NewResponseController(sw).Flush(); err != nil {
		t.Fatalf("Flush through statusWriter: %v", err)
	}
	if !rec.Flushed {
		t.Fatal("flush did not reach the wrapped writer")
	}
}
