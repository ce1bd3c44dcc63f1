package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHTTPServerHardened pins the front-end timeouts that bound slowloris
// connection hoarding.
func TestHTTPServerHardened(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := srv.httpServer(":0")
	if hs.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slow-header connections hoard sockets forever")
	}
	if hs.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alive connections never close")
	}
	if hs.Handler == nil {
		t.Error("handler not wired")
	}
}

// TestOversizedBodyRejected413: a body past maxBodyBytes answers 413 (not a
// truncation-shaped 400), and the server survives to serve the next request.
func TestOversizedBodyRejected413(t *testing.T) {
	srv, err := New(Config{MaxOpsPerRequest: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var b strings.Builder
	b.WriteString(`{"intents":[`)
	for i := 0; b.Len() < maxBodyBytes+1024; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"job":%d,"map":0,"src_host":0,"predicted_wire_bytes":[1e6]}`, i)
	}
	b.WriteString(`]}`)
	resp, body := postJSON(t, ts.Client(), ts.URL, b.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d: %.200s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[1]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after 413: HTTP %d", resp.StatusCode)
	}
}

// TestShutdownIdempotent: repeated and concurrent Shutdown calls all return
// cleanly (the stop channel closes exactly once, the journal seals once).
func TestShutdownIdempotent(t *testing.T) {
	srv, err := New(Config{WALDir: t.TempDir(), ClockHz: 50})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[1]}`)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = srv.Shutdown(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("shutdown %d: %v", i, err)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown after shutdown: %v", err)
	}
}

// TestRetryAfterDerivation pins the backlog-drain estimate.
func TestRetryAfterDerivation(t *testing.T) {
	cases := []struct {
		depth int
		rate  float64
		want  int
	}{
		{0, 0, 1},     // no estimate yet: floor
		{100, 0, 1},   // still no estimate: floor, not a wild guess
		{0, 50, 1},    // empty queue: floor
		{10, 50, 1},   // drains in 0.2s: floor
		{100, 50, 2},  // 2 s of backlog
		{75, 10, 8},   // ceil(7.5)
		{1000, 1, 30}, // clamp at 30 s
		{5, -3, 1},    // nonsense rate: floor
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.depth, c.rate); got != c.want {
			t.Errorf("retryAfterSecs(%d, %v) = %d, want %d", c.depth, c.rate, got, c.want)
		}
	}
}

// TestRetryAfterHeaderInRange: the live 429 header carries the derived
// value, parseable and within the clamp.
func TestRetryAfterHeaderInRange(t *testing.T) {
	srv, err := New(Config{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the queue can only fill.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json",
			strings.NewReader(`{"done_jobs":[1]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, ts.Client(), ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[2]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("Retry-After %q not an int in [1,30] (%v)", resp.Header.Get("Retry-After"), err)
	}
	srv.Start()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledRequestCommitsOnce: a client that gives up after enqueue
// does not un-enqueue its ops — they commit exactly once, and resubmitting
// them deduplicates.
func TestCancelledRequestCommitsOnce(t *testing.T) {
	srv, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Not started yet: the request parks in the queue so cancellation
	// deterministically wins the race against commit.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"reducers":[{"job":0,"reduce":0,"host":1}],
		"intents":[{"job":0,"map":0,"src_host":2,"predicted_wire_bytes":[3e6]}]}`
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/ingest",
		bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	respC := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		respC <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, ts.Client(), ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-respC; err == nil {
		t.Fatal("cancelled request returned a response")
	}

	srv.Start()
	defer srv.Shutdown(context.Background())
	deadline = time.Now().Add(5 * time.Second)
	for getStats(t, ts.Client(), ts.URL).IntentsReceived != 1 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled request's ops never committed")
		}
		time.Sleep(time.Millisecond)
	}

	// The abandoned client's retry deduplicates instead of double-booking.
	resp, raw := postJSON(t, ts.Client(), ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := getStats(t, ts.Client(), ts.URL)
	if st.IntentsReceived != 1 {
		t.Errorf("intents_received = %d after resubmit, want 1 (exactly-once)", st.IntentsReceived)
	}
	if st.DedupHits != 1 {
		t.Errorf("dedup_hits = %d, want 1", st.DedupHits)
	}
}
