package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func postJSON(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/ingest", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/ingest: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getStats(t *testing.T, client *http.Client, url string) StatsResponse {
	t.Helper()
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return st
}

// TestServerEndToEnd drives one job through the full HTTP surface: reducer
// placements, intents (with one duplicate), retirement, stats, health.
func TestServerEndToEnd(t *testing.T) {
	srv, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	resp, body := postJSON(t, client, ts.URL, `{
		"reducers": [{"job":0,"reduce":0,"host":0},{"job":0,"reduce":1,"host":3}],
		"intents": [
			{"job":0,"map":0,"src_host":1,"predicted_wire_bytes":[1e7,2e7]},
			{"job":0,"map":0,"src_host":1,"predicted_wire_bytes":[1e7,2e7]}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	if ir.Accepted != 3 || ir.Duplicates != 1 || ir.Deferred != 0 {
		t.Fatalf("dispositions: %+v", ir)
	}
	if want := []string{"accepted", "accepted", "accepted", "duplicate"}; len(ir.Results) != 4 ||
		ir.Results[0] != want[0] || ir.Results[3] != want[3] {
		t.Fatalf("results %v, want %v", ir.Results, want)
	}

	st := getStats(t, client, ts.URL)
	if st.Placements == 0 || st.AggregatesPlaced == 0 {
		t.Fatalf("no placements after resolvable intents: %+v", st)
	}
	if st.OutstandingBookings == 0 {
		t.Fatalf("expected live bookings before retirement: %+v", st)
	}

	resp, body = postJSON(t, client, ts.URL, `{"done_jobs":[0]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retire: HTTP %d: %s", resp.StatusCode, body)
	}
	if st := getStats(t, client, ts.URL); st.OutstandingBookings != 0 {
		t.Fatalf("%d bookings leaked after done_jobs", st.OutstandingBookings)
	}

	resp, body = postJSON(t, client, ts.URL, `{"intents":[{"job":0,"map":0,"src_host":99,"predicted_wire_bytes":[1]}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad host: HTTP %d: %s", resp.StatusCode, body)
	}

	hz, err := client.Get(ts.URL + "/v1/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hz.StatusCode, err)
	}
	hz.Body.Close()

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestBookingTTLZeroDefaultsNegativeDisables pins what BookingTTLSec's
// settings mean: zero takes the 30 s default, and only a negative value turns
// the sweep off. Under the logical clock (one virtual second per novel op)
// a booking outlives 100 virtual seconds only when the sweep is off.
func TestBookingTTLZeroDefaultsNegativeDisables(t *testing.T) {
	if got := (Config{}).Defaults().BookingTTLSec; got != 30 {
		t.Fatalf("zero BookingTTLSec defaults to %v, want 30", got)
	}
	run := func(ttl float64) StatsResponse {
		srv, err := New(Config{Shards: 1, ClockHz: 1, BookingTTLSec: ttl})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		defer srv.Shutdown(context.Background())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()
		ingest := func(body string) {
			t.Helper()
			if resp, out := postJSON(t, client, ts.URL, body); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, out)
			}
		}
		ingest(`{"reducers":[{"job":0,"reduce":0,"host":0}],
			"intents":[{"job":0,"map":0,"src_host":3,"predicted_wire_bytes":[1e7]}]}`)
		// 100 novel reducer placements of other jobs advance the clock by
		// 100 virtual seconds without touching job 0's booking.
		for r := 0; r < 4; r++ {
			var ups []string
			for j := 1; j <= 25; j++ {
				ups = append(ups, fmt.Sprintf(`{"job":%d,"reduce":0,"host":1}`, 25*r+j))
			}
			ingest(`{"reducers":[` + strings.Join(ups, ",") + `]}`)
		}
		return getStats(t, client, ts.URL)
	}
	if st := run(-1); st.VirtualSec < 100 || st.OutstandingBookings == 0 || st.ExpiredBookings != 0 {
		t.Fatalf("negative TTL: at %v virtual s, %d bookings live and %d expired; want the booking kept",
			st.VirtualSec, st.OutstandingBookings, st.ExpiredBookings)
	}
	if st := run(0); st.VirtualSec < 100 || st.ExpiredBookings == 0 {
		t.Fatalf("zero TTL: at %v virtual s, %d bookings expired; want the 30 s default to sweep",
			st.VirtualSec, st.ExpiredBookings)
	}
}

// TestServerBackpressure429: with a full single-slot queue and no batch
// loop draining it, the next request is rejected with 429 + Retry-After;
// once the loop starts, the queued request completes normally.
func TestServerBackpressure429(t *testing.T) {
	srv, err := New(Config{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately not started: the queue can only fill.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, client, ts.URL, `{"done_jobs":[7]}`)
		first <- resp.StatusCode
	}()
	// Wait until the first request occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, client, ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, client, ts.URL, `{"done_jobs":[8]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: HTTP %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	srv.Start()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("queued request: HTTP %d after loop start", code)
	}
	if st := getStats(t, client, ts.URL); st.RejectedTotal != 1 {
		t.Fatalf("rejected_total = %d, want 1", st.RejectedTotal)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerGracefulShutdown: after Shutdown both ingest and health answer
// 503, and shutdown itself returns cleanly.
func TestServerGracefulShutdown(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	if resp, body := postJSON(t, client, ts.URL, `{"done_jobs":[1]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown ingest: HTTP %d: %s", resp.StatusCode, body)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if resp, _ := postJSON(t, client, ts.URL, `{"done_jobs":[2]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest: HTTP %d, want 503", resp.StatusCode)
	}
	hz, err := client.Get(ts.URL + "/v1/healthz")
	if err != nil || hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %v %v, want 503", hz.StatusCode, err)
	}
	hz.Body.Close()
}

// TestServerConcurrentIngest hammers the server from many goroutines (one
// job per goroutine, so op order within a job is preserved) and checks
// nothing leaks — the test exists mostly for the race detector.
func TestServerConcurrentIngest(t *testing.T) {
	srv, err := New(Config{Shards: 4, QueueCap: 8, BatchMax: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const jobs = 12
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			client := ts.Client()
			post := func(body string) {
				for {
					resp, err := client.Post(ts.URL+"/v1/ingest", "application/json",
						bytes.NewReader([]byte(body)))
					if err != nil {
						t.Errorf("job %d: %v", j, err)
						return
					}
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusTooManyRequests {
						time.Sleep(time.Millisecond)
						continue
					}
					if code != http.StatusOK {
						t.Errorf("job %d: HTTP %d", j, code)
					}
					return
				}
			}
			post(fmt.Sprintf(`{"reducers":[{"job":%d,"reduce":0,"host":%d},{"job":%d,"reduce":1,"host":%d}]}`,
				j, j%8, j, (j+3)%8))
			for m := 0; m < 4; m++ {
				post(fmt.Sprintf(`{"intents":[{"job":%d,"map":%d,"src_host":%d,"predicted_wire_bytes":[2e6,3e6]}]}`,
					j, m, (j+m)%8))
			}
			post(fmt.Sprintf(`{"done_jobs":[%d]}`, j))
		}(j)
	}
	wg.Wait()

	st := getStats(t, ts.Client(), ts.URL)
	if st.OutstandingBookings != 0 || st.PendingIntents != 0 {
		t.Fatalf("leaks after all jobs retired: %+v", st)
	}
	if st.IntentsReceived != jobs*4 {
		t.Fatalf("intents_received = %d, want %d", st.IntentsReceived, jobs*4)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
