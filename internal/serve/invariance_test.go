package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"pythia/internal/flight"
	"pythia/internal/sim"
)

// TestShardCountsReplayToOneDigest replays one trace sequentially over HTTP
// at 1, 2, 4 and 8 collector shards: every layout must reach the 1-shard
// placement digest, placement count and logical clock, and drain to zero
// bookings. (core's TestApplyBatchShardAndWorkerInvariance proves the same
// below the wire; this is the guarantee as a client of the service sees it.)
func TestShardCountsReplayToOneDigest(t *testing.T) {
	trace := stormTrace(6, 3, 2, 16)
	base := Config{ClockHz: 50, QueueCap: 64}
	base.Shards = 1
	want, _ := runStorm(t, base, "", nil, trace)
	if want.Placements == 0 {
		t.Fatal("trace placed nothing")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		base.Shards = shards
		st, _ := runStorm(t, base, "", nil, trace)
		if st.PlacementDigest != want.PlacementDigest || st.Placements != want.Placements || st.VirtualSec != want.VirtualSec {
			t.Errorf("shards=%d: digest %s, %d placements, clock %v; 1 shard: %s, %d, %v", shards,
				st.PlacementDigest, st.Placements, st.VirtualSec, want.PlacementDigest, want.Placements, want.VirtualSec)
		}
		if st.OutstandingBookings != 0 || st.PendingIntents != 0 {
			t.Errorf("shards=%d: leaked state: bookings=%d pending=%d", shards, st.OutstandingBookings, st.PendingIntents)
		}
	}
}

// TestServeFlightLogIsShardInvariant: the collector's ingest events ride
// ApplyBatch's delta merge and every collector event carries the collector's
// own engine time, so one request sequence on a ClockHz server records the
// same collector-plane log, byte for byte, at 1, 2, 4 and 8 shards (default
// workers: the shard phase runs concurrently), and each event sits inside
// its batch's BatchIngested … BatchCommitted span at that batch's virtual
// time.
func TestServeFlightLogIsShardInvariant(t *testing.T) {
	trace := flightTrace()
	var want []byte
	for _, shards := range []int{1, 2, 4, 8} {
		got := collectorFlightLog(t, Config{Shards: shards, ClockHz: 50, FlightEvents: 1 << 12}, trace)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: collector flight log differs from 1 shard's\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// flightTrace reaches every collector ingest event: intents deferred until
// their reducers come up, exact duplicates, a speculative attempt replacing
// bookings, and retirement. Every request spans eight jobs, so each batch
// touches every shard.
func flightTrace() []*IngestRequest {
	const jobs = 8
	intents := func(m, attempt int) *IngestRequest {
		req := &IngestRequest{}
		for j := 0; j < jobs; j++ {
			req.Intents = append(req.Intents, WireIntent{Job: j, Map: m, Attempt: attempt,
				SrcHost: (j + m) % 16, PredictedWireBytes: []float64{1e6 * float64(1+(j+m)%5), 2e6}})
		}
		return req
	}
	ups, done := &IngestRequest{}, &IngestRequest{}
	for j := 0; j < jobs; j++ {
		for r := 0; r < 2; r++ {
			ups.Reducers = append(ups.Reducers, WireReducerUp{Job: j, Reduce: r, Host: (3*j + 5*r + 7) % 16})
		}
		done.DoneJobs = append(done.DoneJobs, j)
	}
	return []*IngestRequest{intents(0, 0), ups, intents(1, 0), intents(1, 0), intents(1, 1), intents(2, 0), done}
}

// collectorFlightLog posts trace one request at a time — one request, one
// batch — and returns the ring's collector-plane events as JSON Lines,
// failing the test for an event outside its batch's span or time.
func collectorFlightLog(t *testing.T, cfg Config, trace []*IngestRequest) []byte {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	for i, req := range trace {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp, out := postJSON(t, ts.Client(), ts.URL, string(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: request %d: HTTP %d: %s", cfg.Shards, i, resp.StatusCode, out)
		}
	}
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	var log bytes.Buffer
	seen := map[string]bool{}
	inBatch, batchT := false, sim.Time(0)
	for _, ev := range srv.FlightEvents() {
		switch {
		case ev.Kind == flight.BatchIngested:
			inBatch, batchT = true, ev.T
		case ev.Kind == flight.BatchCommitted:
			inBatch = false
		case ev.Plane == flight.PlaneCollector:
			if !inBatch || ev.T != batchT {
				t.Errorf("shards=%d: %s event at t=%v is outside its batch (in a batch: %v, batch t=%v)",
					cfg.Shards, ev.Kind, ev.T, inBatch, batchT)
			}
			seen[string(ev.Kind)] = true
			seen[string(ev.Kind)+"/"+ev.Disposition] = true
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			log.Write(line)
			log.WriteByte('\n')
		}
	}
	for _, k := range []string{
		string(flight.IntentReceived) + "/" + flight.DispOK,
		string(flight.IntentReceived) + "/" + flight.DispDup,
		string(flight.ReducerUpSeen),
		string(flight.BookingMade) + "/" + flight.DispNew,
		string(flight.BookingMade) + "/" + flight.DispReplaced,
		string(flight.Placement),
	} {
		if !seen[k] {
			t.Errorf("shards=%d: no %s event in the ring", cfg.Shards, k)
		}
	}
	return log.Bytes()
}

// TestSnapshotBoundsReplayedTail journals a whole trace one request per
// batch, kills the server the way kill -9 would (a sentinel batch dies before
// its append, the journal stays unsealed), and recovers in a fresh server.
// With snapshots off the journal holds one record per request and recovery
// replays all of them; with a snapshot every 4 batches recovery replays only
// the tail behind the last snapshot. Either way the recovered process holds
// the uninterrupted run's digest and no bookings.
func TestSnapshotBoundsReplayedTail(t *testing.T) {
	trace := stormTrace(6, 3, 2, 16)
	base := Config{Shards: 2, ClockHz: 50, QueueCap: 64}
	oracle, _ := runStorm(t, base, "", nil, trace)

	recoverAfterKill := func(every int) (before, after StatsResponse) {
		dir := t.TempDir()
		var armed atomic.Bool
		cfg := base
		cfg.WALDir, cfg.SnapshotEvery = dir, every
		cfg.CrashHook = func(p CrashPoint) bool { return p == CrashBeforeAppend && armed.Load() }
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		ts := httptest.NewServer(srv.Handler())
		for i, req := range trace {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp, _ := postJSON(t, ts.Client(), ts.URL, string(body)); resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
			}
		}
		before = getStats(t, ts.Client(), ts.URL)
		armed.Store(true)
		if resp, _ := postJSON(t, ts.Client(), ts.URL, `{"done_jobs":[1000000]}`); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("sentinel batch answered HTTP %d, want 503 from the crash", resp.StatusCode)
		}
		<-srv.loopDone
		ts.Close()

		cfg.CrashHook, cfg.Recover = nil, true
		succ, err := New(cfg)
		if err != nil {
			t.Fatalf("recovering: %v", err)
		}
		succ.Start()
		if err := succ.AwaitReady(context.Background()); err != nil {
			t.Fatalf("awaiting recovery: %v", err)
		}
		ts2 := httptest.NewServer(succ.Handler())
		after = getStats(t, ts2.Client(), ts2.URL)
		ts2.Close()
		if err := succ.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if after.PlacementDigest != oracle.PlacementDigest {
			t.Errorf("snapshot_every=%d: recovered digest %s != uninterrupted %s", every, after.PlacementDigest, oracle.PlacementDigest)
		}
		if after.OutstandingBookings != 0 || after.PendingIntents != 0 {
			t.Errorf("snapshot_every=%d: leaked state after recovery: bookings=%d pending=%d",
				every, after.OutstandingBookings, after.PendingIntents)
		}
		return before, after
	}

	plainBefore, plain := recoverAfterKill(-1)
	if plainBefore.WALRecords != len(trace) {
		t.Errorf("snapshots off: %d journal records, want %d (one per request)", plainBefore.WALRecords, len(trace))
	}
	if plainBefore.Snapshots != 0 {
		t.Errorf("snapshots off: wrote %d snapshots", plainBefore.Snapshots)
	}
	if plain.RecoveredRecords != len(trace) {
		t.Errorf("snapshots off: replayed %d records, want the full journal (%d)", plain.RecoveredRecords, len(trace))
	}
	snapBefore, snap := recoverAfterKill(4)
	if snapBefore.Snapshots == 0 {
		t.Errorf("snapshot_every=4: wrote no snapshots over %d batches", len(trace))
	}
	if snap.RecoveredRecords >= plain.RecoveredRecords {
		t.Errorf("snapshots did not shorten replay: %d >= %d", snap.RecoveredRecords, plain.RecoveredRecords)
	}
}
