package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pythia/internal/bench"
	"pythia/internal/core"
	"pythia/internal/flight"
	"pythia/internal/serve"
)

// recoverRecords is the journal length recover_tail replays: 600 sequential
// 64-op requests, one record each. The live window fills after about 120
// records, so the tail is at steady state, and one recovery takes well
// under a second — a 10 s window holds a dozen or more.
const recoverRecords = 600

func recoverConfig(walDir string) serve.Config {
	return serve.Config{
		FatTreeK:      4,
		ClockHz:       gateClockHz,
		WALDir:        walDir,
		FsyncEvery:    -1, // the read path is under test; fsync belongs to serve_wal
		SnapshotEvery: -1, // no snapshot: recovery replays the whole journal
	}
}

// copyDir copies the flat journal directory src to a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sameCounters compares two collector snapshots: every counter and gauge
// exactly, except the shard count (the oracle has one shard) and the demand
// sum, which the collector adds up in map-iteration order and so repeats
// only to rounding — two reads of one unchanged collector can differ in
// the last bits.
func sameCounters(a, b core.CollectorStats) bool {
	da, db := a.OutstandingDemandBits, b.OutstandingDemandBits
	if math.Abs(da-db) > 1e-9*math.Max(math.Abs(da), math.Abs(db)) {
		return false
	}
	a.Shards, b.Shards = 0, 0
	a.OutstandingDemandBits, b.OutstandingDemandBits = 0, 0
	return a == b
}

// buildJournal ingests bodies sequentially into a journaled server and
// kills it with an injected crash before a sentinel append, leaving walDir
// the way kill -9 would. It returns the server's last stats and, for a
// traced run, its metrics page.
func buildJournal(walDir string, bodies [][]byte, traced bool) (*serve.StatsResponse, *flight.Exposition, error) {
	var armed atomic.Bool
	cfg := recoverConfig(walDir)
	cfg.Metrics = traced
	cfg.CrashHook = func(p serve.CrashPoint) bool { return p == serve.CrashBeforeAppend && armed.Load() }
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := newIngestClient(ts.URL)
	defer cl.close()
	for i, b := range bodies {
		code, _, err := cl.post(b)
		if err != nil {
			return nil, nil, err
		}
		if code != http.StatusOK {
			return nil, nil, fmt.Errorf("journaling request %d: HTTP %d", i, code)
		}
	}
	st, err := fetchStats(cl.hc, ts.URL)
	if err != nil {
		return nil, nil, err
	}
	var expo *flight.Exposition
	if traced {
		if expo, err = fetchExposition(cl.hc, ts.URL); err != nil {
			return nil, nil, err
		}
	}
	armed.Store(true)
	code, _, err := cl.post([]byte(`{"done_jobs":[1000000000]}`))
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusServiceUnavailable {
		return nil, nil, fmt.Errorf("crash sentinel answered HTTP %d, want 503", code)
	}
	return st, expo, nil
}

// recoverOnce times one recovery of walDir — New through AwaitReady — and
// returns the recovered server's stats.
func recoverOnce(walDir string, traced bool) (time.Duration, *serve.StatsResponse, error) {
	cfg := recoverConfig(walDir)
	cfg.Recover = true
	if traced {
		cfg.Metrics = true
		cfg.FlightEvents = flightRing
	}
	t0 := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	srv.Start()
	if err := srv.AwaitReady(context.Background()); err != nil {
		return 0, nil, err
	}
	d := time.Since(t0)
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{}
	st, err := fetchStats(hc, ts.URL)
	hc.CloseIdleConnections()
	ts.Close()
	if err != nil {
		return 0, nil, err
	}
	if err := shutdown(srv); err != nil {
		return 0, nil, err
	}
	return d, st, nil
}

// runRecover is the recover_tail workload.
func runRecover(o options) (*report, error) {
	rep := newReport("recover_tail", o)
	walRoot := filepath.Join(o.scratch, "wal")
	defer os.RemoveAll(walRoot)

	p, err := buildPool(o.seed, bench.FatTreeHosts(4), 64, (recoverRecords+conns)*64)
	if err != nil {
		return nil, err
	}
	bodies := p.interleaved(recoverRecords)
	if len(bodies) != recoverRecords {
		return nil, fmt.Errorf("pool holds %d requests, want %d", len(bodies), recoverRecords)
	}
	journalOps := recoverRecords * 64

	// Set-up cycles: the same gate as the serve workloads, on the journaled
	// configuration.
	gateN := 0
	err = rep.setupGate(bodies[:gateRequests], func() serve.Config {
		gateN++
		return recoverConfig(filepath.Join(walRoot, fmt.Sprintf("gate%d", gateN)))
	})
	if err != nil {
		return nil, err
	}

	wantDigest, wantStats, err := oracleReplay(recoverConfig(""), bodies)
	if err != nil {
		return nil, err
	}
	pristine := filepath.Join(walRoot, "pristine")
	before, expo, err := buildJournal(pristine, bodies, o.trace)
	if err != nil {
		return nil, err
	}
	if before.PlacementDigest != wantDigest || !sameCounters(before.CollectorStats, wantStats) {
		rep.fail("journaling server diverged from the oracle: digest %s vs %s", before.PlacementDigest, wantDigest)
	}

	// Timed recoveries. Each gets a fresh copy of the crashed journal,
	// because the recovered server's graceful shutdown cuts a snapshot. A
	// traced run instruments every other recovery; the rest are the
	// overhead reference.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var ms, bareMS, tracedMS, replaySec []float64
	rep.canaryBefore = canaryMS()
	for deadline := time.Now().Add(o.window); time.Now().Before(deadline); {
		work := filepath.Join(walRoot, "work")
		if err := copyDir(pristine, work); err != nil {
			return nil, err
		}
		instrumented := o.trace && rep.attempted%2 == 1
		start := time.Now()
		d, st, err := recoverOnce(work, instrumented)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", rep.attempted, err)
		}
		tr.add("serve.recover", start, start.Add(d), -1, rep.attempted, 0)
		rep.attempted++
		switch {
		case !st.Recovered || st.RecoveredRecords != recoverRecords:
			rep.failed++
			rep.fail("recovery replayed %d records, want %d", st.RecoveredRecords, recoverRecords)
		case st.PlacementDigest != before.PlacementDigest || st.Shards != before.Shards || !sameCounters(st.CollectorStats, before.CollectorStats):
			rep.failed++
			rep.fail("recovered state differs from the pre-crash server: digest %s vs %s", st.PlacementDigest, before.PlacementDigest)
		case st.PlacementDigest != wantDigest || !sameCounters(st.CollectorStats, wantStats):
			rep.failed++
			rep.fail("recovered state differs from the oracle: digest %s vs %s", st.PlacementDigest, wantDigest)
		}
		sample := float64(d.Nanoseconds()) / 1e6
		ms = append(ms, sample)
		if instrumented {
			tracedMS = append(tracedMS, sample)
			replaySec = append(replaySec, st.RecoverySec)
		} else {
			bareMS = append(bareMS, sample)
		}
		if err := os.RemoveAll(work); err != nil {
			return nil, err
		}
	}
	rep.canaryAfter = canaryMS()

	if !o.trace {
		rep.fewOpsEndToEnd(float64(journalOps), ms)
		return rep, nil
	}
	rep.expoLayers(expo)
	rep.setN("serve.recovery_replay_s", median(replaySec), len(replaySec))
	rep.set("core.placements", float64(before.Placements))
	rep.set("core.outstanding_peak", float64(before.OutstandingBookings))
	rep.set("core.dedup_hits", float64(before.DedupHits))
	rep.set("core.deferred_ratio", ratio(float64(before.IntentsDeferred), float64(before.IntentsReceived)))
	rep.set("trace.overhead_pct", 100*(ratio(median(tracedMS), median(bareMS))-1))
	if err := runProbes(rep, tr, recoverConfig(""), bodies[:o.probeOps/64], true, filepath.Join(walRoot, "probe")); err != nil {
		return nil, err
	}
	rep.spans = tr.spans
	return rep, nil
}
