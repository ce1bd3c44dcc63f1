package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pythia/internal/bench"
	"pythia/internal/flight"
	"pythia/internal/serve"
)

// serveSpec describes one closed-loop serving workload.
type serveSpec struct {
	fatTreeK int
	chunk    int  // operations per ingest request
	journal  bool // write-ahead journal on: fsync every append, snapshot every 64 batches
	// poolOpsPerSec sizes the request pool: 2.5x the ingest rate the tree
	// at this benchmark's first commit sustains, per second of warm-up plus
	// window. A tree that outruns it ends the window early (pool_exhausted).
	poolOpsPerSec int
}

var serveSpecs = map[string]serveSpec{
	"serve_mem":    {fatTreeK: 4, chunk: 64, poolOpsPerSec: 85_000},
	"serve_wal":    {fatTreeK: 4, chunk: 64, journal: true, poolOpsPerSec: 50_000},
	"serve_fabric": {fatTreeK: 8, chunk: 16, poolOpsPerSec: 36_000},
}

const (
	gateRequests = 200 // prefix replayed sequentially against the oracle
	setupCycles  = 3   // set-up is timed this many times; the median is reported
	// rateBucket and tailBucket slice the window for the end-to-end
	// medians. Two seconds of serving is 600-2000 requests, so a slice's p99
	// has 6-20 samples beyond it.
	rateBucket = time.Second
	tailBucket = 2 * time.Second
	// flightRing bounds the traced server's flight recorder. The collector
	// records several events per operation, so the ring holds the last
	// second or two of the window — enough snapshot spans for a mean.
	flightRing = 1 << 18
)

// config is the workload's server configuration: defaults except the fabric
// size and, for the journaled workload, the durability knobs.
func (sp serveSpec) config(walDir string) serve.Config {
	cfg := serve.Config{FatTreeK: sp.fatTreeK}
	if sp.journal {
		cfg.WALDir = walDir
		cfg.FsyncEvery = 0
		cfg.SnapshotEvery = 64
	}
	return cfg
}

// ingestClient is one keep-alive connection to the server.
type ingestClient struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newIngestClient(base string) *ingestClient {
	return &ingestClient{
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		url: base + "/v1/ingest",
	}
}

// post sends one ingest body and returns the status and the reply bytes
// (valid until the next post).
func (c *ingestClient) post(body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *ingestClient) close() { c.hc.CloseIdleConnections() }

// replyInt extracts the integer after `"key":` in an ingest reply. The
// client checks every reply's dispositions, and a full JSON decode of the
// per-op results array would cost the 2-core box more than the server's own
// encode; the reply's scalar fields are all it needs.
func replyInt(reply []byte, key string) int {
	i := bytes.Index(reply, []byte(`"`+key+`":`))
	if i < 0 {
		return -1
	}
	i += len(key) + 3
	j := i
	for j < len(reply) && reply[j] >= '0' && reply[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(reply[i:j]))
	if err != nil {
		return -1
	}
	return n
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fetchStats(hc *http.Client, base string) (*serve.StatsResponse, error) {
	st := new(serve.StatsResponse)
	if err := getJSON(hc, base+"/v1/stats", st); err != nil {
		return nil, err
	}
	return st, nil
}

func fetchExposition(hc *http.Client, base string) (*flight.Exposition, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return flight.ParseExposition(string(text))
}

func shutdown(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// gateCycle is one timed set-up of the system under test: build the
// workload's server, wait for readiness, replay the gate prefix one request
// at a time on the logical clock, read the placement digest, shut down. The
// digest is the correctness gate's input; the duration is a set-up sample.
func gateCycle(cfg serve.Config, bodies [][]byte) (*serve.StatsResponse, time.Duration, error) {
	t0 := time.Now()
	cfg.ClockHz = gateClockHz
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.AwaitReady(context.Background()); err != nil {
		return nil, 0, err
	}
	cl := newIngestClient(ts.URL)
	defer cl.close()
	for i, b := range bodies {
		code, _, err := cl.post(b)
		if err != nil {
			return nil, 0, err
		}
		if code != http.StatusOK {
			return nil, 0, fmt.Errorf("gate request %d: HTTP %d", i, code)
		}
	}
	st, err := fetchStats(cl.hc, ts.URL)
	if err != nil {
		return nil, 0, err
	}
	if err := shutdown(srv); err != nil {
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// totals are the client-side counts the drain gates check against the
// server's own: one per connection while the loop runs, summed afterwards.
type totals struct {
	requests, non200, saw429    int
	opsAcked, intentsAcked      int
	accepted, deferred, duplics int
	queueDepthMax               int
}

// setupGate times setupCycles set-up cycles over the gate prefix, each on a
// fresh configuration from cfg, and requires every cycle's placement digest
// to equal the single-shard oracle's.
func (r *report) setupGate(gate [][]byte, cfg func() serve.Config) error {
	wantDigest, _, err := oracleReplay(cfg(), gate)
	if err != nil {
		return err
	}
	for i := 0; i < setupCycles; i++ {
		st, d, err := gateCycle(cfg(), gate)
		if err != nil {
			return fmt.Errorf("set-up cycle %d: %w", i, err)
		}
		r.setupSec = append(r.setupSec, d.Seconds())
		if st.PlacementDigest != wantDigest {
			r.fail("set-up cycle %d: placement digest %s != oracle %s", i, st.PlacementDigest, wantDigest)
		}
	}
	return nil
}

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	window        time.Duration // measured window actually covered
	latMS         []float64     // client send -> 200 body read, requests sent inside the window
	opsInWindow   int
	poolExhausted bool
	// The window cut into whole rateBucket and tailBucket slices: ops per
	// second in each, p99 latency in each. The end-to-end throughput and
	// tail are medians over these, so one stall — a neighbour's burst, a
	// slow fsync — moves one slice, not the run's number.
	bucketRates []float64
	bucketP99MS []float64

	totals                               // whole phase: warm-up, window and drain
	outstandingPeak int                  // traced phase only
	final           *serve.StatsResponse // after the drain

	// Traced phase only.
	expo   *flight.Exposition
	events []flight.Event
}

// runLoad drives one server with the pool: conns closed-loop clients for
// warmup+window, then the drain that retires every job still live, then the
// final stats read. traced turns the server's public instrumentation on and
// records one client span per request.
func runLoad(cfg serve.Config, p *pool, warmup, window time.Duration, traced bool, tr *tracer) (*loadResult, error) {
	if traced {
		cfg.Metrics = true
		cfg.FlightEvents = flightRing
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.AwaitReady(context.Background()); err != nil {
		return nil, err
	}

	type sample struct {
		send  time.Time
		latMS float64
	}
	type connResult struct {
		samples   []sample
		sent      int // requests acknowledged 200, a prefix of the connection's pool
		exhausted time.Time
		res       totals
		err       error
	}
	start := time.Now()
	winStart := start.Add(warmup)
	winEnd := winStart.Add(window)
	results := make([]connResult, conns)
	clients := make([]*ingestClient, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		clients[c] = newIngestClient(ts.URL)
		defer clients[c].close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cp, r, cl := &p.conn[c], &results[c], clients[c]
			r.samples = make([]sample, 0, len(cp.bodies))
			for i, body := range cp.bodies {
				send := time.Now()
				if !send.Before(winEnd) {
					return
				}
				code, reply, err := cl.post(body)
				recv := time.Now()
				if err != nil {
					r.err = err
					return
				}
				tr.add("client.request", send, recv, -1, i*conns+c, c)
				r.res.requests++
				if code != http.StatusOK {
					// A lost request breaks the per-job op order of
					// everything behind it; stop this connection and let
					// the gates report the run as failed.
					r.res.non200++
					if code == http.StatusTooManyRequests {
						r.res.saw429++
					}
					return
				}
				r.sent = i + 1
				r.res.countReply(reply, cp.ops[i], cp.intents[i])
				r.samples = append(r.samples, sample{send, float64(recv.Sub(send).Nanoseconds()) / 1e6})
			}
			r.exhausted = time.Now()
		}(c)
	}

	// Traced runs watch the live-booking gauge. The stats endpoint takes the
	// collector lock, so untraced runs leave it alone.
	stopPoll := make(chan struct{})
	peak := make(chan int, 1)
	if traced {
		go pollOutstanding(ts.URL, stopPoll, peak)
	} else {
		peak <- 0
	}
	wg.Wait()
	close(stopPoll)
	out := &loadResult{outstandingPeak: <-peak}

	// The window ends early if a connection ran out of pool before winEnd.
	measuredEnd := winEnd
	for c := range results {
		r := &results[c]
		if r.err != nil {
			return nil, fmt.Errorf("connection %d: %w", c, r.err)
		}
		if !r.exhausted.IsZero() && r.exhausted.Before(measuredEnd) {
			measuredEnd = r.exhausted
			out.poolExhausted = true
		}
	}
	out.window = measuredEnd.Sub(winStart)
	rateOps := make([]int, out.window/rateBucket)
	tailMS := make([][]float64, out.window/tailBucket)
	for c := range results {
		r := &results[c]
		out.add(&r.res)
		for i, s := range r.samples {
			if s.send.Before(winStart) || !s.send.Before(measuredEnd) {
				continue
			}
			out.latMS = append(out.latMS, s.latMS)
			out.opsInWindow += p.conn[c].ops[i]
			at := s.send.Sub(winStart)
			if b := int(at / rateBucket); b < len(rateOps) {
				rateOps[b] += p.conn[c].ops[i]
			}
			if b := int(at / tailBucket); b < len(tailMS) {
				tailMS[b] = append(tailMS[b], s.latMS)
			}
		}
	}
	for _, n := range rateOps {
		out.bucketRates = append(out.bucketRates, float64(n)/rateBucket.Seconds())
	}
	for _, ms := range tailMS {
		out.bucketP99MS = append(out.bucketP99MS, percentile(sortedCopy(ms), 0.99))
	}

	// Drain: retire every job the sent prefix left live, so a correct
	// server ends with zero outstanding bookings.
	for c := range results {
		if results[c].res.non200 > 0 {
			continue
		}
		live := p.liveAfter(c, results[c].sent)
		if len(live) == 0 {
			continue
		}
		body, err := json.Marshal(serve.IngestRequest{DoneJobs: live})
		if err != nil {
			return nil, err
		}
		code, reply, err := clients[c].post(body)
		if err != nil {
			return nil, fmt.Errorf("drain on connection %d: %w", c, err)
		}
		out.requests++
		if code != http.StatusOK {
			out.non200++
			continue
		}
		out.countReply(reply, len(live), 0)
	}

	if out.final, err = fetchStats(clients[0].hc, ts.URL); err != nil {
		return nil, err
	}
	if traced {
		if out.expo, err = fetchExposition(clients[0].hc, ts.URL); err != nil {
			return nil, err
		}
		out.events = srv.FlightEvents()
	}
	if err := shutdown(srv); err != nil {
		return nil, err
	}
	return out, nil
}

// pollOutstanding reads /v1/stats once a second until stop closes, then once
// more, and sends the largest OutstandingBookings it saw.
func pollOutstanding(base string, stop <-chan struct{}, peak chan<- int) {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	max := 0
	for polling := true; polling; {
		select {
		case <-stop:
			polling = false
		case <-tick.C:
		}
		if st, err := fetchStats(hc, base); err == nil && st.OutstandingBookings > max {
			max = st.OutstandingBookings
		}
	}
	peak <- max
}

// countReply folds one 200 reply into the totals.
func (r *totals) countReply(reply []byte, ops, intents int) {
	r.opsAcked += ops
	r.intentsAcked += intents
	r.accepted += replyInt(reply, "accepted")
	r.deferred += replyInt(reply, "deferred")
	r.duplics += replyInt(reply, "duplicates")
	if qd := replyInt(reply, "queue_depth"); qd > r.queueDepthMax {
		r.queueDepthMax = qd
	}
}

func (r *totals) add(o *totals) {
	r.requests += o.requests
	r.non200 += o.non200
	r.saw429 += o.saw429
	r.opsAcked += o.opsAcked
	r.intentsAcked += o.intentsAcked
	r.accepted += o.accepted
	r.deferred += o.deferred
	r.duplics += o.duplics
	if o.queueDepthMax > r.queueDepthMax {
		r.queueDepthMax = o.queueDepthMax
	}
}

// drainGates are the after-drain invariants. Digest equality alone is not
// enough on the k=4 fabric: all 240 host pairs place within the first
// seconds, so the placement digest is the same (72d364cdc24c2424 at seed 1)
// for a 300-, 1000- or 3000-job trace — it cannot see lost or doubled ops
// after that point. The counters below can.
func (r *loadResult) drainGates() []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	st := r.final
	check(r.non200 == 0, "%d non-200 replies", r.non200)
	check(st.IntentsReceived == r.intentsAcked, "IntentsReceived %d != intents acknowledged %d", st.IntentsReceived, r.intentsAcked)
	check(st.DedupHits == 0 && r.duplics == 0, "DedupHits %d, duplicate dispositions %d, want 0", st.DedupHits, r.duplics)
	check(r.accepted+r.deferred == r.opsAcked, "accepted %d + deferred %d != ops acknowledged %d", r.accepted, r.deferred, r.opsAcked)
	check(st.OutstandingBookings == 0, "OutstandingBookings %d after drain, want 0", st.OutstandingBookings)
	check(int(st.RejectedTotal) == r.saw429, "RejectedTotal %d != 429s seen %d", st.RejectedTotal, r.saw429)
	return bad
}

// runServe is a serve_* workload end to end.
func runServe(name string, o options) (*report, error) {
	sp := serveSpecs[name]
	rep := newReport(name, o)
	walRoot := filepath.Join(o.scratch, "wal")
	walN := 0
	freshWAL := func() string {
		walN++
		return filepath.Join(walRoot, strconv.Itoa(walN))
	}
	defer os.RemoveAll(walRoot)

	total := o.warmup + o.window
	wantOps := int(float64(sp.poolOpsPerSec) * total.Seconds())
	p, err := buildPool(o.seed, bench.FatTreeHosts(sp.fatTreeK), sp.chunk, wantOps)
	if err != nil {
		return nil, err
	}

	if err := rep.setupGate(p.interleaved(gateRequests), func() serve.Config { return sp.config(freshWAL()) }); err != nil {
		return nil, err
	}

	if !o.trace {
		rep.canaryBefore = canaryMS()
		res, err := runLoad(sp.config(freshWAL()), p, o.warmup, o.window, false, nil)
		if err != nil {
			return nil, err
		}
		rep.canaryAfter = canaryMS()
		rep.addLoad(res)
		rep.serveEndToEnd(res)
		return rep, nil
	}

	// Traced: half the window on a bare server (the reference for the
	// tracing overhead), half on an instrumented one, same inputs.
	half := o.window / 2
	rep.canaryBefore = canaryMS()
	bare, err := runLoad(sp.config(freshWAL()), p, o.warmup, half, false, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res, err := runLoad(sp.config(freshWAL()), p, o.warmup, half, true, tr)
	if err != nil {
		return nil, err
	}
	rep.canaryAfter = canaryMS()
	rep.addLoad(bare)
	rep.addLoad(res)
	rep.serveLayers(res, float64(bare.opsInWindow)/bare.window.Seconds())
	if err := runProbes(rep, tr, sp.config(""), p.interleaved(o.probeOps/sp.chunk), sp.journal, freshWAL()); err != nil {
		return nil, err
	}
	rep.spans = tr.spans
	return rep, nil
}
