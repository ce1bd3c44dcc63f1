package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pythia/internal/core"
	"pythia/internal/flight"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
	"pythia/internal/wal"
)

// Config tunes the serving surface and the collector behind it.
type Config struct {
	// Shards is the collector shard count (core.Config.Shards); Workers
	// bounds ApplyBatch's concurrent shard phase.
	Shards  int
	Workers int

	// QueueCap bounds the ingest queue in requests. A full queue is the
	// backpressure signal: new requests are rejected with 429 and a
	// Retry-After header instead of queueing unboundedly.
	QueueCap int
	// BatchMax caps the operations folded into one collector batch (one
	// placement pass); the batch loop drains at most this many ops from
	// queued requests before committing.
	BatchMax int
	// MaxOpsPerRequest rejects oversized ingest requests up front.
	MaxOpsPerRequest int

	// ClockHz, when positive, drives the collector on a logical clock:
	// each ingested operation advances virtual time by 1/ClockHz seconds,
	// so TTL sweeps fire at operation-count-determined instants and a
	// request sequence has one deterministic outcome regardless of wall
	// speed (the oracle mode). Zero uses the wall clock since Start.
	ClockHz float64
	// BookingTTLSec garbage-collects bookings whose flows never settle
	// (in serving mode nothing drains bookings except done_jobs and this
	// sweep). Zero disables.
	BookingTTLSec float64

	// K is Pythia's candidate count per pair (the first K equal-cost
	// paths; the fabric's table miss hashes over all). FatTreeK/HostsPerEdge
	// size the fat-tree fabric standing in for the datacenter network.
	K            int
	FatTreeK     int
	HostsPerEdge int

	// WALDir, when set, enables the write-ahead journal: every batch is
	// appended (and synced per FsyncEvery) before it commits, and commits
	// before clients are answered, so an acked operation survives a crash.
	WALDir string
	// Recover replays WALDir's snapshot + journal tail through the normal
	// ApplyBatch path during New. Without it, a non-empty journal is an
	// error — silently ignoring history would leak every booking it holds.
	Recover bool
	// FsyncEvery is the journal sync cadence: 0 syncs every append (the
	// durable default), N > 1 every Nth, negative never (page-cache-only
	// durability — survives process kills, not power loss).
	FsyncEvery int
	// SnapshotEvery cuts a snapshot every this many committed batches and
	// compacts the journal once it is durable, bounding restart cost; the
	// batch loop stops only to encode it, the file is written off the loop.
	// 0 defaults to 1024; negative disables periodic snapshots (graceful
	// shutdown still cuts a final one).
	SnapshotEvery int
	// SegmentBytes caps journal segment size (0 defaults to 8 MiB).
	SegmentBytes int64

	// CrashHook, when non-nil, is consulted at each CrashPoint in the
	// batch loop; returning true simulates a process kill there (chaos
	// tests). Production servers leave it nil.
	CrashHook func(CrashPoint) bool

	// Metrics mounts the GET /metrics Prometheus exposition endpoint. The
	// registry behind it is always kept (it is also what /v1/stats reads);
	// this only decides whether it is served.
	Metrics bool
	// Pprof mounts net/http/pprof under /debug/pprof/ (opt-in: profiling
	// endpoints leak internals and should not face untrusted clients).
	Pprof bool
	// Logger, when non-nil, receives structured request and batch log lines.
	// Level filtering is the logger's: request logs emit at Info, per-batch
	// logs at Debug, failed snapshots at Warn, a failed journal at Error.
	Logger *slog.Logger
	// FlightEvents, when positive, enables a bounded in-memory flight
	// recorder holding the newest FlightEvents events — the serve plane's
	// batch lifecycle (ingest → journal → commit) and, inside each batch,
	// the collector's events at the batch's virtual time — exported via
	// Server.FlightEvents / Server.ChromeTrace.
	FlightEvents int
}

// Defaults fills unset fields: 4 shards, 4 workers, 256-request queue,
// 512-op batches, 4096-op requests, 30 s booking TTL, and a k=4 fat-tree
// (16 hosts).
func (c Config) Defaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Workers <= 0 {
		c.Workers = c.Shards
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 512
	}
	if c.MaxOpsPerRequest <= 0 {
		c.MaxOpsPerRequest = 4096
	}
	if c.BookingTTLSec == 0 {
		c.BookingTTLSec = 30
	}
	if c.K <= 0 {
		c.K = 4
	}
	if c.FatTreeK <= 0 {
		c.FatTreeK = 4
	}
	if c.HostsPerEdge <= 0 {
		c.HostsPerEdge = c.FatTreeK / 2
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1024
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 8 << 20
	}
	return c
}

// ingestJob is one queued request: its lowered operations, its body as
// validated (kept only when journaling: the journal appends it verbatim),
// and the slot the batch loop fills before signaling done.
type ingestJob struct {
	ops     []core.Op
	body    []byte
	results []core.OpResult
	enq     time.Time
	done    chan struct{}
}

// Server is the Pythia serving process: an HTTP front end, a bounded ingest
// queue, and a single batch loop that owns the collector and its simulated
// SDN substrate.
type Server struct {
	cfg   Config
	hosts []topology.NodeID

	// colMu serializes collector + engine access between the batch loop
	// and the stats handler.
	colMu sync.Mutex
	eng   *sim.Engine
	col   *core.Pythia

	digest     uint64 // FNV-1a over the placement stream (under colMu)
	placements int
	virtual    float64 // logical clock (ClockHz mode, under colMu)

	// Durability state (under colMu; the batch loop is the only appender).
	wal        *wal.Log
	appliedSeq uint64 // last journal seq committed into the collector
	snapSeq    uint64 // journal seq the latest adopted (durable) snapshot covers through
	snapshots  int
	recBuf     []byte // the journal record under construction, reused

	// Snapshot hand-off (durable.go). snapInFlight and snapBuf are under
	// colMu; snapDone carries the one in-flight snapshot's result from its
	// writer goroutine back to the batch loop; snapWriters lets the loop's
	// exit wait that goroutine out. snapGate, when non-nil, holds each write
	// until it closes or the server crashes (tests stage crashes with it).
	// sealJournal is seal behind a sync.OnceValue: racing Shutdowns seal once.
	snapInFlight bool
	snapBuf      []byte
	snapDone     chan snapResult
	snapWriters  sync.WaitGroup
	snapGate     chan struct{}
	sealJournal  func() error

	// Recovery report (written by the recovery goroutine under colMu
	// before readyC closes; read under colMu).
	recovered        bool
	recoveredRecords int
	recoverySec      float64

	// Readiness gate. readyC closes once the server can ingest (for a
	// Recover server, after replay completes inside Start's goroutine;
	// otherwise in New). failedC closes instead when recovery fails;
	// recoverErr is written before failedC closes and read-only after.
	// recoverGate, when non-nil, holds recovery until it closes (tests
	// observe the "recovering" readiness state through it).
	needsRecover bool
	readyC       chan struct{}
	failedC      chan struct{}
	recoverErr   error
	recoverGate  chan struct{}

	queue    chan *ingestJob
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	draining atomic.Bool
	started  atomic.Bool
	startAt  time.Time

	// crashedC closes when the batch loop dies — an injected crash point, or
	// a journal append that failed (journalErr, written before the close and
	// read-only after). Every waiting handler wakes and answers 503 so
	// clients retry against the restarted process.
	crashedC   chan struct{}
	crashOnce  sync.Once
	journalErr error

	lastCommit time.Time // last batch commit (batch loop only)

	// Observability plane: met is always kept; fr and log are nil unless
	// configured (both are nil-safe or nil-checked at every use).
	met    *serveMetrics
	fr     *flight.LiveRecorder
	log    *slog.Logger
	reqSeq atomic.Uint64 // request-ID sequence for the middleware

	mux     *http.ServeMux
	handler http.Handler // mux behind the observability middleware
	httpMu  sync.Mutex
	// httpSrv is set by ListenAndServe and read by Shutdown (under httpMu
	// — the two race otherwise).
	httpSrv *http.Server
}

// New builds a serving stack: fat-tree fabric, network simulator, OpenFlow
// controller, and a sharded collector, all owned by the server's batch
// loop. Call Start before serving requests.
func New(cfg Config) (*Server, error) {
	cfg = cfg.Defaults()
	if cfg.FatTreeK%2 != 0 {
		return nil, fmt.Errorf("serve: fat-tree k must be even, got %d", cfg.FatTreeK)
	}
	eng := sim.NewEngine()
	g, hosts := topology.FatTree(cfg.FatTreeK, cfg.HostsPerEdge, topology.Gbps)
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	py := core.New(eng, net, ofc, core.Config{
		K:              cfg.K,
		Aggregate:      true,
		UseCriticality: true,
		BookingTTL:     sim.Duration(cfg.BookingTTLSec),
		Shards:         cfg.Shards,
	})
	s := &Server{
		cfg:      cfg,
		hosts:    hosts,
		eng:      eng,
		col:      py,
		queue:    make(chan *ingestJob, cfg.QueueCap),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		crashedC: make(chan struct{}),
		readyC:   make(chan struct{}),
		failedC:  make(chan struct{}),
		log:      cfg.Logger,
		met:      newServeMetrics(),
	}
	s.digest = 14695981039346656037 // FNV-1a offset basis
	py.SetPlacementHook(s.observePlacement)
	if cfg.FlightEvents > 0 {
		s.fr = flight.NewLiveRecorder(cfg.FlightEvents, nil)
		py.SetFlightRecorder(s.fr)
	}

	if cfg.WALDir != "" {
		l, err := wal.Open(cfg.WALDir, wal.Options{
			SegmentBytes: cfg.SegmentBytes,
			SyncEvery:    cfg.FsyncEvery,
			Observer:     s.met.walObserver(),
		})
		if err != nil {
			return nil, fmt.Errorf("serve: opening journal: %w", err)
		}
		s.wal = l
		s.snapDone = make(chan snapResult, 1)
		s.sealJournal = sync.OnceValue(s.seal)
		_, _, hasSnap, snapErr := l.LatestSnapshot()
		switch {
		case cfg.Recover:
			// Replay runs asynchronously in Start, behind the readiness
			// gate, so liveness probes and scrapes answer during a long
			// recovery. The history check below stays synchronous: an
			// un-replayable journal must fail construction loudly.
			s.needsRecover = true
		case l.Records() > 0 || (snapErr == nil && hasSnap):
			l.Abort()
			return nil, fmt.Errorf("serve: journal %s holds history; set Recover to replay it or point WALDir at a fresh directory", cfg.WALDir)
		}
	}
	if !s.needsRecover {
		close(s.readyC) // nothing to replay: ready from construction
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	if cfg.Metrics {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.instrument(s.mux)
	return s, nil
}

// observePlacement folds one placement decision into the running digest
// (called by the collector during ApplyBatch, i.e. under colMu).
func (s *Server) observePlacement(src, dst topology.NodeID, path topology.Path) {
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			s.digest ^= (v >> (8 * i)) & 0xff
			s.digest *= 1099511628211
		}
	}
	mix(uint64(src))
	mix(uint64(dst))
	for _, l := range path.Links {
		mix(uint64(l))
	}
	mix(^uint64(0)) // record separator
	s.placements++
}

// Start launches the batch loop and anchors the wall clock. It must be
// called exactly once, before the first request. For a Recover server,
// journal replay runs first, asynchronously, behind the readiness gate:
// ingest answers 503 "recovering" (retryable) and /v1/readyz reports the
// state until replay completes — use AwaitReady to block on it.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		panic("serve: Start called twice")
	}
	go func() {
		if s.needsRecover {
			if s.recoverGate != nil {
				<-s.recoverGate // test hook: hold the server in "recovering"
			}
			if err := s.recover(); err != nil {
				s.recoverErr = err
				s.wal.Abort()
				if s.log != nil {
					s.log.Error("recovery failed", "error", err)
				}
				close(s.failedC)
				close(s.loopDone) // Shutdown must not wait on a loop that never ran
				return
			}
			close(s.readyC)
		}
		// In wall-clock mode a recovered process re-anchors so elapsed
		// time continues from the recovered virtual instant instead of
		// rewinding.
		s.colMu.Lock()
		v := s.virtual
		s.colMu.Unlock()
		s.startAt = time.Now().Add(-time.Duration(v * float64(time.Second)))
		s.loop()
	}()
}

// AwaitReady blocks until the server can ingest: immediately for a fresh
// server, after journal replay for a Recover server. It returns the
// recovery error if replay failed, or ctx's error if it expires first.
func (s *Server) AwaitReady(ctx context.Context) error {
	select {
	case <-s.readyC:
		return nil
	case <-s.failedC:
		return s.recoverErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ready reports whether the server is past its readiness gate.
func (s *Server) ready() bool {
	select {
	case <-s.readyC:
		return true
	default:
		return false
	}
}

// recoveryFailed reports whether asynchronous journal replay failed.
func (s *Server) recoveryFailed() bool {
	select {
	case <-s.failedC:
		return true
	default:
		return false
	}
}

// Handler returns the server's HTTP handler (for tests and embedding): the
// mux behind the observability middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// NumHosts reports the fabric's host count — the exclusive upper bound for
// wire host indexes.
func (s *Server) NumHosts() int { return len(s.hosts) }

// httpServer builds the hardened HTTP front end: header-read and idle
// timeouts bound slowloris-style connection hoarding. (Whole-request
// timeouts stay unset — ingest handlers legitimately block on the batch
// loop under load.)
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// ListenAndServe starts the batch loop (if not already started) and serves
// HTTP on addr until Shutdown. It returns http.ErrServerClosed after a
// clean shutdown, like net/http.
func (s *Server) ListenAndServe(addr string) error {
	if !s.started.Load() {
		s.Start()
	}
	srv := s.httpServer(addr)
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.ListenAndServe()
}

// Shutdown drains gracefully: new requests are refused with 503, in-flight
// handlers finish (the batch loop keeps committing until they do), then the
// loop drains the residual queue and exits, waiting out a snapshot write in
// flight; with a journal enabled, a final snapshot is then cut so the next
// start restores instead of replaying. Safe to call more than once, and
// concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started.Load() {
		select {
		case <-s.loopDone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// After a crash or a failed recovery the journal handle is already
	// abandoned; a clean drain seals it with a final snapshot — once, however
	// many Shutdowns race.
	if s.wal != nil && !s.crashed() && !s.recoveryFailed() {
		if serr := s.sealJournal(); err == nil {
			err = serr
		}
	}
	return err
}

// loop is the batch executor: it coalesces queued requests up to BatchMax
// operations, advances the collector clock, and applies one collector batch
// (one placement pass) per iteration.
func (s *Server) loop() {
	// The loop's exit stands for the process's: a snapshot writer it started
	// has finished by the time loopDone closes, so nothing touches the
	// journal directory behind a successor's (or Shutdown's) back.
	defer close(s.loopDone)
	defer s.snapWriters.Wait()
	for {
		select {
		case j := <-s.queue:
			if !s.runBatch(s.coalesce(j)) {
				return // injected crash: die without draining or answering
			}
		case r := <-s.snapDone:
			// An idle loop adopts too, so a quiet server's journal is
			// compacted without waiting for the next batch.
			s.colMu.Lock()
			s.adoptSnapshot(r)
			s.colMu.Unlock()
		case <-s.stop:
			// Residual drain: requests enqueued before shutdown finished
			// still get committed and answered.
			for {
				select {
				case j := <-s.queue:
					if !s.runBatch(s.coalesce(j)) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// maxBatchBodyBytes bounds the request bytes one journaled batch folds in:
// coalescing stops once a batch holds this many, so a record — these bytes,
// one more request of at most maxBodyBytes and a byte of framing per
// request — always fits in the journal's record cap.
const maxBatchBodyBytes = wal.MaxRecordBytes / 2

// coalesce greedily folds already-queued requests after j into one batch,
// up to BatchMax operations and maxBatchBodyBytes of kept request bodies
// (without a journal no body is kept and only BatchMax binds).
func (s *Server) coalesce(j *ingestJob) []*ingestJob {
	batch := []*ingestJob{j}
	n, size := len(j.ops), len(j.body)
	for n < s.cfg.BatchMax && size < maxBatchBodyBytes {
		select {
		case j2 := <-s.queue:
			batch = append(batch, j2)
			n += len(j2.ops)
			size += len(j2.body)
		default:
			return batch
		}
	}
	return batch
}

// runBatch concatenates the batch's operations, advances the collector
// clock (firing any due TTL sweeps), journals the batch, applies it, and
// distributes results and latency samples back to the waiting requests —
// strictly in that order, so nothing is acked that a restart cannot
// reconstruct. Returns false when the loop must die without answering: an
// injected crash point fired, or the journal append failed.
func (s *Server) runBatch(batch []*ingestJob) bool {
	nops := 0
	for _, j := range batch {
		nops += len(j.ops)
	}
	ops := make([]core.Op, 0, nops)
	for _, j := range batch {
		ops = append(ops, j.ops...)
	}

	s.colMu.Lock()
	var target float64
	if s.cfg.ClockHz > 0 {
		// Meter only novel work: an already-applied redelivery (a client
		// retry across a crash) advances virtual time by zero, keeping TTL
		// sweep instants identical to an uninterrupted run's.
		s.virtual += float64(s.col.NovelOps(ops)) / s.cfg.ClockHz
		target = s.virtual
	} else {
		target = time.Since(s.startAt).Seconds()
		if target < s.virtual {
			target = s.virtual
		}
		s.virtual = target
	}
	if s.crashAt(CrashBeforeAppend) {
		s.colMu.Unlock()
		return false
	}
	if s.fr != nil {
		ev := flight.Ev(flight.BatchIngested, flight.PlaneServe)
		ev.T = sim.Time(target)
		ev.Count = nops
		s.fr.Record(ev)
	}
	commitT0 := time.Now()
	if s.wal != nil {
		payload, err := s.journalRecord(target, batch)
		if err == nil {
			_, err = s.wal.Append(payload)
		}
		if err != nil {
			// Fail-stop: a durable server that cannot journal must not ack.
			s.die(err)
			s.colMu.Unlock()
			return false
		}
		if s.fr != nil {
			ev := flight.Ev(flight.BatchJournaled, flight.PlaneServe)
			ev.T = sim.Time(target)
			ev.Bytes = float64(len(payload))
			ev.DelaySec = time.Since(commitT0).Seconds()
			s.fr.Record(ev)
		}
	}
	if s.crashAt(CrashAfterAppend) {
		s.colMu.Unlock()
		return false
	}
	if deadline := sim.Time(target); deadline > s.eng.Now() {
		s.eng.RunUntil(deadline)
	}
	results := s.col.ApplyBatch(ops, s.cfg.Workers)
	commitSec := time.Since(commitT0).Seconds()
	s.met.batch(nops, commitSec, s.col.LastCommit())
	if s.fr != nil {
		ev := flight.Ev(flight.BatchCommitted, flight.PlaneServe)
		ev.T = sim.Time(target)
		ev.Count = nops
		ev.DelaySec = commitSec
		s.fr.Record(ev)
	}
	if s.wal != nil {
		s.appliedSeq = s.wal.NextSeq() - 1
		s.adoptFinishedSnapshot()
		if s.cfg.SnapshotEvery > 0 && !s.snapInFlight && s.appliedSeq-s.snapSeq >= uint64(s.cfg.SnapshotEvery) {
			s.captureSnapshot()
		}
	}
	s.colMu.Unlock()
	if s.log != nil {
		s.log.Debug("batch committed",
			"ops", nops, "requests", len(batch), "virtual_sec", target)
	}
	if s.crashAt(CrashAfterCommit) {
		return false
	}

	now := time.Now()
	at := 0
	for _, j := range batch {
		j.results = results[at : at+len(j.ops)]
		at += len(j.ops)
		s.met.enqueueCommit.Observe(now.Sub(j.enq).Seconds())
	}
	// Feed the Retry-After estimate: EWMA of committed requests per second.
	if !s.lastCommit.IsZero() {
		if dt := now.Sub(s.lastCommit).Seconds(); dt > 0 {
			inst := float64(len(batch)) / dt
			if rate := s.met.commitRate.Value(); rate != 0 {
				inst = 0.8*rate + 0.2*inst
			}
			s.met.commitRate.Set(inst)
		}
	}
	s.lastCommit = now
	for _, j := range batch {
		close(j.done)
	}
	return true
}

// retryAfterSecs derives the 429 Retry-After hint from the current queue
// depth and the recent commit rate: roughly how long until the backlog
// drains, clamped to [1, 30] seconds. With no rate estimate yet (cold
// server) it stays at the floor.
func retryAfterSecs(depth int, ratePerSec float64) int {
	if ratePerSec <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(depth) / ratePerSec))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.met.reject(rejectDraining).Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.crashed() {
		s.met.reject(rejectCrashed).Inc()
		writeError(w, http.StatusServiceUnavailable, "%s; retry against the restarted process", s.crashReason())
		return
	}
	if !s.ready() {
		if s.recoveryFailed() {
			s.met.reject(rejectCrashed).Inc()
			writeError(w, http.StatusServiceUnavailable, "recovery failed: %v", s.recoverErr)
			return
		}
		// Replaying the journal: retryable, like any transient outage.
		s.met.reject(rejectRecovering).Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server is recovering; retry")
		return
	}
	s.met.ingestRequests.Inc()
	if cl := r.ContentLength; cl >= 0 {
		s.met.bodyBytes.Observe(float64(cl))
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	req, body, err := decodeIngest(r.Body, len(s.hosts), s.cfg.MaxOpsPerRequest, s.wal != nil)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.met.reject(rejectTooLarge).Inc()
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.met.reject(rejectBadRequest).Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := &ingestJob{ops: req.ToOps(s.hosts), body: body, enq: time.Now(), done: make(chan struct{})}
	select {
	case s.queue <- j:
	default:
		// Bounded-queue backpressure: reject rather than buffer without
		// limit, and tell the client when the backlog should have drained.
		s.met.queueFull.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(len(s.queue), s.met.commitRate.Value())))
		writeError(w, http.StatusTooManyRequests, "ingest queue full (%d requests)", s.cfg.QueueCap)
		return
	}
	select {
	case <-j.done:
	case <-s.crashedC:
		// The batch loop died mid-flight; this request may or may not have
		// committed. 503 sends the client back to retry against the
		// restarted process, where dedup makes the resubmission safe.
		writeError(w, http.StatusServiceUnavailable, "server crashed mid-batch; retry")
		return
	case <-r.Context().Done():
		// Client gone; the batch loop will still commit the ops (they are
		// in the queue), there is just nobody to answer.
		return
	}
	resp := IngestResponse{Results: make([]string, len(j.results)), QueueDepth: len(s.queue)}
	for i, res := range j.results {
		resp.Results[i] = res.String()
		switch res {
		case core.OpDuplicate:
			resp.Duplicates++
		case core.OpDeferred:
			resp.Deferred++
		default:
			resp.Accepted++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStats is the JSON view of the book: the polled view plus the
// registry's own totals and latency quantiles.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	v := s.view()
	writeJSON(w, http.StatusOK, StatsResponse{
		CollectorStats:   v.st,
		PlacementDigest:  fmt.Sprintf("%016x", v.digest),
		Placements:       v.placements,
		QueueDepth:       len(s.queue),
		NumHosts:         len(s.hosts),
		VirtualSec:       v.virtual,
		RequestsTotal:    int64(s.met.ingestRequests.Value()),
		RejectedTotal:    int64(s.met.queueFull.Value()),
		LatencyP50Micros: s.met.enqueueCommit.Quantile(0.50) * 1e6,
		LatencyP99Micros: s.met.enqueueCommit.Quantile(0.99) * 1e6,

		CommitShardSec:     s.met.phaseShard.Sum(),
		CommitMergeSec:     s.met.phaseMerge.Sum(),
		CommitPlaceSec:     s.met.phasePlace.Sum(),
		UnplacedAggregates: int(s.met.unplaced.Value()),

		WALRecords:       v.walRecords,
		WALSegments:      v.walSegments,
		WALBytes:         v.walBytes,
		Snapshots:        v.snapshots,
		SnapshotSeq:      v.snapSeq,
		SnapshotPauseSec: s.met.walSnapPause.Sum(),
		SnapshotWriteSec: s.met.walSnapWrite.Sum(),
		Recovered:        v.recovered,
		RecoveredRecords: v.recoveredRecords,
		RecoverySec:      v.recoverySec,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.crashed() {
		writeError(w, http.StatusServiceUnavailable, "%s", s.crashReason())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: unlike /v1/healthz (liveness — is the
// process up and not wedged), it answers 503 whenever the server should not
// receive traffic, with the reason as the plain-text body: "recovering"
// during journal replay, "draining" during shutdown, "crashed" after an
// injected crash, "journal failed: <err>" after a failed journal append, and
// the recovery error if replay failed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.crashed():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, s.crashReason())
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case s.recoveryFailed():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "recovery failed: %v\n", s.recoverErr)
	case !s.ready():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
	default:
		fmt.Fprintln(w, "ready")
	}
}
