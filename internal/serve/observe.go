package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pythia/internal/core"
	"pythia/internal/flight"
	"pythia/internal/trace"
)

// This file is the serving plane's read side of the operations plane: the
// observability middleware (request metrics, request-ID stamping, structured
// request logs), the GET /metrics Prometheus exposition handler, and the
// live flight-recorder accessors.

// statusWriter captures the status code the handler wrote, for the request
// metrics and logs. WriteHeader-less handlers count as 200, like net/http.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

// Unwrap lets http.ResponseController reach the wrapped writer (flush,
// deadlines): every response goes through a statusWriter.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps the mux with the observability middleware, on every
// server: each request gets an X-Request-ID, a per-route/per-code counter and
// latency observation, and — when Config.Logger is set — a structured log
// line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqSeq.Add(1)
		w.Header().Set("X-Request-ID", strconv.FormatUint(id, 10))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(t0)
		route := normalizeRoute(r.URL.Path)
		s.met.request(route, sw.code, dur.Seconds())
		if s.log != nil {
			s.log.Info("request",
				"request_id", id,
				"method", r.Method,
				"route", route,
				"path", r.URL.Path,
				"status", sw.code,
				"duration_ms", float64(dur.Microseconds())/1000,
				"bytes", sw.bytes)
		}
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// view is the polled half of the book: everything /v1/stats and /metrics
// report that lives under colMu — collector totals, placement digest, virtual
// clock, journal sizes, snapshot progress, recovery report — captured in one
// hold so both endpoints describe the same instant the same way.
type view struct {
	st         core.CollectorStats
	shards     []core.ShardStat
	digest     uint64
	placements int
	virtual    float64

	walRecords, walSegments int
	walBytes                int64
	snapshots               int
	snapSeq, appliedSeq     uint64

	recovered        bool
	recoveredRecords int
	recoverySec      float64
}

func (s *Server) view() view {
	s.colMu.Lock()
	defer s.colMu.Unlock()
	v := view{
		st:         s.col.Stats(),
		shards:     s.col.ShardStats(),
		digest:     s.digest,
		placements: s.placements,
		virtual:    float64(s.eng.Now()),
		snapshots:  s.snapshots,
		snapSeq:    s.snapSeq,
		appliedSeq: s.appliedSeq,

		recovered:        s.recovered,
		recoveredRecords: s.recoveredRecords,
		recoverySec:      s.recoverySec,
	}
	if s.wal != nil {
		v.walRecords = s.wal.Records()
		v.walSegments = s.wal.Segments()
		v.walBytes = s.wal.Size()
	}
	return v
}

// handleMetrics renders the Prometheus exposition: it stores one view, the
// queue depth and the readiness flags into the registry the request path and
// batch loop already write, then renders that registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.scrapeMu.Lock()
	s.storeView(s.view())
	text := s.met.reg.PrometheusText()
	s.met.scrapeMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, text)
}

// storeView writes the polled values into the registry. Counters mirrored
// from the collector are advanced by the difference to their last stored
// value (exact: they are integers). Caller holds scrapeMu.
func (s *Server) storeView(v view) {
	reg := s.met.reg
	gauge := func(name, help string, val float64) { reg.Gauge(name, help).Set(val) }
	counter := func(name, help string, val int) {
		c := reg.Counter(name, help)
		c.Add(float64(val) - c.Value())
	}
	gauge("pythia_serve_queue_depth", "Requests waiting in the ingest queue.", float64(len(s.queue)))
	gauge("pythia_serve_draining", "1 while the server refuses new work for shutdown.", b2f(s.draining.Load()))
	gauge("pythia_serve_ready", "1 once the readiness gate is open (recovery complete).", b2f(s.ready()))
	gauge("pythia_serve_virtual_seconds", "The collector's virtual clock.", v.virtual)
	counter("pythia_serve_placements_total", "Placement decisions folded into the digest.", v.placements)

	st := v.st
	counter("pythia_collector_intents_received_total", "Unique intents ingested.", st.IntentsReceived)
	counter("pythia_collector_intents_deferred_total", "Intents parked awaiting reducer placement.", st.IntentsDeferred)
	counter("pythia_collector_dedup_hits_total", "Exact duplicate intents dropped by the idempotence set.", st.DedupHits)
	counter("pythia_collector_duplicate_intents_total", "Re-predictions for an already-booked flow.", st.DuplicateIntents)
	counter("pythia_collector_expired_bookings_total", "Reservations reclaimed by the booking-TTL sweep.", st.ExpiredBookings)
	counter("pythia_collector_expired_intents_total", "Deferred intents reclaimed by the booking-TTL sweep.", st.ExpiredIntents)
	counter("pythia_collector_aggregates_placed_total", "Aggregated flow groups placed.", st.AggregatesPlaced)
	counter("pythia_collector_reaffirmations_total", "Placements re-affirmed on re-prediction.", st.Reaffirmations)
	counter("pythia_collector_reallocations_total", "Placements moved on re-prediction.", st.Reallocations)
	counter("pythia_collector_rule_install_errors_total", "Rule installs rejected by the controller.", st.RuleInstallErrors)
	counter("pythia_collector_flows_rescued_total", "Flows rescued from failed links.", st.FlowsRescued)
	counter("pythia_collector_aggregates_degraded_total", "Aggregates degraded to shortest path.", st.AggregatesDegraded)
	counter("pythia_collector_reconciliations_total", "Reconciliation passes run.", st.Reconciliations)
	gauge("pythia_collector_pending_intents", "Intents awaiting reducer placement.", float64(st.PendingIntents))
	gauge("pythia_collector_outstanding_bookings", "Live reservations plus deferred intents, all jobs.", float64(st.OutstandingBookings))
	gauge("pythia_collector_outstanding_demand_bits", "Booked-but-undelivered predicted demand.", st.OutstandingDemandBits)
	for i, sh := range v.shards {
		l := strconv.Itoa(i)
		gauge(flight.SeriesName("pythia_collector_shard_pending_intents", "shard", l),
			"Pending intents, by shard.", float64(sh.PendingIntents))
		gauge(flight.SeriesName("pythia_collector_shard_booked_flows", "shard", l),
			"Booked flows, by shard.", float64(sh.BookedFlows))
		counter(flight.SeriesName("pythia_collector_shard_dedup_hits_total", "shard", l),
			"Duplicate intents dropped, by shard.", sh.DedupHits)
		counter(flight.SeriesName("pythia_collector_shard_expired_bookings_total", "shard", l),
			"TTL-reclaimed reservations, by shard.", sh.ExpiredBookings)
		counter(flight.SeriesName("pythia_collector_shard_expired_intents_total", "shard", l),
			"TTL-reclaimed deferred intents, by shard.", sh.ExpiredIntents)
	}

	if s.wal != nil {
		gauge("pythia_wal_records", "Records in the live journal.", float64(v.walRecords))
		gauge("pythia_wal_segments", "Segments in the live journal.", float64(v.walSegments))
		gauge("pythia_wal_size_bytes", "On-disk journal size.", float64(v.walBytes))
		gauge("pythia_wal_records_since_snapshot",
			"Committed journal records the latest snapshot does not cover (restart replays these).",
			float64(v.appliedSeq-v.snapSeq))
	}
	gauge("pythia_recovery_recovered", "1 if this process restored state from a journal at startup.", b2f(v.recovered))
	gauge("pythia_recovery_replayed_records", "Journal records replayed during startup recovery.", float64(v.recoveredRecords))
	gauge("pythia_recovery_seconds", "Wall time startup recovery took.", v.recoverySec)
}

// FlightEvents returns a copy of the live flight-recorder ring, oldest
// first (nil when Config.FlightEvents is 0).
func (s *Server) FlightEvents() []flight.Event { return s.fr.Events() }

// FlightJSONL renders the live flight-recorder ring as JSON Lines.
func (s *Server) FlightJSONL() []byte { return s.fr.JSONL() }

// ChromeTrace renders the live flight-recorder ring as a Chrome
// chrome://tracing JSON document: serve-plane batch spans next to the
// collector's control-plane lanes, on the virtual-time axis.
func (s *Server) ChromeTrace() ([]byte, error) {
	if s.fr == nil {
		return nil, fmt.Errorf("serve: flight recorder disabled (Config.FlightEvents is 0)")
	}
	return trace.MergedChrome(nil, s.fr.Events())
}
