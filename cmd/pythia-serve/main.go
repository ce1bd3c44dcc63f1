// Command pythia-serve runs the Pythia collector as an online
// HTTP/JSON service. (Its throughput and crash-recovery benchmarks are the
// serve_* and recover_tail workloads of benchmark/; see benchmark/README.md.)
//
// Usage:
//
//	pythia-serve [-addr :8080] [-shards N]   # serve until SIGINT
//	             [-queue N] [-batch N] [-maxops N]
//	             [-ttl SEC] [-k N] [-fattree-k N] [-clockhz HZ]
//	             [-wal-dir DIR] [-recover] [-fsync-every N]
//	             [-snapshot-every N] [-segment-bytes N]
//	             [-metrics] [-pprof] [-log-level LEVEL] [-flight-events N]
//
// The process answers POST /v1/ingest, GET /v1/stats,
// GET /v1/healthz (liveness), and GET /v1/readyz (readiness — 503 with the
// reason while recovering or draining), and drains gracefully on
// SIGINT/SIGTERM. -metrics (default on) serves the Prometheus exposition at
// GET /metrics; -pprof mounts /debug/pprof; -log-level enables structured
// JSON request logs on stderr; -flight-events keeps a bounded in-memory
// flight recorder of the batch lifecycle and the collector's events in each
// batch. With -wal-dir every batch is
// journaled before it is acknowledged and -recover restarts from the
// journal (last snapshot plus tail replay). The collector applies each batch
// serially; -shards only partitions its job state, changes no result, and
// may differ across a restart.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pythia/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 4, "collector job-state shard count (changes no result)")
	queue := flag.Int("queue", 256, "bounded ingest queue capacity (requests)")
	batch := flag.Int("batch", 512, "max operations coalesced per collector batch")
	maxOps := flag.Int("maxops", 4096, "max operations per ingest request")
	ttl := flag.Float64("ttl", 30, "booking TTL in seconds (0 = default 30 s, negative = off)")
	k := flag.Int("k", 4, "flow-placement path candidates (paper's K)")
	fatTreeK := flag.Int("fattree-k", 4, "fat-tree arity of the simulated fabric")
	clockHz := flag.Float64("clockhz", 0, "logical clock rate in ops/sec (0 = wall clock)")
	walDir := flag.String("wal-dir", "", "write-ahead journal directory (empty = no journal)")
	doRecover := flag.Bool("recover", false, "recover collector state from the journal on startup")
	fsyncEvery := flag.Int("fsync-every", 0, "fsync the journal every N appends (0 = every append, <0 = never)")
	snapEvery := flag.Int("snapshot-every", 0, "snapshot every N journaled batches (0 = default 1024, <0 = never)")
	segBytes := flag.Int64("segment-bytes", 0, "journal segment rotation size (0 = default 8 MiB)")
	metrics := flag.Bool("metrics", true, "serve the Prometheus exposition at GET /metrics")
	doPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "", "structured JSON request logs on stderr at this level (debug|info|warn|error; empty = off)")
	flightEvents := flag.Int("flight-events", 0, "keep the newest N serve- and collector-plane flight events in memory (0 = off)")
	flag.Parse()

	runServe(serve.Config{
		Shards:           *shards,
		QueueCap:         *queue,
		BatchMax:         *batch,
		MaxOpsPerRequest: *maxOps,
		ClockHz:          *clockHz,
		BookingTTLSec:    *ttl,
		K:                *k,
		FatTreeK:         *fatTreeK,
		WALDir:           *walDir,
		Recover:          *doRecover,
		FsyncEvery:       *fsyncEvery,
		SnapshotEvery:    *snapEvery,
		SegmentBytes:     *segBytes,
		Metrics:          *metrics,
		Pprof:            *doPprof,
		Logger:           buildLogger(*logLevel),
		FlightEvents:     *flightEvents,
	}, *addr)
}

// buildLogger maps -log-level onto a JSON slog logger on stderr; empty
// disables logging entirely (nil logger = zero-cost request path).
func buildLogger(level string) *slog.Logger {
	if level == "" {
		return nil
	}
	var l slog.Level
	switch strings.ToLower(level) {
	case "debug":
		l = slog.LevelDebug
	case "info":
		l = slog.LevelInfo
	case "warn":
		l = slog.LevelWarn
	case "error":
		l = slog.LevelError
	default:
		fmt.Fprintf(os.Stderr, "pythia-serve: bad -log-level %q (want debug|info|warn|error)\n", level)
		os.Exit(2)
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: l}))
}

// runServe listens on addr until SIGINT/SIGTERM, then drains gracefully.
func runServe(cfg serve.Config, addr string) {
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pythia-serve: %v\n", err)
		os.Exit(1)
	}
	srv.Start()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(addr) }()
	durable := "no journal"
	if cfg.WALDir != "" {
		durable = fmt.Sprintf("journal in %s", cfg.WALDir)
	}
	fmt.Fprintf(os.Stderr, "pythia-serve: listening on %s (%d shards, %d hosts, %s)\n",
		addr, cfg.Defaults().Shards, srv.NumHosts(), durable)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pythia-serve: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "pythia-serve: %v, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "pythia-serve: shutdown: %v\n", err)
		os.Exit(1)
	}
}
