package pythia

import "pythia/internal/serve"

// Online serving facade: the collector behind an HTTP/JSON service
// instead of an in-process Cluster. See internal/serve for the wire
// protocol and cmd/pythia-serve for the ready-made binary.

// ServeConfig shapes the online serving stack: the collector's shard count,
// queue/batch bounds, booking TTL, the simulated fabric standing in
// for the datacenter, and the operations plane (Metrics for GET /metrics,
// Pprof, Logger for structured request logs, FlightEvents for the live
// flight recorder). The zero value is usable; unset fields take the same
// defaults cmd/pythia-serve ships with.
type ServeConfig = serve.Config

// Server is the online collector service. Start it, mount Handler on any
// http mux or call ListenAndServe, and drain with Shutdown.
type Server = serve.Server

// NewServer builds an online collector service:
//
//	srv, err := pythia.NewServer(pythia.ServeConfig{Shards: 4})
//	if err != nil { ... }
//	srv.Start()
//	go srv.ListenAndServe(":8080")
//	...
//	srv.Shutdown(ctx)
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Client is a resilient client for the serving API: per-attempt timeouts,
// exponential backoff with jitter honoring Retry-After, and context
// propagation. Retried requests are exactly-once by protocol construction
// (intent dedup, idempotent reducer placement), even across a server crash
// and recovery.
type Client = serve.Client

// ClientConfig tunes Client retry behavior; the zero value is usable.
type ClientConfig = serve.ClientConfig

// ClientStats counts a Client's own retry behavior (attempts, retries,
// Retry-After sleeps, transport and permanent errors) — the client-side view
// of server health, via Client.Stats.
type ClientStats = serve.ClientStats

// CrashPoint identifies a batch-loop crash-injection site for
// ServeConfig.CrashHook (chaos testing of the durable serving plane).
type CrashPoint = serve.CrashPoint

// Crash-injection sites: before the batch reaches the journal, between
// journal append and collector commit, and after commit but before clients
// are answered.
const (
	CrashBeforeAppend = serve.CrashBeforeAppend
	CrashAfterAppend  = serve.CrashAfterAppend
	CrashAfterCommit  = serve.CrashAfterCommit
)

// NewClient builds a retrying client for the server at baseURL:
//
//	cl := pythia.NewClient("http://127.0.0.1:8080", pythia.ClientConfig{})
//	resp, err := cl.Ingest(ctx, &pythia.IngestRequest{...})
func NewClient(baseURL string, cfg ClientConfig) *Client { return serve.NewClient(baseURL, cfg) }

// Wire types for Client calls.
type (
	// IngestRequest is one batch of collector operations.
	IngestRequest = serve.IngestRequest
	// IngestResponse summarizes the request's dispositions.
	IngestResponse = serve.IngestResponse
	// StatsResponse is the /v1/stats reply.
	StatsResponse = serve.StatsResponse
	// WireIntent is one shuffle-spill prediction.
	WireIntent = serve.WireIntent
	// WireReducerUp reports reducer placement.
	WireReducerUp = serve.WireReducerUp
)
