// Package serve puts an online serving surface in front of the sharded
// Pythia collector (internal/core): a versioned HTTP/JSON wire protocol for
// shuffle-intent ingest, request batching into the collector's two-phase
// ApplyBatch, bounded-queue backpressure, and graceful shutdown. The
// simulated SDN substrate (netsim + openflow) stands in for the fabric; in
// the paper's deployment the same collector would steer a physical testbed.
//
// # Wire protocol (v1)
//
//	POST /v1/ingest   — body IngestRequest, reply IngestResponse
//	GET  /v1/stats    — reply StatsResponse
//	GET  /v1/healthz  — 200 "ok" (503 while draining)
//
// Ingest operations are applied in request order: reducer placements, then
// intents, then job retirements. A saturated server replies 429 with a
// Retry-After header; a draining server replies 503. Unknown fields are
// rejected so protocol drift fails loudly.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"pythia/internal/core"
	"pythia/internal/instrument"
	"pythia/internal/topology"
)

// WireIntent is one shuffle-spill prediction: map task on src_host will
// feed predicted_wire_bytes[r] bytes to reducer r.
type WireIntent struct {
	Job     int `json:"job"`
	Map     int `json:"map"`
	Attempt int `json:"attempt,omitempty"`
	// SrcHost is the mapper's host index in [0, num_hosts) — the fabric's
	// host table is published as num_hosts in /v1/stats.
	SrcHost            int       `json:"src_host"`
	PredictedWireBytes []float64 `json:"predicted_wire_bytes"`
}

// WireReducerUp reports reducer placement: job's reducer is on host.
type WireReducerUp struct {
	Job    int `json:"job"`
	Reduce int `json:"reduce"`
	Host   int `json:"host"`
}

// IngestRequest carries a batch of collector operations. At least one list
// must be non-empty.
type IngestRequest struct {
	Reducers []WireReducerUp `json:"reducers,omitempty"`
	Intents  []WireIntent    `json:"intents,omitempty"`
	DoneJobs []int           `json:"done_jobs,omitempty"`
}

// ops reports the operation count.
func (r *IngestRequest) ops() int { return len(r.Reducers) + len(r.Intents) + len(r.DoneJobs) }

// IngestResponse summarizes the request's dispositions. Results is
// positional with the request's operation order (reducers, intents,
// done_jobs): "accepted", "duplicate", or "deferred".
type IngestResponse struct {
	Accepted   int      `json:"accepted"`
	Deferred   int      `json:"deferred"`
	Duplicates int      `json:"duplicates"`
	Results    []string `json:"results"`
	QueueDepth int      `json:"queue_depth"`
}

// StatsResponse is the /v1/stats reply: every collector counter plus the
// serving-plane gauges. PlacementDigest fingerprints the placement-decision
// stream (FNV-1a over src, dst, path of every decision in order) — two
// servers fed the same request sequence must report the same digest
// regardless of shard or worker count.
type StatsResponse struct {
	core.CollectorStats
	PlacementDigest  string  `json:"placement_digest"`
	Placements       int     `json:"placements"`
	QueueDepth       int     `json:"queue_depth"`
	NumHosts         int     `json:"num_hosts"`
	VirtualSec       float64 `json:"virtual_sec"`
	RequestsTotal    int64   `json:"requests_total"`
	RejectedTotal    int64   `json:"rejected_total"`
	LatencyP50Micros float64 `json:"latency_p50_micros"`
	LatencyP99Micros float64 `json:"latency_p99_micros"`

	// The collector's own account of its commits: total wall seconds in the
	// shard phase, the delta merge and the placement pass, and how many pair
	// aggregates the latest pass left without a path (degraded or
	// unroutable).
	CommitShardSec     float64 `json:"commit_shard_sec"`
	CommitMergeSec     float64 `json:"commit_merge_sec"`
	CommitPlaceSec     float64 `json:"commit_place_sec"`
	UnplacedAggregates int     `json:"unplaced_aggregates"`

	// Durability gauges (zero when the write-ahead journal is disabled).
	WALRecords  int   `json:"wal_records,omitempty"`
	WALSegments int   `json:"wal_segments,omitempty"`
	WALBytes    int64 `json:"wal_bytes,omitempty"`
	// Snapshots counts snapshots made durable and adopted (journal compacted
	// against them) this process lifetime; SnapshotSeq is the journal
	// sequence the latest one covers through. SnapshotPauseSec totals the
	// wall time the batch loop stopped to capture snapshots, SnapshotWriteSec
	// the background write+fsync time that no longer stops it.
	Snapshots        int     `json:"snapshots,omitempty"`
	SnapshotSeq      uint64  `json:"snapshot_seq,omitempty"`
	SnapshotPauseSec float64 `json:"snapshot_pause_sec,omitempty"`
	SnapshotWriteSec float64 `json:"snapshot_write_sec,omitempty"`
	// Recovered reports that this process rebuilt state from the journal at
	// startup: RecoveredRecords batches replayed in RecoverySec wall
	// seconds (on top of the snapshot, if one existed).
	Recovered        bool    `json:"recovered,omitempty"`
	RecoveredRecords int     `json:"recovered_records,omitempty"`
	RecoverySec      float64 `json:"recovery_sec,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WireOp is one collector operation in the journal's ops form, which
// servers wrote until records became request bodies; replay still reads it.
// Exactly one of the payload fields is set, selected by Kind ("intent",
// "reducer_up", "job_done").
type WireOp struct {
	Kind    string         `json:"kind"`
	Intent  *WireIntent    `json:"intent,omitempty"`
	Reducer *WireReducerUp `json:"reducer,omitempty"`
	Job     int            `json:"job,omitempty"`
}

// WireBatch is one committed batch as journaled by the write-ahead log: the
// engine instant the batch committed at (the logical-clock target, so replay
// never re-derives clock advances) and the batch's operations in their exact
// commit order — order is semantic, because reducer placements resolve
// deferred intents positionally. A record carries the operations in one of
// two forms: Requests, the batch's ingest requests in queue order (what the
// batch loop writes: the request bodies, verbatim), or Ops, one lowered
// operation each (what servers wrote before).
type WireBatch struct {
	VirtualSec float64         `json:"virtual_sec"`
	Ops        []WireOp        `json:"ops"`
	Requests   []IngestRequest `json:"requests,omitempty"`
}

const (
	wireKindIntent    = "intent"
	wireKindReducerUp = "reducer_up"
	wireKindJobDone   = "job_done"
)

// ToOps lowers a journaled batch back into collector operations, preserving
// commit order. A request-form record is checked and lowered request by
// request exactly as the handler did, so it yields the operation sequence
// the batch loop concatenated. Host indexes outside the fabric's table (a
// journal from a different topology) fail loudly rather than replaying
// garbage, and so does a record holding both forms.
func (b *WireBatch) ToOps(hosts []topology.NodeID) ([]core.Op, error) {
	if len(b.Requests) > 0 {
		if len(b.Ops) > 0 {
			return nil, fmt.Errorf("record holds both ops and requests")
		}
		n := 0
		for i := range b.Requests {
			if err := b.Requests[i].validate(len(hosts), 0); err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			n += b.Requests[i].ops()
		}
		ops := make([]core.Op, 0, n)
		for i := range b.Requests {
			ops = b.Requests[i].appendOps(ops, hosts)
		}
		return ops, nil
	}
	ops := make([]core.Op, len(b.Ops))
	for i, w := range b.Ops {
		switch w.Kind {
		case wireKindIntent:
			if w.Intent == nil {
				return nil, fmt.Errorf("op %d: intent record without payload", i)
			}
			if w.Intent.SrcHost < 0 || w.Intent.SrcHost >= len(hosts) {
				return nil, fmt.Errorf("op %d: src_host %d outside [0,%d) — journal from a different fabric?",
					i, w.Intent.SrcHost, len(hosts))
			}
			ops[i] = core.Op{Kind: core.OpIntent, Intent: instrument.Intent{
				Job: w.Intent.Job, Map: w.Intent.Map, Attempt: w.Intent.Attempt,
				SrcHost: hosts[w.Intent.SrcHost], PredictedWireBytes: w.Intent.PredictedWireBytes}}
		case wireKindReducerUp:
			if w.Reducer == nil {
				return nil, fmt.Errorf("op %d: reducer_up record without payload", i)
			}
			if w.Reducer.Host < 0 || w.Reducer.Host >= len(hosts) {
				return nil, fmt.Errorf("op %d: host %d outside [0,%d) — journal from a different fabric?",
					i, w.Reducer.Host, len(hosts))
			}
			ops[i] = core.Op{Kind: core.OpReducerUp, Reducer: instrument.ReducerUp{
				Job: w.Reducer.Job, Reduce: w.Reducer.Reduce, Host: hosts[w.Reducer.Host]}}
		case wireKindJobDone:
			ops[i] = core.Op{Kind: core.OpJobDone, Job: w.Job}
		default:
			return nil, fmt.Errorf("op %d: unknown kind %q", i, w.Kind)
		}
	}
	return ops, nil
}

// maxBodyBytes bounds request bodies before decoding.
const maxBodyBytes = 8 << 20

// decodeIngest parses and validates an ingest request body against the
// server's host table and per-request op budget. With keepBody it also
// returns a copy of the body it validated, for the journal to append
// verbatim. Body size is bounded by the caller (the HTTP handler wraps
// bodies in http.MaxBytesReader so oversized requests surface as 413, not a
// truncated-JSON 400).
func decodeIngest(r io.Reader, numHosts, maxOps int, keepBody bool) (*IngestRequest, []byte, error) {
	d := getDecoder(nil)
	defer d.release()
	req, err := d.readIngest(r)
	if err != nil {
		return nil, nil, fmt.Errorf("malformed request: %w", err)
	}
	if err := req.validate(numHosts, maxOps); err != nil {
		return nil, nil, err
	}
	var body []byte
	if keepBody {
		body = bytes.Clone(d.buf)
	}
	return req, body, nil
}

// validate checks a decoded request's IDs, hosts and byte predictions.
func (req *IngestRequest) validate(numHosts, maxOps int) error {
	if req.ops() == 0 {
		return fmt.Errorf("empty request: no reducers, intents, or done_jobs")
	}
	if maxOps > 0 && req.ops() > maxOps {
		return fmt.Errorf("request exceeds %d operations (%d)", maxOps, req.ops())
	}
	for i, up := range req.Reducers {
		if up.Job < 0 || up.Reduce < 0 {
			return fmt.Errorf("reducers[%d]: negative job or reduce ID", i)
		}
		if up.Host < 0 || up.Host >= numHosts {
			return fmt.Errorf("reducers[%d]: host %d outside [0,%d)", i, up.Host, numHosts)
		}
	}
	for i, in := range req.Intents {
		if in.Job < 0 || in.Map < 0 || in.Attempt < 0 {
			return fmt.Errorf("intents[%d]: negative job, map, or attempt ID", i)
		}
		if in.SrcHost < 0 || in.SrcHost >= numHosts {
			return fmt.Errorf("intents[%d]: src_host %d outside [0,%d)", i, in.SrcHost, numHosts)
		}
		if len(in.PredictedWireBytes) == 0 {
			return fmt.Errorf("intents[%d]: empty predicted_wire_bytes", i)
		}
		for r, b := range in.PredictedWireBytes {
			if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
				return fmt.Errorf("intents[%d]: predicted_wire_bytes[%d] = %v is not a finite non-negative byte count", i, r, b)
			}
		}
	}
	for i, job := range req.DoneJobs {
		if job < 0 {
			return fmt.Errorf("done_jobs[%d]: negative job ID", i)
		}
	}
	return nil
}

// ToOps lowers a validated request into collector operations in protocol
// order (reducers, intents, done_jobs), mapping host indexes through the
// fabric's host table. Exported for the benchmark's in-process oracle,
// which replays the same requests on a bare collector.
func (req *IngestRequest) ToOps(hosts []topology.NodeID) []core.Op {
	return req.appendOps(make([]core.Op, 0, req.ops()), hosts)
}

// appendOps appends the request's lowered operations to ops.
func (req *IngestRequest) appendOps(ops []core.Op, hosts []topology.NodeID) []core.Op {
	for _, up := range req.Reducers {
		ops = append(ops, core.Op{Kind: core.OpReducerUp, Reducer: instrument.ReducerUp{
			Job: up.Job, Reduce: up.Reduce, Host: hosts[up.Host]}})
	}
	for _, in := range req.Intents {
		ops = append(ops, core.Op{Kind: core.OpIntent, Intent: instrument.Intent{
			Job: in.Job, Map: in.Map, Attempt: in.Attempt,
			SrcHost: hosts[in.SrcHost], PredictedWireBytes: in.PredictedWireBytes}})
	}
	for _, job := range req.DoneJobs {
		ops = append(ops, core.Op{Kind: core.OpJobDone, Job: job})
	}
	return ops
}

// writeJSON encodes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError replies with an ErrorResponse.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
