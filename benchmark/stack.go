package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"pythia/internal/core"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/serve"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// stack is the collector and its simulated SDN substrate assembled from the
// layers' public constructors exactly as serve.New assembles them. The
// oracle gate and the layer probes drive it directly, with no HTTP, queue or
// batch loop in the way.
type stack struct {
	eng     *sim.Engine
	hosts   []topology.NodeID
	py      *core.Pythia
	digest  uint64 // FNV-1a over the placement stream, the server's own fold
	places  int
	virtual float64
}

func newStack(cfg serve.Config, shards int) *stack {
	cfg = cfg.Defaults()
	s := &stack{eng: sim.NewEngine(), digest: 14695981039346656037}
	g, hosts := topology.FatTree(cfg.FatTreeK, cfg.HostsPerEdge, topology.Gbps)
	s.hosts = hosts
	net := netsim.New(s.eng, g)
	ofc := openflow.NewController(s.eng, net, 0)
	s.py = core.New(s.eng, net, ofc, core.Config{
		K:              cfg.K,
		Aggregate:      true,
		UseCriticality: true,
		BookingTTL:     sim.Duration(cfg.BookingTTLSec),
		Shards:         shards,
	})
	s.py.SetPlacementHook(s.observe)
	return s
}

func (s *stack) observe(src, dst topology.NodeID, path topology.Path) {
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
	mix(^uint64(0))
	s.places++
}

func (s *stack) digestHex() string { return fmt.Sprintf("%016x", s.digest) }

// decodeRequest is the ingest handler's decode step through public
// surface: strict JSON into the wire type, then lowering to collector ops.
func (s *stack) decodeRequest(body []byte) (*serve.IngestRequest, []core.Op, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req := new(serve.IngestRequest)
	if err := dec.Decode(req); err != nil {
		return nil, nil, fmt.Errorf("decoding pool request: %w", err)
	}
	return req, req.ToOps(s.hosts), nil
}

// apply commits one request as one batch on the server's logical clock:
// virtual time advances 1/clockHz per novel op, the engine runs to it (TTL
// sweeps fire), then the batch applies.
func (s *stack) apply(ops []core.Op, clockHz float64, workers int) {
	s.virtual += float64(s.py.NovelOps(ops)) / clockHz
	if deadline := sim.Time(s.virtual); deadline > s.eng.Now() {
		s.eng.RunUntil(deadline)
	}
	s.py.ApplyBatch(ops, workers)
}

// gateClockHz is the logical clock of every sequential replay (gate cycles,
// oracle, journal build, probes): it makes a request sequence's outcome a
// function of the requests alone, so digests and counters compare exactly.
const gateClockHz = 1000

// oracleReplay runs bodies through a single-shard in-process collector, one
// batch per request — the ground truth a server fed the same requests
// sequentially must reproduce bit for bit at any shard or worker count.
func oracleReplay(cfg serve.Config, bodies [][]byte) (string, core.CollectorStats, error) {
	s := newStack(cfg, 1)
	for _, b := range bodies {
		_, ops, err := s.decodeRequest(b)
		if err != nil {
			return "", core.CollectorStats{}, err
		}
		s.apply(ops, gateClockHz, 1)
	}
	return s.digestHex(), s.py.Stats(), nil
}
