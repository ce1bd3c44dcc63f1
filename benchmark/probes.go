package main

import (
	"encoding/json"
	"fmt"
	"time"

	"pythia/internal/core"
	"pythia/internal/serve"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
	"pythia/internal/wal"
)

// Layer probes: the traced run pushes a prefix of the workload's own
// requests, single-threaded, through each layer's public functions in the
// order the server's batch loop composes them, with a span around every
// call. They give per-call costs with nothing else on the box competing,
// which the closed-loop phase (two clients, a batch loop and the shard
// workers on two cores) cannot.

const (
	probeEvents = 1_000_000 // events scheduled and fired by the kernel probe
	probePairs  = 2000      // host pairs queried by the path-cache probe
	probeLane   = conns     // Chrome-trace row below the client connections
)

// spanMS lists the durations of the spans called name, in milliseconds.
func spanMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64((s.End-s.Start).Nanoseconds())/1e6)
		}
	}
	return out
}

// wireBatch raises a decoded request to the journal's record form, the way
// the batch loop journals the ops it is about to commit.
func wireBatch(req *serve.IngestRequest, virtualSec float64) *serve.WireBatch {
	b := &serve.WireBatch{VirtualSec: virtualSec}
	for i := range req.Reducers {
		b.Ops = append(b.Ops, serve.WireOp{Kind: "reducer_up", Reducer: &req.Reducers[i]})
	}
	for i := range req.Intents {
		b.Ops = append(b.Ops, serve.WireOp{Kind: "intent", Intent: &req.Intents[i]})
	}
	for _, j := range req.DoneJobs {
		b.Ops = append(b.Ops, serve.WireOp{Kind: "job_done", Job: j})
	}
	return b
}

// runProbes runs every probe for a serving-stack workload and fills the
// probe-sourced per-layer rows. journal adds the journal's append, fsync
// and read-back path at the workload's own sync policy.
func runProbes(rep *report, tr *tracer, cfg serve.Config, bodies [][]byte, journal bool, walDir string) error {
	cfg = cfg.Defaults()
	s := newStack(cfg, cfg.Shards)
	root := tr.begin("probe", -1, -1, probeLane)

	var log *wal.Log
	var fsyncMS []float64
	if journal {
		var err error
		log, err = wal.Open(walDir, wal.Options{
			SegmentBytes: cfg.SegmentBytes,
			SyncEvery:    cfg.FsyncEvery,
			Observer:     &wal.Observer{Fsync: func(sec float64) { fsyncMS = append(fsyncMS, sec*1e3) }},
		})
		if err != nil {
			return fmt.Errorf("probe journal: %w", err)
		}
		defer log.Close()
	}

	ops := 0
	for i, body := range bodies {
		req := tr.begin("probe.request", root, i, probeLane)

		sp := tr.begin("serve.decode", req, i, probeLane)
		wire, batch, err := s.decodeRequest(body)
		tr.end(sp)
		if err != nil {
			return err
		}
		ops += len(batch)

		sp = tr.begin("core.novelops", req, i, probeLane)
		novel := s.py.NovelOps(batch)
		tr.end(sp)
		s.virtual += float64(novel) / gateClockHz

		sp = tr.begin("sim.run_until", req, i, probeLane)
		if deadline := sim.Time(s.virtual); deadline > s.eng.Now() {
			s.eng.RunUntil(deadline)
		}
		tr.end(sp)

		if log != nil {
			sp = tr.begin("wal.append", req, i, probeLane)
			payload, err := json.Marshal(wireBatch(wire, s.virtual))
			if err == nil {
				_, err = log.Append(payload)
			}
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("probe journal append: %w", err)
			}
		}

		sp = tr.begin("core.apply", req, i, probeLane)
		s.py.ApplyBatch(batch, cfg.Workers)
		tr.end(sp)

		tr.end(req)
	}

	sp := tr.begin("core.snapshot", root, -1, probeLane)
	snap := s.py.Snapshot()
	tr.end(sp)
	fresh := newStack(cfg, cfg.Shards)
	sp = tr.begin("core.restore", root, -1, probeLane)
	err := fresh.py.Restore(snap)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe restore: %w", err)
	}

	if log != nil {
		read := 0
		sp = tr.begin("wal.replay_read", root, -1, probeLane)
		err := log.Replay(1, func(_ uint64, p []byte) error { read += len(p); return nil })
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe journal replay: %w", err)
		}
		readSec := stats.Mean(spanMS(tr.spans, "wal.replay_read")) / 1e3
		rep.set("wal.replay_read_mb_per_s", ratio(float64(read)/1e6, readSec))
		rep.setN("wal.append_ms_p50", median(spanMS(tr.spans, "wal.append")), len(bodies))
		rep.setN("wal.fsync_ms_p50", median(fsyncMS), len(fsyncMS))
	}
	tr.end(root)

	self, _ := selfByName(tr.spans)
	perOp := func(name string) float64 { return ratio(float64(self[name].Nanoseconds()), float64(ops)) }
	rep.setN("serve.decode_us_per_op", perOp("serve.decode")/1e3, ops)
	rep.setN("core.novelops_ns_per_op", perOp("core.novelops"), ops)
	rep.setN("core.apply_ns_per_op", perOp("core.apply"), ops)
	rep.setN("sim.run_until_us_per_batch", ratio(float64(self["sim.run_until"].Nanoseconds())/1e3, float64(len(bodies))), len(bodies))
	rep.set("core.snapshot_ms", float64(self["core.snapshot"].Nanoseconds())/1e6)
	rep.set("core.restore_ms", float64(self["core.restore"].Nanoseconds())/1e6)
	rep.set("core.shard_imbalance", shardImbalance(s.py.ShardStats()))

	probeKernel(rep, tr)
	probeTopology(rep, tr, cfg.FatTreeK, cfg.K)
	return nil
}

// shardImbalance is the busiest shard's ingest count over the mean.
func shardImbalance(shards []core.ShardStat) float64 {
	max, sum := 0, 0
	for _, sh := range shards {
		n := sh.IntentsReceived
		sum += n
		if n > max {
			max = n
		}
	}
	return ratio(float64(max)*float64(len(shards)), float64(sum))
}

// probeKernel times the event kernel alone with the classic hold model: a
// standing population of pending events, each of which on firing schedules
// its successor a seeded delay ahead, until probeEvents have fired — the
// queue stays at the size a running simulation keeps it.
func probeKernel(rep *report, tr *tracer) {
	const pending = 10_000
	eng := sim.NewEngine()
	rng := stats.NewRNG(0x6b65726e)
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired+pending <= probeEvents {
			eng.After(sim.Duration(rng.Float64()), fire)
		}
	}
	sp := tr.begin("sim.kernel", -1, -1, probeLane)
	t0 := time.Now()
	for i := 0; i < pending; i++ {
		eng.After(sim.Duration(rng.Float64()), fire)
	}
	eng.Run()
	d := time.Since(t0)
	tr.end(sp)
	rep.setN("sim.ns_per_event", ratio(float64(d.Nanoseconds()), float64(fired)), fired)
}

// probeTopology times building the workload's fabric and its path cache
// cold (every pair a k-shortest-paths computation) and warm (every pair a
// hit).
func probeTopology(rep *report, tr *tracer, fatTreeK, ksp int) {
	sp := tr.begin("topology.build", -1, -1, probeLane)
	t0 := time.Now()
	g, hosts := topology.FatTree(fatTreeK, fatTreeK/2, topology.Gbps)
	rep.set("topology.build_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	tr.end(sp)

	rng := stats.NewRNG(0x70616972)
	type pair struct{ src, dst topology.NodeID }
	pairs := make([]pair, 0, probePairs)
	seen := map[pair]bool{}
	for len(pairs) < probePairs && len(seen) < len(hosts)*(len(hosts)-1) {
		p := pair{hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]}
		if p.src == p.dst || seen[p] {
			continue
		}
		seen[p] = true
		pairs = append(pairs, p)
	}
	cache := topology.NewPathCache(g, ksp)
	pass := func(name string) time.Duration {
		sp := tr.begin(name, -1, -1, probeLane)
		t0 := time.Now()
		for _, p := range pairs {
			cache.Paths(p.src, p.dst)
		}
		d := time.Since(t0)
		tr.end(sp)
		return d
	}
	cold := pass("topology.ksp_cold")
	warm := pass("topology.ksp_warm")
	rep.setN("topology.ksp_cold_us_per_pair", float64(cold.Nanoseconds())/1e3/float64(len(pairs)), len(pairs))
	rep.setN("topology.ksp_warm_ns_per_pair", float64(warm.Nanoseconds())/float64(len(pairs)), len(pairs))
}
