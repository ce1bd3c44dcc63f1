package core

import (
	"fmt"
	"testing"

	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
)

// indexError checks the placement plane's two indexes against references
// built without them:
//
//	(i)   the row walk (sortedAggregates) is strictly ascending, every
//	      aggregate sits under its own key, and the walked keys are exactly
//	      the aggregation keys of the live bookings; a lookup of every other
//	      key in the fabric's range finds nothing;
//	(ii)  a row is allocated iff it holds an aggregate, and the row and
//	      index counts match what the slots hold;
//	(iii) placedOn[l] is, for every link, the placed aggregates whose path
//	      crosses l, in ascending pair-key order.
func indexError(p *Pythia) error {
	walk := p.sortedAggregates()
	if len(walk) != p.pairs.n {
		return fmt.Errorf("row walk finds %d aggregates, the index counts %d", len(walk), p.pairs.n)
	}
	for i, a := range walk {
		if i > 0 && !walk[i-1].key.less(a.key) {
			return fmt.Errorf("row walk not ascending at pair %d->%d", a.key.src, a.key.dst)
		}
		if p.pairs.get(a.key) != a {
			return fmt.Errorf("pair %d->%d is not filed under its own key", a.key.src, a.key.dst)
		}
		if a.indexed != a.placed {
			return fmt.Errorf("pair %d->%d: placed=%v indexed=%v", a.key.src, a.key.dst, a.placed, a.indexed)
		}
	}
	want := make(map[pairKey]bool)
	for _, b := range p.bookedSnapshot() {
		want[p.aggKey(b.src, b.dst)] = true
	}
	if len(want) != len(walk) {
		return fmt.Errorf("live bookings name %d pairs, the index holds %d aggregates", len(want), len(walk))
	}
	nodes := topology.NodeID(p.g.NumNodes())
	for src := topology.NodeID(-1); src <= nodes; src++ {
		for dst := topology.NodeID(-1); dst <= nodes; dst++ {
			k := pairKey{src, dst}
			if a := p.pairs.get(k); (a != nil) != want[k] {
				return fmt.Errorf("pair %d->%d: indexed %v, booked %v", src, dst, a != nil, want[k])
			}
		}
	}

	total := 0
	for src, row := range p.pairs.rows {
		held := 0
		for _, a := range row.dst {
			if a != nil {
				held++
			}
		}
		if held != row.n || (row.dst != nil) != (held > 0) {
			return fmt.Errorf("row %d: %d slots held, count %d, allocated %v", src, held, row.n, row.dst != nil)
		}
		total += held
	}
	if total != p.pairs.n {
		return fmt.Errorf("rows hold %d aggregates, the index counts %d", total, p.pairs.n)
	}

	ref := make([][]*aggregate, max(len(p.placedOn), p.g.NumLinks()))
	for _, a := range walk {
		if a.placed {
			for _, l := range a.path.Links {
				ref[l] = append(ref[l], a)
			}
		}
	}
	for l := range ref {
		got := p.placedAt(topology.LinkID(l))
		if len(got) != len(ref[l]) {
			return fmt.Errorf("link %d: index holds %d aggregates, placed paths put %d there", l, len(got), len(ref[l]))
		}
		for i := range got {
			if got[i] != ref[l][i] {
				return fmt.Errorf("link %d slot %d: index holds pair %d->%d, reference pair %d->%d", l, i,
					got[i].key.src, got[i].key.dst, ref[l][i].key.src, ref[l][i].key.dst)
			}
		}
	}
	return nil
}

// TestPairIndexInvariants drives a collector on a k=4 fat-tree through a
// seeded op sequence — intents with speculative attempts, reducer moves,
// JobDone, TTL expiry, a link failure and its recovery, and a control-plane
// outage that degrades aggregates — and checks both indexes after every
// batch.
func TestPairIndexInvariants(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		shards int
		scope  Scope
	}{{1, 1, ScopeHostPair}, {2, 4, ScopeHostPair}, {3, 2, ScopeRackPair}} {
		t.Run(fmt.Sprintf("seed=%d/shards=%d/%v", tc.seed, tc.shards, tc.scope), func(t *testing.T) {
			testPairIndexInvariants(t, tc.seed, tc.shards, tc.scope)
		})
	}
}

func testPairIndexInvariants(t *testing.T, seed uint64, shards int, scope Scope) {
	eng := sim.NewEngine()
	g, hosts := topology.FatTree(4, 2, topology.Gbps)
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	ofc.SetFaults(openflow.FaultConfig{InstallTimeout: 0.05, MaxRetries: 1, RetryBackoff: 0.05})
	py := New(eng, net, ofc, Config{Aggregate: true, UseCriticality: true, Scope: scope,
		Shards: shards, BookingTTL: 4})
	rng := stats.NewRNG(seed)

	const batches, window, maps, reducers = 160, 4, 6, 4
	var failed []topology.LinkID
	oldest := 0 // live jobs are oldest .. oldest+window-1
	var placedOnFailed int
	for b := 0; b < batches; b++ {
		switch b {
		case 40: // fail both directions of a switch-to-switch link that carries a placement
			for _, a := range py.sortedAggregates() {
				if a.placed && len(a.path.Links) > 2 {
					l := a.path.Links[1]
					placedOnFailed = len(py.placedAt(l))
					failed = append(failed, l)
					if r, ok := g.Reverse(l); ok {
						failed = append(failed, r)
					}
					break
				}
			}
			for _, l := range failed {
				setLinkUp(net, l, false)
			}
		case 70:
			for _, l := range failed {
				setLinkUp(net, l, true)
			}
		case 90:
			ofc.FailController()
		case 120:
			ofc.RecoverController()
		}

		var ops []Op
		for n := 1 + rng.Intn(16); n > 0; n-- {
			job := oldest + rng.Intn(window)
			switch x := rng.Float64(); {
			case x < 0.6:
				bytes := make([]float64, reducers)
				for r := range bytes {
					if rng.Float64() < 0.8 {
						bytes[r] = float64(1+rng.Intn(40)) * 1e5
					}
				}
				ops = append(ops, Op{Kind: OpIntent, Intent: instrument.Intent{Job: job, Map: rng.Intn(maps),
					Attempt: rng.Intn(2), SrcHost: hosts[rng.Intn(len(hosts))], PredictedWireBytes: bytes}})
			case x < 0.985:
				ops = append(ops, Op{Kind: OpReducerUp, Reducer: instrument.ReducerUp{Job: job,
					Reduce: rng.Intn(reducers), Host: hosts[rng.Intn(len(hosts))]}})
			default:
				ops = append(ops, Op{Kind: OpJobDone, Job: oldest})
				oldest++
			}
		}
		py.ApplyBatch(ops, 1)
		if err := indexError(py); err != nil {
			t.Fatalf("batch %d, after ApplyBatch: %v", b, err)
		}
		eng.RunUntil(eng.Now() + 0.25) // installs land or time out, polls and TTL sweeps fire
		if err := indexError(py); err != nil {
			t.Fatalf("batch %d, at t=%v: %v", b, eng.Now(), err)
		}
		if b == 69 {
			for _, l := range failed {
				if n := len(py.placedAt(l)); n != 0 {
					t.Fatalf("%d aggregates still placed on failed link %d", n, l)
				}
			}
		}
	}
	if placedOnFailed == 0 || py.AggregatesDegraded == 0 || py.Reconciliations == 0 ||
		py.ExpiredBookings() == 0 || oldest == 0 || py.liveAggregates() == 0 {
		t.Fatalf("sequence too weak: %d placed on the failed link, %d degraded, %d reconciled, %d expired, %d jobs retired, %d live",
			placedOnFailed, py.AggregatesDegraded, py.Reconciliations, py.ExpiredBookings(), oldest, py.liveAggregates())
	}
}
