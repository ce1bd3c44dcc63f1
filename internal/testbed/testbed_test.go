package testbed

import (
	"fmt"
	"math"
	"testing"

	"pythia/internal/core"
	"pythia/internal/flight"
	"pythia/internal/hadoop"
	"pythia/internal/netsim"
	"pythia/internal/stats"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

func mustBuild(t *testing.T, cfg Config) *Testbed {
	t.Helper()
	tb, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestECMPHashesOverEveryEqualCostPath: the baseline hashes over the whole
// equal-cost set the default path diversity exposes on each fabric — not a
// fixed two of them — and a seeded stream of five-tuples reaches every
// member.
func TestECMPHashesOverEveryEqualCostPath(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		dst      int // index of a host in another rack/pod than host 0
		tuples   int
		wantEqCo int
	}{
		{"two-rack default", Config{}, 5, 200, 2},
		{"two-rack 4 trunks", Config{Trunks: 4}, 5, 200, 4},
		{"leaf-spine 4 spines", Config{Leaves: 4, Spines: 4}, 5, 200, 4},
		{"fat-tree k=4 inter-pod", Config{FatTreeK: 4}, 4, 200, 4},
		{"fat-tree k=8 inter-pod, K=16", Config{FatTreeK: 8, K: 16}, 16, 800, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 1
			tb := mustBuild(t, tc.cfg)
			src, dst := tb.Hosts[0], tb.Hosts[tc.dst]
			if got := len(tb.ECMP.Paths(src, dst)); got != tc.wantEqCo {
				t.Fatalf("equal-cost set has %d paths, want %d", got, tc.wantEqCo)
			}
			rng := stats.NewRNG(7)
			hit := map[string]int{}
			for i := 0; i < tc.tuples; i++ {
				p, err := tb.ECMP.ResolveShuffle(netsim.FiveTuple{
					SrcHost: src, DstHost: dst, Protocol: 6,
					SrcPort: hadoop.ShufflePort, DstPort: uint16(1024 + rng.Intn(60000)),
				})
				if err != nil {
					t.Fatal(err)
				}
				hit[fmt.Sprint(p.Links)]++
			}
			if len(hit) != tc.wantEqCo {
				t.Fatalf("%d five-tuples hit %d of %d paths: %v", tc.tuples, len(hit), tc.wantEqCo, hit)
			}
		})
	}
}

// TestOversubscriptionGroupsTrunksByUpstreamSwitch: each rack's uplinks are
// one group whose spare bandwidth sums to hostAggregate/N, split 30/70 over
// two trunks and 1:2:…:n otherwise, in both directions; a fat-tree has no
// trunks and carries no background.
func TestOversubscriptionGroupsTrunksByUpstreamSwitch(t *testing.T) {
	const gbps = topology.Gbps
	for _, tc := range []struct {
		name   string
		cfg    Config
		groups int
		spare  []float64 // per trunk of one group, as a fraction of a link
	}{
		{"two-rack", Config{Oversub: 10}, 1, []float64{0.15, 0.35}},
		{"two-rack 4 trunks", Config{Oversub: 10, Trunks: 4}, 1, []float64{0.05, 0.10, 0.15, 0.20}},
		{"leaf-spine 4x2", Config{Oversub: 10, Leaves: 4, Spines: 2}, 4, []float64{0.15, 0.35}},
		{"leaf-spine 4x4", Config{Oversub: 5, Leaves: 4, Spines: 4}, 4, []float64{0.1, 0.2, 0.3, 0.4}},
		{"spare capped at capacity", Config{Oversub: 1, HostsPerRack: 8}, 1, []float64{0.6, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := mustBuild(t, tc.cfg)
			if got, want := len(tb.Trunks), tc.groups*len(tc.spare); got != want {
				t.Fatalf("%d trunks, want %d", got, want)
			}
			for i, tr := range tb.Trunks {
				want := gbps * (1 - tc.spare[i%len(tc.spare)])
				rev, ok := tb.Graph.Reverse(tr)
				if !ok {
					t.Fatalf("trunk %d has no reverse direction", tr)
				}
				for _, l := range []topology.LinkID{tr, rev} {
					if got := tb.Net.BackgroundOn(l); math.Abs(got-want) > 1 {
						t.Errorf("trunk %d (%s): background %.0f, want %.0f", i, tb.Graph.Link(l).Name, got, want)
					}
				}
			}
		})
	}
	tb := mustBuild(t, Config{Oversub: 10, FatTreeK: 4})
	if len(tb.Trunks) != 0 {
		t.Fatalf("fat-tree names %d trunks", len(tb.Trunks))
	}
	for _, l := range tb.Graph.Links() {
		if bg := tb.Net.BackgroundOn(l.ID); bg != 0 {
			t.Fatalf("fat-tree link %s carries %.0f background", l.Name, bg)
		}
	}
}

// TestFlightRecorderWiredOnlyWhenEnabled: with recording off no plane holds
// a recorder (the typed-nil hazard: a nil *Recorder stored in a producer's
// Sink interface field would pass its nil check), the run completes, and
// turning recording on observes every plane without moving the result.
func TestFlightRecorderWiredOnlyWhenEnabled(t *testing.T) {
	run := func(flightOn bool) (*Testbed, float64) {
		tb := mustBuild(t, Config{
			Scheduler: Pythia, Oversub: 10, Seed: 3, ExplicitControlPlane: true,
			Pythia: core.Config{}.EnableAggregation(), Flight: flightOn,
		})
		job, err := tb.Cluster.Submit(workload.Sort(1*workload.GB, 4, 3))
		if err != nil {
			t.Fatal(err)
		}
		tb.Eng.Run()
		if !job.Done {
			t.Fatal("job did not complete")
		}
		return tb, float64(job.Duration())
	}
	off, offSec := run(false)
	if off.Flight != nil {
		t.Fatal("recorder built with Flight off")
	}
	if off.Mgmt == nil || off.Controller == nil || off.Pythia == nil || off.ECMP != nil || off.Hedera != nil {
		t.Fatalf("Pythia testbed parts: %+v", off)
	}
	on, onSec := run(true)
	if onSec != offSec {
		t.Fatalf("recording moved the result: %v vs %v", onSec, offSec)
	}
	planes := map[flight.Plane]bool{}
	for _, ev := range on.Flight.Events() {
		planes[ev.Plane] = true
	}
	for _, p := range []flight.Plane{flight.PlaneMonitor, flight.PlaneMgmt, flight.PlaneCollector, flight.PlaneControl, flight.PlaneFabric} {
		if !planes[p] {
			t.Errorf("no flight events from plane %v", p)
		}
	}
}

func TestUnknownSchedulerIsAnError(t *testing.T) {
	if _, err := Build(Config{Scheduler: Scheduler(9)}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if Scheduler(9).String() == "" || Hedera.String() != "Hedera" {
		t.Fatal("scheduler strings")
	}
}
