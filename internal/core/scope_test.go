package core

import (
	"testing"

	"pythia/internal/hadoop"
	"pythia/internal/topology"
)

// Tests for the §IV forwarding-state-conservation policy: rack-pair (POD)
// aggregation, where one prefix rule per rack pair steers inter-rack
// traffic instead of one rule set per server pair.

func TestScopeString(t *testing.T) {
	if ScopeHostPair.String() != "host-pair" || ScopeRackPair.String() != "rack-pair" {
		t.Fatal("scope strings")
	}
	if Scope(9).String() == "" {
		t.Fatal("unknown scope")
	}
}

func TestRackScopeCompletesJob(t *testing.T) {
	s := newStack(Config{Aggregate: true, Scope: ScopeRackPair}, hadoop.Config{})
	spec := uniformSpec(10, 4, 2, 20e6)
	j, _ := s.clus.Submit(spec)
	s.eng.Run()
	if !j.Done {
		t.Fatal("rack-scope job did not finish")
	}
	if s.py.IntentsReceived() != 10 {
		t.Fatalf("intents = %d", s.py.IntentsReceived())
	}
}

func TestRackScopeUsesFarFewerRules(t *testing.T) {
	run := func(scope Scope) uint64 {
		s := newStack(Config{Aggregate: true, Scope: scope}, hadoop.Config{})
		spec := uniformSpec(20, 8, 2, 20e6)
		j, _ := s.clus.Submit(spec)
		s.eng.Run()
		if !j.Done {
			t.Fatal("job did not finish")
		}
		return s.ofc.RulesInstalled
	}
	host := run(ScopeHostPair)
	rack := run(ScopeRackPair)
	if rack == 0 {
		t.Fatal("rack scope installed no rules")
	}
	// Two racks: at most 2 inter-rack pairs x 1 steering rule each
	// (re-placements may add a few); host scope has up to 2*5*5 pairs x 2
	// rules. Expect at least a 5x reduction.
	if rack*5 > host {
		t.Fatalf("rack scope rules %d not << host scope %d", rack, host)
	}
}

func TestRackScopeDeliversToCorrectHosts(t *testing.T) {
	// The steering rule matches whole racks; the final hop must still be
	// per-destination. Every completed flow's path must end at its own
	// destination host.
	s := newStack(Config{Aggregate: true, Scope: ScopeRackPair}, hadoop.Config{})
	spec := uniformSpec(12, 6, 2, 10e6)
	j, _ := s.clus.Submit(spec)
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	for _, f := range s.net.History() {
		if f.Path.Dst != f.Tuple.DstHost || f.Path.Src != f.Tuple.SrcHost {
			t.Fatalf("flow delivered to wrong endpoints: path %v tuple %v",
				f.Path, f.Tuple)
		}
		if err := f.Path.Valid(s.net.Graph()); err != nil && f.Path.Hops() > 0 {
			t.Fatalf("invalid delivered path: %v", err)
		}
	}
}

func TestRackScopeSteersAwayFromLoadedTrunk(t *testing.T) {
	s := newStack(Config{Aggregate: true, Scope: ScopeRackPair}, hadoop.Config{})
	s.net.SetBackground(s.trunks[0], 0.95*topology.Gbps)
	if rev, ok := s.net.Graph().Reverse(s.trunks[0]); ok {
		s.net.SetBackground(rev, 0.95*topology.Gbps)
	}
	spec := uniformSpec(10, 4, 3, 30e6)
	j, _ := s.clus.Submit(spec)
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	both := func(l topology.LinkID) float64 {
		bits := s.net.LinkBits(l)
		if r, ok := s.net.Graph().Reverse(l); ok {
			bits += s.net.LinkBits(r)
		}
		return bits
	}
	loaded, clean := both(s.trunks[0]), both(s.trunks[1])
	if clean == 0 {
		t.Fatal("no traffic on clean trunk")
	}
	if loaded > clean*0.25 {
		t.Fatalf("rack steering put %v bits on the hot trunk vs %v clean", loaded, clean)
	}
}

func TestRackScopeIntraRackNotBooked(t *testing.T) {
	s := newStack(Config{Aggregate: true, Scope: ScopeRackPair}, hadoop.Config{})
	spec := uniformSpec(10, 4, 2, 10e6)
	j, _ := s.clus.Submit(spec)
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	for _, a := range s.py.sortedAggregates() {
		if key := a.key; key.src == key.dst {
			t.Fatalf("intra-rack pair booked under rack scope: %v", key)
		}
	}
}

func TestRackScopePerformanceParity(t *testing.T) {
	// On the 2-rack testbed the steering decision is the whole decision,
	// so rack scope should perform close to host scope.
	run := func(scope Scope) float64 {
		s := newStack(Config{Aggregate: true, Scope: scope}, hadoop.Config{})
		s.net.SetBackground(s.trunks[0], 0.9*topology.Gbps)
		if rev, ok := s.net.Graph().Reverse(s.trunks[0]); ok {
			s.net.SetBackground(rev, 0.9*topology.Gbps)
		}
		spec := uniformSpec(16, 6, 2, 30e6)
		j, _ := s.clus.Submit(spec)
		s.eng.Run()
		return float64(j.Duration())
	}
	host, rack := run(ScopeHostPair), run(ScopeRackPair)
	// Rack scope cannot split one rack pair across both trunks, so on a
	// 2-rack testbed it may lose some bandwidth; allow 2x but not worse.
	if rack > host*2 {
		t.Fatalf("rack scope %.1fs far worse than host scope %.1fs", rack, host)
	}
}
