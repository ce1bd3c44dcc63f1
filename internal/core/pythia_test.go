package core

import (
	"math"
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/hadoop"
	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

// stack is a fully wired testbed: network, SDN controller, Pythia, Hadoop.
type stack struct {
	eng    *sim.Engine
	net    *netsim.Network
	ofc    *openflow.Controller
	py     *Pythia
	clus   *hadoop.Cluster
	mw     *instrument.Middleware
	hosts  []topology.NodeID
	trunks []topology.LinkID
}

func newStack(cfg Config, hcfg hadoop.Config) *stack {
	eng := sim.NewEngine()
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	py := New(eng, net, ofc, cfg)
	clus := hadoop.NewCluster(eng, net, hosts, ofc, hcfg)
	mw := instrument.Attach(eng, clus, py, instrument.Config{})
	return &stack{eng: eng, net: net, ofc: ofc, py: py, clus: clus, mw: mw, hosts: hosts, trunks: trunks}
}

// ecmpRun runs the same job under plain ECMP for comparison.
func ecmpRun(spec *hadoop.JobSpec, bg func(*netsim.Network, []topology.LinkID), hcfg hadoop.Config, seed uint64) sim.Duration {
	eng := sim.NewEngine()
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	if bg != nil {
		bg(net, trunks)
	}
	clus := hadoop.NewCluster(eng, net, hosts, ecmp.New(g, seed), hcfg)
	j, err := clus.Submit(spec)
	if err != nil {
		panic(err)
	}
	eng.Run()
	if !j.Done {
		panic("ecmp job did not finish")
	}
	return j.Duration()
}

func uniformSpec(maps, reduces int, mapSec, bytesPer float64) *hadoop.JobSpec {
	d := make([]float64, maps)
	o := make([][]float64, maps)
	for m := range d {
		d[m] = mapSec
		row := make([]float64, reduces)
		for r := range row {
			row[r] = bytesPer
		}
		o[m] = row
	}
	return &hadoop.JobSpec{Name: "u", NumMaps: maps, NumReduces: reduces,
		MapDurations: d, MapOutputs: o, ReduceSecPerMB: 0.001}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.K != 4 || c.RulePriority != 100 {
		t.Fatalf("defaults: %+v", c)
	}
	if !(Config{}).EnableAggregation().Aggregate {
		t.Fatal("EnableAggregation did not set flag")
	}
}

func TestIntentsReceivedAndResolved(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	spec := uniformSpec(8, 2, 2, 5e6)
	s.clus.Submit(spec)
	s.eng.Run()
	if s.py.IntentsReceived() != 8 {
		t.Fatalf("intents = %d, want 8", s.py.IntentsReceived())
	}
	if s.py.PendingUnknownDestinations() != 0 {
		t.Fatalf("pending = %d after job end", s.py.PendingUnknownDestinations())
	}
	if s.py.OutstandingDemandBits() != 0 {
		t.Fatalf("outstanding demand = %v after job end", s.py.OutstandingDemandBits())
	}
}

func TestEarlyIntentsDeferredUntilReducersUp(t *testing.T) {
	// With a high slow-start, many maps finish (and predict) before any
	// reducer exists: their intents must be deferred, then back-filled.
	s := newStack(Config{Aggregate: true}, hadoop.Config{SlowstartFraction: 0.9})
	spec := uniformSpec(10, 2, 2, 5e6)
	// Stagger map finishes so early intents land while no reducer exists.
	for m := range spec.MapDurations {
		spec.MapDurations[m] = float64(m + 1)
	}
	s.clus.Submit(spec)
	s.eng.Run()
	if s.py.IntentsDeferred() == 0 {
		t.Fatal("no intents were deferred despite 90% slow-start")
	}
	if s.py.PendingUnknownDestinations() != 0 {
		t.Fatal("deferred intents never resolved")
	}
}

func TestRulesInstalledAndReleased(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	spec := uniformSpec(8, 2, 2, 20e6)
	s.clus.Submit(spec)
	s.eng.Run()
	if s.ofc.RulesInstalled == 0 {
		t.Fatal("Pythia installed no rules")
	}
	// After the job drains, tables must be empty again.
	for _, sw := range []topology.NodeID{0, 1} {
		if n := s.ofc.Switch(sw).RuleCount(); n != 0 {
			t.Fatalf("switch %d still holds %d rules after drain", sw, n)
		}
	}
}

func TestShuffleFlowsFollowInstalledRules(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	// Load trunk0 so Pythia must steer inter-rack shuffle to trunk1.
	s.net.SetBackground(s.trunks[0], 0.95*topology.Gbps)
	if rev, ok := s.net.Graph().Reverse(s.trunks[0]); ok {
		s.net.SetBackground(rev, 0.95*topology.Gbps)
	}
	spec := uniformSpec(10, 4, 3, 30e6)
	s.clus.Submit(spec)
	s.eng.Run()
	// Count inter-rack shuffle bits per trunk (both directions: reducers
	// may all sit in one rack): the loaded trunk should carry (almost)
	// none of them.
	both := func(l topology.LinkID) float64 {
		bits := s.net.LinkBits(l)
		if r, ok := s.net.Graph().Reverse(l); ok {
			bits += s.net.LinkBits(r)
		}
		return bits
	}
	loaded := both(s.trunks[0])
	clean := both(s.trunks[1])
	if clean == 0 {
		t.Fatal("no shuffle crossed the clean trunk")
	}
	if loaded > clean*0.2 {
		t.Fatalf("Pythia put %v bits on the 95%%-loaded trunk vs %v on the clean one", loaded, clean)
	}
}

func TestPythiaBeatsECMPUnderAsymmetricLoad(t *testing.T) {
	// The headline claim at high oversubscription: an asymmetric
	// background load makes ECMP collide elephants onto the hot trunk,
	// while Pythia books them onto spare capacity.
	bg := func(net *netsim.Network, trunks []topology.LinkID) {
		g := net.Graph()
		// trunk0 95% loaded both directions; trunk1 30%.
		loads := []float64{0.95, 0.30}
		for i, tr := range trunks {
			net.SetBackground(tr, loads[i]*topology.Gbps)
			if r, ok := g.Reverse(tr); ok {
				net.SetBackground(r, loads[i]*topology.Gbps)
			}
		}
	}
	spec := workload.Sort(4*workload.GB, 8, 42)

	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	bg(s.net, s.trunks)
	j, err := s.clus.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.eng.Run()
	if !j.Done {
		t.Fatal("pythia job did not finish")
	}
	pythiaTime := float64(j.Duration())

	ecmpTime := float64(ecmpRun(workload.Sort(4*workload.GB, 8, 42), bg, hadoop.Config{}, 1))

	if pythiaTime >= ecmpTime {
		t.Fatalf("Pythia (%.1fs) not faster than ECMP (%.1fs)", pythiaTime, ecmpTime)
	}
	speedup := (ecmpTime - pythiaTime) / pythiaTime
	if speedup < 0.05 {
		t.Fatalf("speedup only %.1f%% under heavy asymmetric load", speedup*100)
	}
	t.Logf("pythia=%.1fs ecmp=%.1fs speedup=%.1f%%", pythiaTime, ecmpTime, speedup*100)
}

func TestAggregationReducesPlacements(t *testing.T) {
	specGen := func() *hadoop.JobSpec { return uniformSpec(12, 4, 2, 10e6) }

	on := newStack(Config{Aggregate: true}, hadoop.Config{})
	on.clus.Submit(specGen())
	on.eng.Run()

	off := newStack(Config{Aggregate: false}, hadoop.Config{})
	watchWorklist(t, off) // every booking revokes its pair's placement
	off.clus.Submit(specGen())
	off.eng.Run()

	// Without aggregation every intent triggers its own allocation decision;
	// decisions that land on the pair's unchanged path count as
	// re-affirmations, changed paths as placements. Either way the A2
	// ablation must decide strictly more often than the aggregated run.
	onDecisions := on.py.AggregatesPlaced + on.py.Reaffirmations
	offDecisions := off.py.AggregatesPlaced + off.py.Reaffirmations
	if offDecisions <= onDecisions {
		t.Fatalf("aggregation off decided %d (placed %d + reaffirmed %d) <= on %d (placed %d + reaffirmed %d)",
			offDecisions, off.py.AggregatesPlaced, off.py.Reaffirmations,
			onDecisions, on.py.AggregatesPlaced, on.py.Reaffirmations)
	}
}

func TestTopologyChangeReallocates(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	spec := uniformSpec(10, 4, 5, 80e6)
	j, _ := s.clus.Submit(spec)
	// Fail trunk0 mid-job (after predictions have been placed).
	s.eng.At(8, func() {
		setLinkUp(s.net, s.trunks[0], false)
		if r, ok := s.net.Graph().Reverse(s.trunks[0]); ok {
			s.net.Graph().SetLinkUp(r, false)
		}
	})
	s.eng.Run()
	if !j.Done {
		t.Fatal("job did not survive link failure")
	}
	// Everything must have crossed trunk1 after the failure; the job
	// completing at all (plus valid paths) is the real assertion, since
	// resolution would panic on an invalid path.
}

func TestLocalFetchesNeverBooked(t *testing.T) {
	// Single-rack cluster: with both endpoints always in rack 0 but on
	// different hosts, aggregates exist; same-host pairs must not.
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	spec := uniformSpec(6, 2, 1, 1e6)
	s.clus.Submit(spec)
	s.eng.Run()
	for _, a := range s.py.sortedAggregates() {
		if key := a.key; key.src == key.dst {
			t.Fatal("same-host pair was booked")
		}
	}
}

func TestOverheadReportAfterRun(t *testing.T) {
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	js := uniformSpec(20, 4, 10, 5e6)
	s.clus.Submit(js)
	s.eng.Run()
	rep := s.mw.Overhead()
	if rep.Spills != 20 {
		t.Fatalf("spills = %d", rep.Spills)
	}
	if rep.MeanCPUFraction <= 0 || rep.MeanCPUFraction > 0.10 {
		t.Fatalf("CPU fraction = %v", rep.MeanCPUFraction)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Duration {
		s := newStack(Config{Aggregate: true}, hadoop.Config{})
		s.net.SetBackground(s.trunks[0], 0.8*topology.Gbps)
		j, _ := s.clus.Submit(workload.Nutch(1*workload.GB, 6, 3))
		s.eng.Run()
		return j.Duration()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("end-to-end nondeterminism: %v vs %v", a, b)
	}
}

func TestPredictionLeadIsPositive(t *testing.T) {
	// Intents must reach Pythia before the corresponding flows start:
	// measure min(flow start - intent arrival) per (job,map,reduce).
	s := newStack(Config{Aggregate: true}, hadoop.Config{})
	spec := uniformSpec(10, 4, 3, 10e6)
	j, _ := s.clus.Submit(spec)
	s.eng.Run()
	// Intent arrival is map finish plus the exact instrumentation latency
	// (20ms FS notify + 5ms decode base + 0.2ms/partition + 1ms management
	// hop), padded slightly.
	lat := sim.Duration(0.020 + 0.005 + 0.0002*float64(spec.NumReduces) + 0.001 + 0.002)
	minLead := math.Inf(1)
	for _, f := range s.net.History() {
		if len(f.Path.Links) == 0 {
			continue
		}
		if lead := float64(f.Started().Sub(j.Maps[f.Map].Finished.Add(lat))); lead < minLead {
			minLead = lead
		}
	}
	if minLead == math.Inf(1) {
		t.Fatal("no remote fetches observed")
	}
	if minLead <= 0 {
		t.Fatalf("prediction lead = %v, want positive", minLead)
	}
	t.Logf("min prediction lead: %.2fs", minLead)
}

func BenchmarkPythiaEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newStack(Config{Aggregate: true}, hadoop.Config{})
		s.net.SetBackground(s.trunks[0], 0.9*topology.Gbps)
		j, _ := s.clus.Submit(workload.Sort(2*workload.GB, 8, uint64(i)))
		s.eng.Run()
		if !j.Done {
			b.Fatal("job not done")
		}
	}
}
