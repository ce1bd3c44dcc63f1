// Package testbed assembles the simulated Pythia deployment: event engine →
// fabric → background traffic → flight recorder → management network →
// scheduler → Hadoop → instrumentation middleware. The pythia facade and
// every runner in internal/bench translate their own option types into a
// Config and call Build, so schedulers are always compared on one shared
// data-centre model.
package testbed

import (
	"fmt"

	"pythia/internal/core"
	"pythia/internal/ecmp"
	"pythia/internal/flight"
	"pythia/internal/hadoop"
	"pythia/internal/hedera"
	"pythia/internal/instrument"
	"pythia/internal/mgmtnet"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Scheduler selects the shuffle flow-allocation scheme.
type Scheduler int

const (
	// ECMP is the paper's baseline: five-tuple hash modulo the number of
	// equal-cost paths.
	ECMP Scheduler = iota
	// Pythia is the predictive scheme under evaluation.
	Pythia
	// Hedera is the reactive load-aware intermediate point (§II/§VI).
	Hedera
)

func (s Scheduler) String() string {
	switch s {
	case ECMP:
		return "ECMP"
	case Pythia:
		return "Pythia"
	case Hedera:
		return "Hedera"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// Config describes one deployment. Zero values take the paper's testbed:
// two racks of five hosts joined by two 1 Gbps trunks, no background load.
type Config struct {
	Scheduler Scheduler
	// Seed salts the ECMP hash.
	Seed uint64
	// K is Pythia's and Hedera's candidate count (default 4): the first K
	// equal-cost paths of a pair. ECMP and table misses are the forwarding
	// walk over every equal-cost next hop and ignore it.
	K int

	// Fabric shape. Spines > 0 builds a leaf-spine with Leaves racks
	// (default 4); FatTreeK > 0 builds a k-ary fat-tree with HostsPerRack
	// hosts per edge switch (default k/2); otherwise two racks joined by
	// Trunks parallel cables.
	HostsPerRack int
	Trunks       int
	Leaves       int
	Spines       int
	FatTreeK     int
	LinkBps      float64
	// Oversub N loads the trunks with CBR background so each rack's usable
	// uplink bandwidth is HostsPerRack×LinkBps/N; 0 leaves them idle.
	Oversub int

	Hadoop hadoop.Config
	// Pythia configures the collector; its K is overwritten with K above.
	Pythia core.Config
	// Instrument tunes the middleware; Build fills its Flight and Mgmt.
	Instrument instrument.Config
	// InstallLatency overrides the per-rule programming latency of the
	// Pythia controller and of Hedera's moves when positive.
	InstallLatency sim.Duration
	// ControlFaults, when non-nil, is the Pythia controller's fault model.
	ControlFaults *openflow.FaultConfig
	// ExplicitControlPlane carries intents and FLOW_MODs over a modeled
	// management network; MgmtFaults (which implies it) faults that network.
	ExplicitControlPlane bool
	MgmtFaults           *mgmtnet.FaultConfig

	// Flight attaches the cross-plane flight recorder.
	Flight bool

	// WrapSink, when non-nil, wraps the intent sink the middleware reports
	// to (the collector, or a null sink under ECMP/Hedera) — the hook
	// callers use to observe the prediction stream.
	WrapSink func(instrument.Sink) instrument.Sink
}

// Testbed is the wired deployment. Parts the configuration did not ask for
// are nil.
type Testbed struct {
	Eng        *sim.Engine
	Net        *netsim.Network
	Graph      *topology.Graph
	Hosts      []topology.NodeID
	Trunks     []topology.LinkID
	Cluster    *hadoop.Cluster
	Middleware *instrument.Middleware
	Mgmt       *mgmtnet.Network
	Controller *openflow.Controller
	Pythia     *core.Pythia
	ECMP       *ecmp.Allocator // plain-ECMP scheduler only
	Hedera     *hedera.Scheduler
	Flight     *flight.Recorder
}

// Defaults fills unset fields with the paper's testbed shape.
func (c Config) Defaults() Config {
	if c.HostsPerRack == 0 {
		c.HostsPerRack = 5
		if c.FatTreeK > 0 {
			c.HostsPerRack = c.FatTreeK / 2
		}
	}
	if c.Trunks == 0 {
		c.Trunks = 2
	}
	if c.Leaves == 0 {
		c.Leaves = 4
	}
	if c.LinkBps == 0 {
		c.LinkBps = topology.Gbps
	}
	if c.K == 0 {
		c.K = 4
	}
	c.Pythia.K = c.K
	return c
}

// fabric builds the graph and names the trunks background traffic loads.
func (c Config) fabric() (*topology.Graph, []topology.NodeID, []topology.LinkID) {
	switch {
	case c.FatTreeK > 0:
		// Oversubscription comes from the tree's own arity, not injected
		// background, so there are no trunks.
		g, hosts := topology.FatTree(c.FatTreeK, c.HostsPerRack, c.LinkBps)
		return g, hosts, nil
	case c.Spines > 0:
		g, hosts := topology.LeafSpine(c.Leaves, c.Spines, c.HostsPerRack, c.LinkBps)
		// The contended links are the leaf→spine uplinks.
		var trunks []topology.LinkID
		for _, l := range g.Links() {
			from, to := g.Node(l.From), g.Node(l.To)
			if from.Kind == topology.Switch && to.Kind == topology.Switch && from.Rack >= 0 && to.Rack < 0 {
				trunks = append(trunks, l.ID)
			}
		}
		return g, hosts, trunks
	}
	return topology.TwoRack(c.HostsPerRack, c.Trunks, c.LinkBps)
}

// nullSink drops the prediction stream (ECMP/Hedera runs still pay the
// instrumentation cost, but nothing consumes the intents).
type nullSink struct{}

func (nullSink) ShuffleIntent(instrument.Intent) {}
func (nullSink) ReducerUp(instrument.ReducerUp)  {}

// Build wires the deployment. The only error is an unknown scheduler.
func Build(cfg Config) (*Testbed, error) {
	cfg = cfg.Defaults()
	eng := sim.NewEngine()
	g, hosts, trunks := cfg.fabric()
	net := netsim.New(eng, g)
	loadTrunks(net, trunks, cfg)
	tb := &Testbed{Eng: eng, Net: net, Graph: g, Hosts: hosts, Trunks: trunks}

	icfg := cfg.Instrument
	if cfg.Flight {
		// Every producer's recorder field is an interface left nil when
		// recording is off: a typed-nil *Recorder stored there would defeat
		// the producers' nil checks, so wire each plane only when enabled.
		tb.Flight = flight.NewRecorder(eng)
		net.SetFlightRecorder(tb.Flight)
		icfg.Flight = tb.Flight
	}
	if cfg.ExplicitControlPlane || cfg.MgmtFaults != nil {
		tb.Mgmt = mgmtnet.New(eng, mgmtnet.Config{})
		icfg.Mgmt = tb.Mgmt
		if tb.Flight != nil {
			tb.Mgmt.SetFlightRecorder(tb.Flight)
		}
		if cfg.MgmtFaults != nil {
			tb.Mgmt.SetFaults(*cfg.MgmtFaults)
		}
	}

	var resolver hadoop.PathResolver
	var sink instrument.Sink = nullSink{}
	switch cfg.Scheduler {
	case ECMP:
		tb.ECMP = ecmp.New(g, cfg.Seed)
		// Fault plane: re-hash in-flight shuffle flows off dead paths.
		tb.ECMP.AttachNetwork(net)
		resolver = tb.ECMP
	case Pythia:
		ofc := openflow.NewController(eng, net, 0)
		if cfg.InstallLatency > 0 {
			ofc.InstallLatency = cfg.InstallLatency
		}
		if tb.Mgmt != nil {
			ofc.SetManagementNetwork(tb.Mgmt, topology.NodeID(-1))
		}
		if cfg.ControlFaults != nil {
			ofc.SetFaults(*cfg.ControlFaults)
		}
		tb.Controller = ofc
		tb.Pythia = core.New(eng, net, ofc, cfg.Pythia)
		if tb.Flight != nil {
			ofc.SetFlightRecorder(tb.Flight)
			tb.Pythia.SetFlightRecorder(tb.Flight)
		}
		resolver = ofc
		sink = tb.Pythia
	case Hedera:
		tb.Hedera = hedera.New(eng, net, cfg.Seed, hedera.Config{K: cfg.K, InstallLatency: cfg.InstallLatency})
		resolver = tb.Hedera
	default:
		return nil, fmt.Errorf("testbed: unknown scheduler %v", cfg.Scheduler)
	}
	if cfg.WrapSink != nil {
		sink = cfg.WrapSink(sink)
	}

	tb.Cluster = hadoop.NewCluster(eng, net, hosts, resolver, cfg.Hadoop)
	tb.Middleware = instrument.Attach(eng, tb.Cluster, sink, icfg)
	return tb, nil
}

// loadTrunks applies the oversubscription level the way the paper did: CBR
// background streams on the trunks. Trunks are grouped by their upstream
// switch (one group on the two-rack testbed, one per leaf on a leaf-spine);
// each group's spare bandwidth — hostAggregate/N — is split unevenly across
// its members so that path choice matters (Fig. 1b shows 95% vs 25%
// occupancy).
func loadTrunks(net *netsim.Network, trunks []topology.LinkID, cfg Config) {
	if cfg.Oversub <= 0 {
		return
	}
	g := net.Graph()
	groups := make(map[topology.NodeID][]topology.LinkID)
	var order []topology.NodeID
	for _, tr := range trunks {
		from := g.Link(tr).From
		if _, seen := groups[from]; !seen {
			order = append(order, from)
		}
		groups[from] = append(groups[from], tr)
	}
	for _, from := range order {
		members := groups[from]
		spareTotal := float64(cfg.HostsPerRack) * cfg.LinkBps / float64(cfg.Oversub)
		if max := float64(len(members)) * cfg.LinkBps; spareTotal > max {
			spareTotal = max
		}
		fracs := spareFractions(len(members))
		for i, tr := range members {
			spare := spareTotal * fracs[i]
			if spare > cfg.LinkBps {
				spare = cfg.LinkBps
			}
			load := cfg.LinkBps - spare
			net.SetBackground(tr, load)
			if r, ok := g.Reverse(tr); ok {
				net.SetBackground(r, load)
			}
		}
	}
}

// spareFractions divides a group's spare bandwidth across n trunks in
// proportion 1:2:…:n; for the paper's two trunks it is the calibrated
// Fig. 1b-style 30/70 imbalance that bounds the fully-network-bound
// ECMP-vs-optimal gap near the paper's 43–46% maxima.
func spareFractions(n int) []float64 {
	if n == 2 {
		return []float64{0.30, 0.70}
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = float64(i + 1)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
