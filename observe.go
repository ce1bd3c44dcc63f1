package pythia

import (
	"pythia/internal/flight"
	"pythia/internal/netflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
	"pythia/internal/trace"
)

// Observability options and fabric introspection: pure observers plus
// enough surface to target faults and read link-level telemetry without
// importing internal packages — see the package doc's "Configuring a
// cluster" index.

// WithFlightRecorder attaches the cross-plane flight recorder: every
// prediction's lifecycle (spill → intent → booking → placement → rule
// install → fabric flow) leaves timestamped events retrievable with
// FlightJSONL, FlightSummary, PredictionQuality, PrometheusSnapshot and
// MergedChromeTrace. The recorder is a pure observer — enabling it never
// changes simulation results — and a seeded run's JSONL export is
// byte-identical across runs.
func WithFlightRecorder() Option { return func(c *config) { c.flight = true } }

// Trunks returns the fail-candidate cables of the fabric (forward-direction
// link IDs): the designated inter-rack trunks on the two-rack shape, or
// every switch-to-switch cable on other topologies, in ID order.
func (c *Cluster) Trunks() []LinkID {
	if len(c.trunks) > 0 {
		return append([]LinkID(nil), c.trunks...)
	}
	var out []LinkID
	for _, l := range c.g.Links() {
		if c.g.Node(l.From).Kind != topology.Switch || c.g.Node(l.To).Kind != topology.Switch {
			continue
		}
		// One entry per duplex cable: keep the lower-ID direction.
		if r, ok := c.g.Reverse(l.ID); ok && r < l.ID {
			continue
		}
		out = append(out, l.ID)
	}
	return out
}

// Switches lists the fabric's switches in ID order — the valid targets for
// FailSwitch.
func (c *Cluster) Switches() []SwitchInfo {
	var out []SwitchInfo
	for _, id := range c.g.Switches() {
		n := c.g.Node(id)
		out = append(out, SwitchInfo{ID: id, Name: n.Name, Rack: n.Rack})
	}
	return out
}

// LinkName returns the cable's human-readable name.
func (c *Cluster) LinkName(l LinkID) string { return c.g.Link(l).Name }

// SwitchName returns the switch's human-readable name.
func (c *Cluster) SwitchName(s SwitchID) string { return c.g.Node(s).Name }

// LinkCarriedGB reports the data gigabytes a cable carried so far, summing
// both directions and excluding background traffic.
func (c *Cluster) LinkCarriedGB(l LinkID) float64 {
	bits := c.net.LinkBits(l)
	if r, ok := c.g.Reverse(l); ok {
		bits += c.net.LinkBits(r)
	}
	return bits / 8 / 1e9
}

// ProbeSample is one link-load observation.
type ProbeSample struct {
	// TSec is the sample time in simulated seconds.
	TSec float64
	// Utilization is the fraction of capacity in use (background + flows).
	Utilization float64
	// ShuffleBps is the shuffle-flow portion of the load in bits/s.
	ShuffleBps float64
}

// Probe samples selected links periodically (NetFlow-style telemetry).
type Probe struct {
	p *netflow.LinkProbe
	g *topology.Graph
}

// Probe starts sampling the given cables (both directions of each) every
// periodSec simulated seconds. Start probes before RunJobs.
func (c *Cluster) Probe(periodSec float64, links ...LinkID) *Probe {
	var ls []topology.LinkID
	for _, l := range links {
		ls = append(ls, l)
		if r, ok := c.g.Reverse(l); ok {
			ls = append(ls, r)
		}
	}
	return &Probe{p: netflow.NewLinkProbe(c.eng, c.net, ls, sim.Duration(periodSec)), g: c.g}
}

// Series returns the samples recorded for one direction of a cable (pass
// the ID given to Probe for the forward direction).
func (p *Probe) Series(l LinkID) []ProbeSample {
	var out []ProbeSample
	for _, s := range p.p.Series(l) {
		out = append(out, ProbeSample{TSec: float64(s.T), Utilization: s.Utilization, ShuffleBps: s.ShuffleBps})
	}
	return out
}

// MeanUtilization averages a link's sampled utilization.
func (p *Probe) MeanUtilization(l LinkID) float64 { return p.p.MeanUtilization(l) }

// PeakShuffleBps returns the largest sampled shuffle rate on a link.
func (p *Probe) PeakShuffleBps(l LinkID) float64 { return p.p.PeakShuffleBps(l) }

// Flight recorder surface (requires WithFlightRecorder; all accessors return
// zero values without it).

// PredictionQuality scores how well the prediction plane raced the shuffle:
// lead time percentiles, late fraction, and predicted-vs-actual byte error.
type PredictionQuality = flight.Quality

// FlightJSONL serializes the flight-recorder log as JSON Lines, one event
// per line in simulation order. For a fixed seed the output is
// byte-identical across runs. Nil without WithFlightRecorder.
func (c *Cluster) FlightJSONL() []byte {
	if c.fr == nil {
		return nil
	}
	return c.fr.JSONL()
}

// FlightEventCount reports how many flight events were recorded.
func (c *Cluster) FlightEventCount() int { return c.fr.Len() }

// FlightSummary renders a per-job digest of the flight log: event volumes,
// per-plane latencies, and the critical path of each job's worst aggregate.
func (c *Cluster) FlightSummary() string {
	if c.fr == nil {
		return ""
	}
	return flight.Summarize(c.fr.Events())
}

// PredictionQuality computes lead-time and byte-error scores from the
// flight log.
func (c *Cluster) PredictionQuality() PredictionQuality {
	if c.fr == nil {
		return PredictionQuality{}
	}
	return flight.ComputeQuality(c.fr.Events())
}

// PrometheusSnapshot renders the flight log's derived metrics — per-kind
// event counters, per-plane latency histograms, lead-time histogram, late
// fraction, byte error — in Prometheus text exposition format. Deterministic
// for a fixed seed.
func (c *Cluster) PrometheusSnapshot() string {
	if c.fr == nil {
		return ""
	}
	return flight.BuildMetrics(c.fr.Events()).PrometheusText()
}

// MergedChromeTrace exports one Chrome/Perfetto trace combining the first
// submitted job's task spans and fetch lanes (once it has finished) with
// control-plane lanes from the flight recorder (requires
// WithFlightRecorder). Either half may be absent; with neither the result
// is nil.
func (c *Cluster) MergedChromeTrace() ([]byte, error) {
	seq := c.sequence()
	if seq == nil && c.fr == nil {
		return nil, nil
	}
	return trace.MergedChrome(seq, c.fr.Events())
}
