// Package netflow reproduces the measurement methodology of the paper's
// Fig. 5: NetFlow probes on every server plus a central collector, sampling
// the cumulative shuffle traffic each Hadoop server sources onto the network
// (the paper filtered on the tasktracker HTTP port and synchronized clocks
// to 100 ms). Comparing these measured curves against Pythia's predicted
// curves yields the prediction promptness (lead time) and accuracy
// (over-estimation factor) results.
package netflow

import (
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Point is one sample of a cumulative traffic curve.
type Point struct {
	T sim.Time
	// Bytes is cumulative wire bytes since collector start.
	Bytes float64
}

// Collector polls per-host TX counters at a fixed interval.
type Collector struct {
	eng      *sim.Engine
	net      *netsim.Network
	hosts    []topology.NodeID
	interval sim.Duration
	series   map[topology.NodeID][]Point
}

// DefaultInterval matches the paper's 100 ms clock-synchronization accuracy.
const DefaultInterval = 100 * sim.Millisecond

// NewCollector starts sampling the given hosts. interval ≤ 0 takes the
// default.
func NewCollector(eng *sim.Engine, net *netsim.Network, hosts []topology.NodeID, interval sim.Duration) *Collector {
	if interval <= 0 {
		interval = DefaultInterval
	}
	c := &Collector{
		eng:      eng,
		net:      net,
		hosts:    append([]topology.NodeID(nil), hosts...),
		interval: interval,
		series:   make(map[topology.NodeID][]Point),
	}
	c.sample()
	return c
}

func (c *Collector) sample() {
	now := c.eng.Now()
	for _, h := range c.hosts {
		bits := c.net.HostTxBits(h)
		c.series[h] = append(c.series[h], Point{T: now, Bytes: bits / 8})
	}
	c.eng.AfterDaemon(c.interval, c.sample)
}

// Series returns the sampled cumulative curve for a host.
func (c *Collector) Series(host topology.NodeID) []Point {
	return append([]Point(nil), c.series[host]...)
}

// FinalBytes returns the last measured cumulative value for a host.
func (c *Collector) FinalBytes(host topology.NodeID) float64 {
	s := c.series[host]
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].Bytes
}

// TimeToReach returns the first sampled time the host's cumulative curve
// reached the given byte count, or false if it never did. This is the
// primitive behind the Fig. 5 lead-time computation: for a volume level V,
// lead(V) = measuredTimeToReach(V) - predictedTimeToReach(V).
func (c *Collector) TimeToReach(host topology.NodeID, bytes float64) (sim.Time, bool) {
	for _, p := range c.series[host] {
		if p.Bytes >= bytes {
			return p.T, true
		}
	}
	return 0, false
}

// UtilizationSample is one link-load observation.
type UtilizationSample struct {
	T sim.Time
	// Utilization is the fraction of capacity in use (background +
	// flows).
	Utilization float64
	// ShuffleBps is the shuffle-flow portion of the load.
	ShuffleBps float64
}

// LinkProbe periodically samples the utilization of selected links —
// the measurement behind Fig. 1b's port-occupancy annotations, extended
// over time.
type LinkProbe struct {
	eng      *sim.Engine
	net      *netsim.Network
	links    []topology.LinkID
	interval sim.Duration
	series   map[topology.LinkID][]UtilizationSample
}

// NewLinkProbe starts sampling the given links. interval ≤ 0 takes the
// collector default (100 ms).
func NewLinkProbe(eng *sim.Engine, net *netsim.Network, links []topology.LinkID, interval sim.Duration) *LinkProbe {
	if interval <= 0 {
		interval = DefaultInterval
	}
	p := &LinkProbe{
		eng:      eng,
		net:      net,
		links:    append([]topology.LinkID(nil), links...),
		interval: interval,
		series:   make(map[topology.LinkID][]UtilizationSample),
	}
	p.sample()
	return p
}

func (p *LinkProbe) sample() {
	now := p.eng.Now()
	for _, l := range p.links {
		p.series[l] = append(p.series[l], UtilizationSample{
			T:           now,
			Utilization: p.net.Utilization(l),
			ShuffleBps:  p.net.ShuffleRateOn(l),
		})
	}
	p.eng.AfterDaemon(p.interval, p.sample)
}

// Series returns the samples for a link.
func (p *LinkProbe) Series(l topology.LinkID) []UtilizationSample {
	return append([]UtilizationSample(nil), p.series[l]...)
}

// MeanUtilization averages a link's sampled utilization.
func (p *LinkProbe) MeanUtilization(l topology.LinkID) float64 {
	s := p.series[l]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range s {
		sum += u.Utilization
	}
	return sum / float64(len(s))
}

// PeakShuffleBps returns the maximum sampled shuffle rate on a link.
func (p *LinkProbe) PeakShuffleBps(l topology.LinkID) float64 {
	peak := 0.0
	for _, u := range p.series[l] {
		if u.ShuffleBps > peak {
			peak = u.ShuffleBps
		}
	}
	return peak
}

// PredictionCurve is the collector-side cumulative predicted-bytes curve for
// one source host: each intent adds its predicted volume at its arrival
// time. bench wires a recording sink in front of Pythia to build these.
type PredictionCurve struct {
	points []Point
	total  float64
}

// Add appends predicted bytes at time t (times must be nondecreasing, as
// intents arrive in order).
func (p *PredictionCurve) Add(t sim.Time, bytes float64) {
	p.total += bytes
	p.points = append(p.points, Point{T: t, Bytes: p.total})
}

// Total returns the cumulative predicted volume.
func (p *PredictionCurve) Total() float64 { return p.total }

// Points returns the curve.
func (p *PredictionCurve) Points() []Point { return append([]Point(nil), p.points...) }

// TimeToReach returns when the predicted curve reached the byte level.
func (p *PredictionCurve) TimeToReach(bytes float64) (sim.Time, bool) {
	for _, pt := range p.points {
		if pt.Bytes >= bytes {
			return pt.T, true
		}
	}
	return 0, false
}

// LeadStats compares a prediction curve against the measured curve for one
// host at n evenly spaced volume levels, returning the minimum and mean lead
// (measured time minus predicted time; positive = prediction was early) and
// the final over-estimation ratio predicted/measured - 1.
func LeadStats(pred *PredictionCurve, coll *Collector, host topology.NodeID, n int) (minLead, meanLead sim.Duration, overestimate float64, ok bool) {
	measured := coll.FinalBytes(host)
	if measured <= 0 || pred.Total() <= 0 || n <= 0 {
		return 0, 0, 0, false
	}
	var sum float64
	count := 0
	min := sim.Duration(0)
	first := true
	for i := 1; i <= n; i++ {
		level := measured * float64(i) / float64(n+1)
		mt, ok1 := coll.TimeToReach(host, level)
		pt, ok2 := pred.TimeToReach(level)
		if !ok1 || !ok2 {
			continue
		}
		lead := mt.Sub(pt)
		if first || lead < min {
			min = lead
			first = false
		}
		sum += float64(lead)
		count++
	}
	if count == 0 {
		return 0, 0, 0, false
	}
	return min, sim.Duration(sum / float64(count)), pred.Total()/measured - 1, true
}
