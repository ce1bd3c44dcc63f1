package openflow

import (
	"pythia/internal/ecmp"
	"pythia/internal/flight"
	"pythia/internal/mgmtnet"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// DefaultInstallLatency is the per-rule programming latency. The paper
// reports contemporary hardware allows ~3–5 ms per installed flow; we default
// to the middle of that band.
const DefaultInstallLatency = 4 * sim.Millisecond

// DefaultPollInterval is the link-load update service period.
const DefaultPollInterval = 1 * sim.Second

// Control-message sizes, the bytes the management network serializes per
// transmission. flowModBytes is an OpenFlow 1.0 ofp_flow_mod with one output
// action: 8 B header, 40 B match, 24 B body, one 8 B action. echoBytes is a
// header-only ECHO_REQUEST.
const (
	flowModBytes = 80
	echoBytes    = 8
)

// Controller is the centralized SDN control plane: it owns a Switch per
// topology switch node, serializes rule installation with per-rule latency,
// publishes periodic link-load statistics, and notifies listeners of
// topology changes (OpenDaylight's topology update service in the paper).
type Controller struct {
	eng *sim.Engine
	g   *topology.Graph
	net *netsim.Network

	switches map[topology.NodeID]*Switch

	// InstallLatency is the control-plane programming cost per rule.
	InstallLatency sim.Duration

	// Built-in pipeline (see channel): when its server is next free, and the
	// burst whose slots are being handed out.
	queueBusyUntil sim.Time
	burstStart     sim.Time
	burstLen       int

	linkLoad map[topology.LinkID]LoadSample
	topoLs   []func()
	lastVer  uint64

	// hops is Resolve's reusable next-hop buffer.
	hops []topology.LinkID

	// RulesInstalled counts successful installs, for overhead reporting.
	RulesInstalled uint64
	// FlowModsSent counts OpenFlow FLOW_MOD messages put on the wire.
	FlowModsSent uint64

	// mgmt, when set, carries control messages with per-sender
	// serialization instead of the fixed install pipeline delay.
	mgmt     *mgmtnet.Network
	ctrlNode topology.NodeID

	// Control-plane fault model (see faults.go).
	faults   FaultConfig
	ctrlDown bool
	txSeq    uint64
	ctrlUpLs []func()
	// Retransmissions counts timed-out FLOW_MODs that were re-sent,
	// DroppedFlowMods the transmissions lost to injected faults or
	// controller outage, and InstallFailures the rules abandoned after the
	// retry budget ran out.
	Retransmissions uint64
	DroppedFlowMods uint64
	InstallFailures uint64

	// fl, when non-nil, receives control-plane flight events. Kept nil when
	// recording is disabled so the hot path stays allocation-free.
	fl flight.Sink
}

// LoadSample is one link's state as of the last poll.
type LoadSample struct {
	Utilization  float64
	AvailableBps float64
	// ShuffleBps is the portion of the load due to shuffle flows, which
	// application-aware consumers (Pythia) can subtract to estimate
	// background traffic.
	ShuffleBps float64
}

// NewController builds a controller over every switch in the graph and
// starts the link-load poller.
func NewController(eng *sim.Engine, net *netsim.Network, tableCapacity int) *Controller {
	g := net.Graph()
	c := &Controller{
		eng:            eng,
		g:              g,
		net:            net,
		switches:       make(map[topology.NodeID]*Switch),
		InstallLatency: DefaultInstallLatency,
		linkLoad:       make(map[topology.LinkID]LoadSample),
		lastVer:        g.Version(),
	}
	rackOf := func(n topology.NodeID) int { return g.Node(n).Rack }
	for _, s := range g.Switches() {
		sw := NewSwitch(s, tableCapacity)
		sw.SetRackResolver(rackOf)
		c.switches[s] = sw
	}
	// Fault-plane events (netsim.FailLink/FailSwitch and recoveries) reach
	// the controller immediately — they model the switch's asynchronous
	// PORT_STATUS notification — while raw graph mutations are still only
	// seen at poll granularity, like LLDP-driven discovery. Updating
	// lastVer here keeps the next poll from double-firing the listeners.
	net.SubscribeTopology(func(netsim.TopoEvent) {
		if v := c.g.Version(); v != c.lastVer {
			c.lastVer = v
			for _, fn := range c.topoLs {
				fn()
			}
		}
	})
	c.poll()
	return c
}

// SetManagementNetwork routes FLOW_MOD messages over an explicit management
// fabric (per-sender FIFO serialization + transmission time) before the
// per-rule switch programming latency, instead of the built-in serialized
// pipeline. ctrlNode identifies the controller's management port.
func (c *Controller) SetManagementNetwork(mn *mgmtnet.Network, ctrlNode topology.NodeID) {
	c.mgmt = mn
	c.ctrlNode = ctrlNode
}

// SetFlightRecorder installs a flight-event sink. Pass a non-nil sink only;
// leave the field nil to disable recording.
func (c *Controller) SetFlightRecorder(s flight.Sink) { c.fl = s }

// matchEndpoints maps a rule match to flight-event endpoints: concrete
// hosts when present, rack numbers encoded as NodeIDs otherwise (mirroring
// the collector's rack-scope aggregate keys).
func matchEndpoints(m Match) (src, dst topology.NodeID) {
	src, dst = -1, -1
	switch {
	case m.SrcHost != Wildcard:
		src = m.SrcHost
	case m.SrcRack != Wildcard:
		src = topology.NodeID(m.SrcRack)
	}
	switch {
	case m.DstHost != Wildcard:
		dst = m.DstHost
	case m.DstRack != Wildcard:
		dst = topology.NodeID(m.DstRack)
	}
	return src, dst
}

// Switch returns the flow-table model for a switch node; nil for hosts or
// unknown nodes.
func (c *Controller) Switch(n topology.NodeID) *Switch { return c.switches[n] }

func (c *Controller) poll() {
	// One pass over each link's occupancy-index entry yields all three
	// quantities, so a poll costs O(links + flows-on-links) instead of the
	// pre-index O(links × active flows).
	for _, l := range c.g.Links() {
		u, avail, shuffle := c.net.LinkStats(l.ID)
		c.linkLoad[l.ID] = LoadSample{
			Utilization:  u,
			AvailableBps: avail,
			ShuffleBps:   shuffle,
		}
	}
	if c.g.Version() != c.lastVer {
		c.lastVer = c.g.Version()
		for _, fn := range c.topoLs {
			fn()
		}
	}
	// Daemon: the recurring poll must not keep the simulation alive after
	// the workload drains.
	c.eng.AfterDaemon(DefaultPollInterval, c.poll)
}

// LinkLoad returns the last polled sample for a link. The staleness is
// inherent to stats-polling control planes and is what reactive schemes
// like Hedera pay that predictive Pythia does not.
func (c *Controller) LinkLoad(l topology.LinkID) LoadSample { return c.linkLoad[l] }

// OnTopologyChange registers a callback run when the topology version
// changes (detected at poll granularity).
func (c *Controller) OnTopologyChange(fn func()) { c.topoLs = append(c.topoLs, fn) }

// InstallPath programs one rule per switch along the path so that traffic
// matching m follows exactly that path. Rules appear in the switch tables
// asynchronously — one FLOW_MOD each over the controller's channel — and done
// (may be nil) fires once every rule has landed or been given up on, with the
// first error or nil. Host hops need no rules (servers have a single uplink).
func (c *Controller) InstallPath(m Match, path topology.Path, priority int, cookie uint64, done func(error)) {
	c.install(m, path, priority, cookie, false, done)
}

// InstallSteering programs rules only on hops whose out-link leads to
// another switch — the trunk/spine choices. Used with rack-pair (prefix)
// matches: the final hop to the destination server differs per host and is
// left to the default pipeline, so one coarse rule steers a whole rack's
// traffic without misdelivering it.
func (c *Controller) InstallSteering(m Match, path topology.Path, priority int, cookie uint64, done func(error)) {
	c.install(m, path, priority, cookie, true, done)
}

// installStep is one rule installation on one switch along a path; a nil
// switch marks the echo round trip of a path with no rule-bearing hops.
type installStep struct {
	sw  *Switch
	out topology.LinkID
}

func (c *Controller) install(m Match, path topology.Path, priority int, cookie uint64, interSwitchOnly bool, done func(error)) {
	var steps []installStep
	for _, lid := range path.Links {
		l := c.g.Link(lid)
		if sw, ok := c.switches[l.From]; ok {
			if interSwitchOnly && c.g.Node(l.To).Kind != topology.Switch {
				continue
			}
			steps = append(steps, installStep{sw, lid})
		}
	}
	if c.fl != nil {
		ev := flight.Ev(flight.InstallStart, flight.PlaneControl)
		ev.Src, ev.Dst = matchEndpoints(m)
		ev.Cookie = cookie
		ev.Count = len(steps)
		c.fl.Record(ev)
		if done != nil {
			// Wrap the caller's ack to stamp the install RTT. Only a non-nil
			// done is wrapped: turning a nil done non-nil would activate the
			// no-op ack round trip below and change the simulation.
			src, dst := matchEndpoints(m)
			start := c.eng.Now()
			orig := done
			done = func(err error) {
				ev := flight.Ev(flight.InstallDone, flight.PlaneControl)
				ev.Src, ev.Dst = src, dst
				ev.Cookie = cookie
				ev.DelaySec = float64(c.eng.Now().Sub(start))
				if err != nil {
					ev.Disposition = flight.DispError
					ev.Detail = err.Error()
				} else {
					ev.Disposition = flight.DispOK
				}
				c.fl.Record(ev)
				orig(err)
			}
		}
	}
	if len(steps) == 0 {
		if done == nil {
			return
		}
		// Even a no-op command round-trips the control network: one echo,
		// queued behind the controller's other control traffic like any
		// FLOW_MOD, so an outage is observable for it too.
		steps = []installStep{{sw: nil, out: -1}}
	}
	remaining := len(steps)
	var firstErr error
	resolve := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 && done != nil {
			done(firstErr)
		}
	}
	c.anchorPipeline()
	for _, st := range steps {
		c.transmit(m, st, priority, cookie, 0, resolve)
	}
}

// transmit sends one control message of an install — the FLOW_MOD for st, or
// an echo when st.sw is nil — and resolves it with the switch's answer when
// it arrives. Under a fault model (InstallTimeout > 0) an unacknowledged
// message is retransmitted with bounded exponential backoff and resolves with
// ErrControlPlaneUnreachable once the budget is spent; a late arrival after a
// timeout is discarded, so a retransmitted rule is never double-installed.
// Without one, a lost message never resolves.
func (c *Controller) transmit(m Match, st installStep, priority int, cookie uint64, attempt int, resolve func(error)) {
	c.txSeq++
	bytes := float64(echoBytes)
	if st.sw != nil {
		bytes = flowModBytes
	}

	lost := c.ctrlDown || (c.faults.Drop != nil && c.faults.Drop(c.txSeq))
	if c.ctrlDown {
		// The controller cannot put the message on the wire at all: the
		// transmission is simply lost.
		c.DroppedFlowMods++
		c.recordFlowModLost(cookie, attempt, flight.DispOutage)
	} else {
		if st.sw != nil {
			c.FlowModsSent++
		}
		if lost {
			c.DroppedFlowMods++
			c.recordFlowModLost(cookie, attempt, flight.DispDrop)
		}
	}

	// Whichever comes first settles the transmission: its message arriving,
	// or its ack timer giving up on it.
	const (
		inFlight = iota
		acked
		abandoned
	)
	state := inFlight
	onWire := c.eng.Now()
	if !lost {
		onWire = c.channel(bytes, func() {
			if state == abandoned {
				return
			}
			state = acked
			if st.sw == nil {
				resolve(nil)
				return
			}
			err := st.sw.Install(FlowRule{Match: m, Out: st.out, Priority: priority, Cookie: cookie})
			if err == nil {
				c.RulesInstalled++
			}
			resolve(err)
		})
	}
	if c.faults.InstallTimeout <= 0 {
		return
	}
	c.eng.At(onWire.Add(c.faults.InstallTimeout), func() {
		if state == acked {
			return
		}
		state = abandoned
		if attempt >= c.faults.MaxRetries {
			c.InstallFailures++
			resolve(ErrControlPlaneUnreachable)
			return
		}
		c.Retransmissions++
		if c.fl != nil {
			ev := flight.Ev(flight.FlowModRetry, flight.PlaneControl)
			ev.Cookie = cookie
			ev.Count = attempt + 1
			c.fl.Record(ev)
		}
		backoff := sim.Duration(float64(c.faults.RetryBackoff) * float64(uint64(1)<<uint(attempt)))
		c.eng.After(backoff, func() {
			c.anchorPipeline()
			c.transmit(m, st, priority, cookie, attempt+1, resolve)
		})
	})
}

// channel puts one message of the given size on the controller's control
// channel, runs arrive once the switch has acted on it, and returns when the
// message went on the wire (where its ack timer starts). It is the only place
// a timing model lives, and there are two. The management network: FIFO
// serialization of the message's bytes out the controller's port plus
// propagation (mgmt.Send), then the switch's programming latency — switches
// program in parallel. The built-in pipeline: one strictly ordered server,
// one InstallLatency slot per message whatever its size (the paper's 3–5
// ms/flow budget), the ack timer starting with the slot so queue depth alone
// never causes a retransmission. Neither models a per-switch install rate
// (DESIGN.md §5).
func (c *Controller) channel(bytes float64, arrive func()) (onWire sim.Time) {
	if c.mgmt != nil {
		c.mgmt.Send(c.ctrlNode, bytes, func() {
			c.eng.After(c.InstallLatency+c.faults.ExtraDelay, arrive)
		})
		return c.eng.Now()
	}
	onWire = c.queueBusyUntil
	c.burstLen++
	c.queueBusyUntil = c.burstStart.Add(sim.Duration(float64(c.InstallLatency) * float64(c.burstLen)))
	c.eng.At(c.queueBusyUntil.Add(c.faults.ExtraDelay), arrive)
	return onWire
}

// anchorPipeline starts a burst on the built-in pipeline — the messages of
// one install, or one retransmission — at the moment its server is next free.
// Slot i of a burst ends at anchor + InstallLatency·(i+1), multiplied out
// rather than accumulated so event times do not depend on how a burst's
// additions round.
func (c *Controller) anchorPipeline() {
	c.burstStart, c.burstLen = c.queueBusyUntil, 0
	if now := c.eng.Now(); c.burstStart < now {
		c.burstStart = now
	}
	c.queueBusyUntil = c.burstStart
}

// RemovePath deletes every rule carrying cookie from the switches along path,
// immediately (rule deletion is cheap and not on the critical path), and
// returns how many it deleted. Path must be the one the cookie was installed
// with: InstallPath and InstallSteering put a cookie's rules only on that
// path's switches, so no other table is visited, and a rule with the cookie
// placed anywhere else is left alone. A FLOW_MOD still in flight lands
// afterwards and goes with the next RemovePath of the same path and cookie.
func (c *Controller) RemovePath(path topology.Path, cookie uint64) int {
	removed := 0
	for _, lid := range path.Links {
		if sw, ok := c.switches[c.g.Link(lid).From]; ok {
			removed += sw.RemoveByCookie(cookie)
		}
	}
	return removed
}

// Resolve walks a tuple through the fabric hop by hop (ecmp.Walk): hosts
// forward on their single uplink; switches consult their flow table and, on
// a miss, fall back to the default pipeline's ECMP hash over the
// shortest-path next hops. It fails when the fabric has no route or a rule
// loop is detected.
func (c *Controller) Resolve(t netsim.FiveTuple) (topology.Path, error) {
	return ecmp.Walk(c.g, t, 0, func(at topology.NodeID) (topology.LinkID, bool) {
		sw, ok := c.switches[at]
		if !ok {
			return -1, false
		}
		rule, ok := sw.Lookup(t)
		if !ok || !c.g.LinkUp(rule.Out) || c.g.Link(rule.Out).From != at {
			return -1, false
		}
		return rule.Out, true
	}, &c.hops)
}
