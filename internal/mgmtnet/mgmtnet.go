// Package mgmtnet models the management network of §III: a physically
// distinct, lower-bisection network (a star through one management switch)
// interconnecting all servers, switches and the controller. It carries the
// out-of-band control plane — Pythia's prediction notifications, reducer-up
// events, and OpenFlow control messages — so that control traffic never
// disrupts application data traffic, while still being subject to its own
// serialization and queueing.
//
// The model is intentionally simple and conservative: per-endpoint
// half-duplex serialization at LinkBps plus a propagation delay, with FIFO
// queueing per sender. That captures the failure mode that matters (control
// bursts queueing behind each other at message granularity) without a
// second full fluid simulation.
package mgmtnet

import (
	"fmt"

	"pythia/internal/flight"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
)

// Config shapes the management network.
type Config struct {
	// LinkBps is each endpoint's management-port rate (the paper notes
	// this network is "typically of much lower bisection and cost";
	// 100 Mbps management ports were the norm). Default 100 Mbps.
	LinkBps float64
	// PropagationDelay is the fixed one-way latency floor. Default 0.5 ms.
	PropagationDelay sim.Duration
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.LinkBps == 0 {
		c.LinkBps = 100e6
	}
	if c.PropagationDelay == 0 {
		c.PropagationDelay = 0.5 * sim.Millisecond
	}
	return c
}

// FaultConfig models the management star's unreliability. The zero value is
// the legacy perfectly-reliable fabric; per-message faults are drawn from a
// dedicated splitmix64 stream so runs are exactly reproducible from Seed.
type FaultConfig struct {
	// DropProb is the per-message loss probability (message transmitted,
	// then lost in the star; the sender's port time is still consumed).
	DropProb float64
	// DupProb is the per-message duplication probability: a second copy of
	// the message is delivered right after the first (the retransmit-storm
	// failure mode that motivates collector-side idempotence).
	DupProb float64
	// ExtraDelay is added to every delivery, modeling a congested or
	// distant management network.
	ExtraDelay sim.Duration
	// JitterMax adds a uniform [0, JitterMax) per-delivery delay.
	JitterMax sim.Duration
	// Seed fixes the fault stream (0 is a valid seed).
	Seed uint64
	// DeferDuringOutage queues sends attempted while the star is down
	// (Fail) and releases them FIFO on Recover; by default such sends are
	// dropped on the floor, as with a rebooting management switch.
	DeferDuringOutage bool
}

// deferredSend is one message held back by an outage under the defer policy.
type deferredSend struct {
	from    topology.NodeID
	bytes   float64
	deliver func()
}

// Network is the management fabric.
type Network struct {
	eng *sim.Engine
	cfg Config

	// busyUntil serializes each sender's management port.
	busyUntil map[topology.NodeID]sim.Time

	// faults is the injected unreliability model; rng is nil until
	// SetFaults installs one, keeping the fault-free path bit-identical to
	// the pre-fault implementation.
	faults   FaultConfig
	rng      *stats.RNG
	down     bool
	deferred []deferredSend

	// fl, when non-nil, receives per-message flight events. Kept nil when
	// recording is disabled so the hot path stays allocation-free.
	fl flight.Sink

	// Messages and Bytes count traffic put on the wire toward delivery
	// (duplicate copies included, dropped transmissions excluded).
	Messages uint64
	Bytes    float64
	// MaxQueueDelay tracks the worst serialization wait observed.
	MaxQueueDelay sim.Duration
	// Dropped counts messages lost to injected faults or outage, Duplicated
	// the extra copies delivered, and Deferred the sends parked during an
	// outage under the defer policy.
	Dropped    uint64
	Duplicated uint64
	Deferred   uint64
}

// New builds a management network on the engine.
func New(eng *sim.Engine, cfg Config) *Network {
	return &Network{
		eng:       eng,
		cfg:       cfg.Defaults(),
		busyUntil: make(map[topology.NodeID]sim.Time),
	}
}

// SetFaults installs the fault model. Call before traffic starts; changing
// it mid-run only affects future sends.
func (n *Network) SetFaults(cfg FaultConfig) {
	n.faults = cfg
	n.rng = stats.NewRNG(cfg.Seed)
}

// SetFlightRecorder installs a flight-event sink. Pass a non-nil sink only;
// leave the field nil to disable recording.
func (n *Network) SetFlightRecorder(s flight.Sink) { n.fl = s }

// recordMsg emits one per-message flight event; no-op when disabled.
func (n *Network) recordMsg(kind flight.Kind, from topology.NodeID, bytes float64, queueDelay sim.Duration, disp string) {
	if n.fl == nil {
		return
	}
	ev := flight.Ev(kind, flight.PlaneMgmt)
	ev.Src = from
	ev.Bytes = bytes
	ev.DelaySec = float64(queueDelay)
	ev.Disposition = disp
	n.fl.Record(ev)
}

// Fail takes the whole management star down (the management switch reboots
// or loses power). Messages already on the wire still arrive; sends
// attempted while down are dropped, or parked until Recover under the
// DeferDuringOutage policy.
func (n *Network) Fail() { n.down = true }

// Recover brings the star back and releases any deferred sends in FIFO
// order, re-serializing them through their senders' ports from now.
func (n *Network) Recover() {
	if !n.down {
		return
	}
	n.down = false
	pending := n.deferred
	n.deferred = nil
	for _, d := range pending {
		n.transmit(d.from, d.bytes, d.deliver)
	}
}

// Send transmits a control message of the given size from the sender's
// management port, invoking deliver when it arrives at the collector /
// controller. Messages from one sender serialize FIFO; bytes must be
// positive. Injected faults (SetFaults) may drop, delay or duplicate the
// message; during an outage (Fail) the send is dropped or deferred per the
// configured policy and deliver may never run.
func (n *Network) Send(from topology.NodeID, bytes float64, deliver func()) {
	if bytes <= 0 {
		panic(fmt.Sprintf("mgmtnet: message of %v bytes", bytes))
	}
	if n.down {
		if n.faults.DeferDuringOutage {
			n.Deferred++
			n.deferred = append(n.deferred, deferredSend{from, bytes, deliver})
			n.recordMsg(flight.MgmtDeferred, from, bytes, 0, flight.DispOutage)
		} else {
			n.Dropped++
			n.recordMsg(flight.MgmtDropped, from, bytes, 0, flight.DispOutage)
		}
		return
	}
	n.transmit(from, bytes, deliver)
}

// transmit serializes one message out the sender's port and schedules its
// delivery (or loss). Fault draws happen in transmission order, so runs are
// deterministic for a fixed seed.
func (n *Network) transmit(from topology.NodeID, bytes float64, deliver func()) {
	now := n.eng.Now()
	start := n.busyUntil[from]
	if start < now {
		start = now
	}
	queueDelay := start.Sub(now)
	if queueDelay > n.MaxQueueDelay {
		n.MaxQueueDelay = queueDelay
	}
	txTime := sim.Duration(bytes * 8 / n.cfg.LinkBps)
	done := start.Add(txTime)
	n.busyUntil[from] = done
	if n.rng != nil && n.faults.DropProb > 0 && n.rng.Float64() < n.faults.DropProb {
		// The bits left the port and died in the star: port time is spent,
		// nothing arrives.
		n.Dropped++
		n.recordMsg(flight.MgmtDropped, from, bytes, queueDelay, flight.DispDrop)
		return
	}
	n.Messages++
	n.Bytes += bytes
	n.recordMsg(flight.MgmtSent, from, bytes, queueDelay, "")
	n.eng.At(done.Add(n.deliveryDelay()), deliver)
	if n.rng != nil && n.faults.DupProb > 0 && n.rng.Float64() < n.faults.DupProb {
		n.Duplicated++
		n.Messages++
		n.Bytes += bytes
		n.recordMsg(flight.MgmtDuplicated, from, bytes, queueDelay, "")
		n.eng.At(done.Add(n.deliveryDelay()), deliver)
	}
}

// deliveryDelay is the post-transmission latency of one delivery:
// propagation plus any configured extra delay and jitter.
func (n *Network) deliveryDelay() sim.Duration {
	d := n.cfg.PropagationDelay + n.faults.ExtraDelay
	if n.rng != nil && n.faults.JitterMax > 0 {
		d += sim.Duration(n.rng.Float64() * float64(n.faults.JitterMax))
	}
	return d
}
