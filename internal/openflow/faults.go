package openflow

import (
	"errors"

	"pythia/internal/flight"
	"pythia/internal/sim"
)

// ErrControlPlaneUnreachable reports that a rule install exhausted its retry
// budget without an acknowledgement — the controller's view of that switch
// is stale. Consumers (Pythia) match it with errors.Is and degrade the
// affected aggregate to the default ECMP pipeline.
var ErrControlPlaneUnreachable = errors.New("openflow: control plane unreachable (install retry budget exhausted)")

// FaultConfig models management-channel unreliability. The zero value is a
// perfectly reliable channel with no ack timers; InstallTimeout > 0 adds the
// retry layer to the one transmission path (Controller.transmit).
type FaultConfig struct {
	// InstallTimeout is how long the controller waits, from the moment a
	// FLOW_MOD goes on the wire, for it to be acknowledged before
	// retransmitting. Zero arms no timer: a lost message is never noticed.
	InstallTimeout sim.Duration
	// MaxRetries bounds retransmissions per rule; past the budget the
	// install fails with ErrControlPlaneUnreachable.
	MaxRetries int
	// RetryBackoff is the delay before the first retransmission; it doubles
	// on every subsequent attempt (exponential backoff).
	RetryBackoff sim.Duration
	// ExtraDelay is added to every management-channel delivery, modeling a
	// congested or distant control network.
	ExtraDelay sim.Duration
	// Drop, when non-nil, is consulted with a monotonically increasing
	// transmission sequence number; returning true loses that transmission.
	// Deterministic hooks (e.g. drop every Nth) keep runs reproducible.
	Drop func(seq uint64) bool
}

// SetFaults installs the control-plane fault model. Call before traffic
// starts; changing it mid-run only affects future installs.
func (c *Controller) SetFaults(cfg FaultConfig) { c.faults = cfg }

// Faults returns the active fault model.
func (c *Controller) Faults() FaultConfig { return c.faults }

// FailController takes the controller's management connectivity down: every
// subsequent FLOW_MOD transmission is lost (the retry machinery keeps
// trying until its budget runs out). Requires a FaultConfig with
// InstallTimeout > 0 for installs issued while down to resolve; otherwise
// they would wait forever for an ack that cannot arrive.
func (c *Controller) FailController() { c.ctrlDown = true }

// RecoverController restores management connectivity and fires the
// OnControllerUp listeners so schedulers can reconcile state programmed
// while the controller was dark.
func (c *Controller) RecoverController() {
	if !c.ctrlDown {
		return
	}
	c.ctrlDown = false
	for _, fn := range c.ctrlUpLs {
		fn()
	}
}

// ControllerUp reports management connectivity.
func (c *Controller) ControllerUp() bool { return !c.ctrlDown }

// OnControllerUp registers a callback fired by RecoverController.
func (c *Controller) OnControllerUp(fn func()) { c.ctrlUpLs = append(c.ctrlUpLs, fn) }

// recordFlowModLost emits the flowmod-dropped flight event; a no-op when
// the recorder is disabled.
func (c *Controller) recordFlowModLost(cookie uint64, attempt int, disp string) {
	if c.fl == nil {
		return
	}
	ev := flight.Ev(flight.FlowModDropped, flight.PlaneControl)
	ev.Cookie = cookie
	ev.Count = attempt + 1
	ev.Disposition = disp
	c.fl.Record(ev)
}
