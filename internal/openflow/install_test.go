package openflow

import (
	"errors"
	"math"
	"testing"

	"pythia/internal/mgmtnet"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// rulesWithCookie counts the rules carrying cookie across every switch.
func rulesWithCookie(c *Controller, cookie uint64) int {
	n := 0
	for _, sw := range c.switches {
		for _, r := range sw.rules {
			if r.Cookie == cookie {
				n++
			}
		}
	}
	return n
}

// done must mean "every rule of this path has landed or been given up on",
// also when the management network reorders a path's FLOW_MODs. The pre-PR 20
// reliable path fired done when the last-sent step applied (7 of 20 installs
// early under this jitter) and so also lost an earlier step's late error.
func TestDoneFiresAfterEveryRuleLands(t *testing.T) {
	const installs = 20
	setup := func() (*sim.Engine, *Controller, topology.Path) {
		eng, _, c, hosts, _ := tb()
		mn := mgmtnet.New(eng, mgmtnet.Config{})
		mn.SetFaults(mgmtnet.FaultConfig{JitterMax: 50 * sim.Millisecond, Seed: 3})
		c.SetManagementNetwork(mn, topology.NodeID(-1))
		return eng, c, c.g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
	}

	t.Run("all rules present", func(t *testing.T) {
		eng, c, p := setup()
		fired := 0
		for i := 0; i < installs; i++ {
			cookie := uint64(i + 1)
			c.InstallPath(HostPair(p.Src, p.Dst), p, 100, cookie, func(err error) {
				fired++
				if err != nil {
					t.Errorf("install %d: %v", cookie, err)
				}
				if got := rulesWithCookie(c, cookie); got != 2 {
					t.Errorf("install %d: done fired at %v with %d of 2 rules in the tables", cookie, eng.Now(), got)
				}
			})
		}
		eng.Run()
		if fired != installs {
			t.Fatalf("done fired %d times, want %d", fired, installs)
		}
	})

	t.Run("first hop's error survives reordering", func(t *testing.T) {
		eng, c, p := setup()
		first := c.Switch(c.g.Link(p.Links[1]).From)
		first.Capacity = 1
		if err := first.Install(FlowRule{Match: HostPair(p.Dst, p.Src), Out: p.Links[1], Priority: 1, Cookie: 999}); err != nil {
			t.Fatal(err)
		}
		fired := 0
		for i := 0; i < installs; i++ {
			cookie := uint64(i + 1)
			c.InstallPath(HostPair(p.Src, p.Dst), p, 100, cookie, func(err error) {
				fired++
				if !errors.Is(err, ErrTableFull) {
					t.Errorf("install %d: done(%v), want ErrTableFull from the first hop", cookie, err)
				}
				if got := rulesWithCookie(c, cookie); got != 1 {
					t.Errorf("install %d: %d rules in the tables, want the last hop's 1", cookie, got)
				}
			})
		}
		eng.Run()
		if fired != installs {
			t.Fatalf("done fired %d times, want %d", fired, installs)
		}
	})
}

// The two timing models of Controller.channel, each with and without the
// retry layer, and what the retry layer adds on top. Every row issues its
// installs at t = 0: hostOnly rule-less paths first, then two-rule paths with
// cookies 1..installs. landed(i) is when the i-th rule enters a table,
// done(k) when install k (host-only ones first) is acknowledged.
func TestInstallPipelineTiming(t *testing.T) {
	const (
		L    = DefaultInstallLatency
		tx   = sim.Duration(80 * 8 / 100e6) // one FLOW_MOD out a 100 Mbps port
		prop = 0.5 * sim.Millisecond
	)
	retry := FaultConfig{InstallTimeout: 50 * sim.Millisecond, MaxRetries: 2, RetryBackoff: 100 * sim.Millisecond}
	dropSecond := retry
	dropSecond.Drop = func(seq uint64) bool { return seq == 2 }

	slot := func(i int) sim.Time { return sim.Time(L) * sim.Time(i+1) }
	wire := func(i int) sim.Time { return sim.Time(tx)*sim.Time(i+1) + sim.Time(prop+L) }
	pairDone := func(at func(int) sim.Time) func(int) sim.Time {
		return func(k int) sim.Time { return at(2*k + 1) }
	}

	cases := []struct {
		name             string
		mgmt             bool
		faults           FaultConfig
		ctrlDown         bool
		hostOnly         int
		installs         int
		landed, done     func(int) sim.Time
		wantErr          error
		retransmissions  uint64
		dropped, failed  uint64
		echoesOnMgmtWire uint64
	}{
		{name: "built-in", installs: 3, landed: slot, done: pairDone(slot)},
		// Pre-PR 20 a fault model bypassed the queue: all six landed at 4 ms.
		{name: "built-in, retry layer", faults: retry, installs: 3, landed: slot, done: pairDone(slot)},
		{name: "management network", mgmt: true, installs: 3, landed: wire, done: pairDone(wire)},
		{name: "management network, retry layer", mgmt: true, faults: retry, installs: 3, landed: wire, done: pairDone(wire)},
		// 160 ms of queue against a 50 ms timeout: the timer starts with the
		// message's slot, so depth alone retransmits nothing.
		{name: "built-in, 40-rule burst", faults: retry, installs: 20, landed: slot, done: pairDone(slot)},
		// The second of 60 messages is lost: noticed at 50 ms, re-sent at
		// 150 ms into the slot behind the 59 that went through (236–240 ms).
		{name: "built-in, dropped transmission", faults: dropSecond, installs: 30, landed: slot,
			done: func(k int) sim.Time {
				if k == 0 {
					return slot(59)
				}
				return slot(2 * k)
			},
			retransmissions: 1, dropped: 1},
		// Attempts at 0, 150 and 400 ms; the last times out at 450 ms.
		{name: "built-in, controller down", faults: retry, ctrlDown: true, installs: 1,
			done:    func(int) sim.Time { return 0.450 },
			wantErr: ErrControlPlaneUnreachable, retransmissions: 4, dropped: 6, failed: 2},
		{name: "built-in, host-only path takes a slot", hostOnly: 1, installs: 1,
			landed: func(i int) sim.Time { return slot(i + 1) },
			done:   func(k int) sim.Time { return slot(2 * k) }},
		{name: "management network, host-only path is one echo", mgmt: true, hostOnly: 1,
			done:             func(int) sim.Time { return sim.Time(sim.Duration(8*8/100e6) + prop + L) },
			echoesOnMgmtWire: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, c, hosts, _ := tb()
			var mn *mgmtnet.Network
			if tc.mgmt {
				mn = mgmtnet.New(eng, mgmtnet.Config{})
				c.SetManagementNetwork(mn, topology.NodeID(-1))
			}
			c.SetFaults(tc.faults)
			if tc.ctrlDown {
				c.FailController()
			}
			p := c.g.EqualCostPaths(hosts[0], hosts[5], 2)[0]
			doneAt := make([]sim.Time, tc.hostOnly+tc.installs)
			ack := func(k int) func(error) {
				doneAt[k] = -1
				return func(err error) {
					if !errors.Is(err, tc.wantErr) {
						t.Errorf("install %d: done(%v), want %v", k, err, tc.wantErr)
					}
					doneAt[k] = eng.Now()
				}
			}
			for k := 0; k < tc.hostOnly; k++ {
				c.InstallPath(HostPair(hosts[0], hosts[0]), topology.Path{Src: hosts[0], Dst: hosts[0]}, 100, 1000, ack(k))
			}
			for k := 0; k < tc.installs; k++ {
				c.InstallPath(HostPair(p.Src, p.Dst), p, 100, uint64(k+1), ack(tc.hostOnly+k))
			}
			var landedAt []sim.Time
			for eng.NextEventTime() < 1 && eng.Step() {
				for uint64(len(landedAt)) < c.RulesInstalled {
					landedAt = append(landedAt, eng.Now())
				}
			}

			near := func(got, want sim.Time) bool { return math.Abs(float64(got-want)) < 1e-9 }
			wantRules := 2 * tc.installs
			if tc.wantErr != nil {
				wantRules = 0
			}
			if len(landedAt) != wantRules {
				t.Fatalf("%d rules landed, want %d", len(landedAt), wantRules)
			}
			for i, at := range landedAt {
				if !near(at, tc.landed(i)) {
					t.Errorf("rule %d landed at %v, want %v", i, float64(at), float64(tc.landed(i)))
				}
			}
			for k, at := range doneAt {
				if !near(at, tc.done(k)) {
					t.Errorf("install %d done at %v, want %v", k, float64(at), float64(tc.done(k)))
				}
			}
			for k := 0; k < tc.installs && tc.wantErr == nil; k++ {
				if got := rulesWithCookie(c, uint64(k+1)); got != 2 {
					t.Errorf("install %d left %d rules in the tables, want exactly 2", k, got)
				}
			}
			if c.Retransmissions != tc.retransmissions || c.DroppedFlowMods != tc.dropped || c.InstallFailures != tc.failed {
				t.Errorf("retransmissions/dropped/failed = %d/%d/%d, want %d/%d/%d",
					c.Retransmissions, c.DroppedFlowMods, c.InstallFailures, tc.retransmissions, tc.dropped, tc.failed)
			}
			if want := uint64(2 * tc.installs); tc.wantErr == nil && c.FlowModsSent != want+tc.dropped {
				t.Errorf("FlowModsSent = %d, want %d", c.FlowModsSent, want+tc.dropped)
			}
			if mn != nil && (mn.Messages != uint64(2*tc.installs)+tc.echoesOnMgmtWire || mn.Bytes != float64(80*2*tc.installs)+float64(8*tc.echoesOnMgmtWire)) {
				t.Errorf("management network carried %d messages / %v bytes", mn.Messages, mn.Bytes)
			}
		})
	}
}
