package openflow

import (
	"fmt"
	"strings"
	"testing"

	"pythia/internal/mgmtnet"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// A pair of rules that bounce a tuple between the two ToR switches must be
// detected as a forwarding loop after exactly 4×N hops — the guard used to
// be off by one and allowed an extra traversal.
func TestResolveLoopGuardDetectsRuleLoop(t *testing.T) {
	_, _, c, hosts, trunks := tb()
	g := c.g
	rev, ok := g.Reverse(trunks[0])
	if !ok {
		t.Fatal("trunk has no reverse link")
	}
	s0, s1 := g.Link(trunks[0]).From, g.Link(trunks[0]).To
	m := HostPair(hosts[0], hosts[5])
	if err := c.switches[s0].Install(FlowRule{Match: m, Out: trunks[0], Priority: 10, Cookie: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.switches[s1].Install(FlowRule{Match: m, Out: rev, Priority: 10, Cookie: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Resolve(tup(hosts[0], hosts[5], 7, 7))
	if err == nil {
		t.Fatal("looping rule set resolved to a path")
	}
	want := fmt.Sprintf("after %d hops", 4*g.NumNodes())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("loop guard fired at the wrong hop count: got %q, want it to contain %q",
			err.Error(), want)
	}
}

// A zero-step install (e.g. a same-host path that needs no rules) must still
// queue its acknowledgement behind the controller's other management-port
// traffic when an explicit management network is configured, instead of
// bypassing it through the fixed built-in pipeline delay.
func TestNoopInstallAckRidesManagementNetwork(t *testing.T) {
	eng, _, c, hosts, _ := tb()
	mn := mgmtnet.New(eng, mgmtnet.Config{})
	ctrl := topology.NodeID(-1)
	c.SetManagementNetwork(mn, ctrl)
	// Occupy the controller's management port: 1.25 MB at the default
	// 100 Mbps serializes for 100 ms.
	mn.Send(ctrl, 1.25e6, func() {})
	ackAt := sim.Time(-1)
	c.InstallPath(HostPair(hosts[0], hosts[0]),
		topology.Path{Src: hosts[0], Dst: hosts[0]}, 10, 1,
		func(err error) {
			if err != nil {
				t.Errorf("no-op install failed: %v", err)
			}
			ackAt = eng.Now()
		})
	eng.Run()
	if ackAt < 0 {
		t.Fatal("no-op install never acknowledged")
	}
	if float64(ackAt) <= 0.1 {
		t.Fatalf("no-op ack at t=%vs bypassed the busy management port (port free at t=0.1s)", float64(ackAt))
	}
}
