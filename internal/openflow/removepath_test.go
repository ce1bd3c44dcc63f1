package openflow

import (
	"errors"
	"math/rand"
	"testing"

	"pythia/internal/mgmtnet"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// RemovePath visits only the switches along the path it is given. A seeded
// mix of host-pair installs, rack-pair steering installs, removals and clock
// advances holds it to a walk of every switch's table. As in Pythia, each
// cookie is installed on one path only, and that path is what RemovePath is
// handed. Before each removal the walk counts the cookie's rules, RemovePath
// must return that count, and afterwards no switch may hold the cookie. One
// leaf runs a three-rule table that rejects installs when full, leaving
// partial paths behind, and the clock moves in steps shorter than the
// install pipeline, so FLOW_MODs are still in flight when their cookie is
// removed and land afterwards. Every other seed carries the
// FLOW_MODs over a management network that duplicates and reorders them.
func TestRemovePathMatchesFullWalk(t *testing.T) {
	const cookies = 6
	rejected := 0
	lateLandings := 0
	for seed := int64(1); seed <= 20; seed++ {
		eng := sim.NewEngine()
		g, hosts := topology.LeafSpine(4, 2, 4, topology.Gbps)
		c := NewController(eng, netsim.New(eng, g), 0)
		if seed%2 == 0 {
			mn := mgmtnet.New(eng, mgmtnet.Config{})
			mn.SetFaults(mgmtnet.FaultConfig{DupProb: 0.3, JitterMax: 20 * sim.Millisecond, Seed: uint64(seed)})
			c.SetManagementNetwork(mn, topology.NodeID(-1))
		}
		c.switches[g.Link(g.NextHops(hosts[0], hosts[len(hosts)-1], nil)[0]).To].Capacity = 3
		done := func(err error) {
			if errors.Is(err, ErrTableFull) {
				rejected++
			}
		}

		rng := rand.New(rand.NewSource(seed))
		var paths [cookies + 1]topology.Path
		for cookie := 1; cookie <= cookies; cookie++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := src
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			ps := g.EqualCostPaths(src, dst, 4)
			paths[cookie] = ps[rng.Intn(len(ps))]
		}
		// issued: an install with the cookie was sent since its last
		// removal. A removal that finds rules without one found FLOW_MODs
		// that were in flight at the previous removal.
		var issued, removed [cookies + 1]bool
		remove := func(step int, cookie uint64) {
			want := rulesWithCookie(c, cookie)
			got := c.RemovePath(paths[cookie], cookie)
			if got != want {
				t.Fatalf("seed %d step %d: RemovePath(%d) = %d, full walk counted %d", seed, step, cookie, got, want)
			}
			if left := rulesWithCookie(c, cookie); left != 0 {
				t.Fatalf("seed %d step %d: %d rules with cookie %d left after RemovePath", seed, step, left, cookie)
			}
			if got > 0 && removed[cookie] && !issued[cookie] {
				lateLandings++
			}
			issued[cookie], removed[cookie] = false, true
		}
		for step := 0; step < 400; step++ {
			cookie := uint64(1 + rng.Intn(cookies))
			switch rng.Intn(4) {
			case 0, 1:
				p := paths[cookie]
				if rng.Intn(2) == 0 {
					c.InstallPath(HostPair(p.Src, p.Dst), p, 1+rng.Intn(9), cookie, done)
				} else {
					c.InstallSteering(RackPair(g.Node(p.Src).Rack, g.Node(p.Dst).Rack), p, 1+rng.Intn(9), cookie, done)
				}
				issued[cookie] = true
			case 2:
				remove(step, cookie)
			case 3:
				eng.RunUntil(eng.Now().Add(sim.Duration(rng.Float64()) * 3 * DefaultInstallLatency))
			}
		}
		eng.Run()
		for cookie := uint64(1); cookie <= cookies; cookie++ {
			remove(-1, cookie)
		}
		for _, sw := range c.switches {
			if len(sw.rules) != 0 {
				t.Fatalf("seed %d: %v still holds rules after every cookie was removed", seed, sw)
			}
		}
	}
	if rejected == 0 || lateLandings == 0 {
		t.Fatalf("the seeded mix exercised %d full-table rejections and %d late landings; want both", rejected, lateLandings)
	}
}
