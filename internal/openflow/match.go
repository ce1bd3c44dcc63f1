// Package openflow models the software-defined networking substrate Pythia
// programs: per-switch flow tables with wildcard-capable matches, a central
// controller that installs forwarding rules with realistic per-rule latency
// (the paper cites 3–5 ms per installed flow on contemporary hardware), a
// periodic link-load update service, and topology-change notification —
// the services Pythia's OpenDaylight plugin consumes.
package openflow

import (
	"fmt"

	"pythia/internal/netsim"
	"pythia/internal/topology"
)

// Wildcard marks a match field as "any".
const Wildcard = -1

// Match is a wildcard-capable predicate over flow five-tuples. Pythia's
// rules match on host pairs only (ports wildcarded), because a shuffle
// flow's TCP destination port is assigned at socket bind time and cannot be
// known at prediction time.
type Match struct {
	SrcHost  topology.NodeID // Wildcard or node ID
	DstHost  topology.NodeID
	SrcPort  int32 // Wildcard or 0..65535
	DstPort  int32
	Protocol int16 // Wildcard or 0..255
	// SrcRack/DstRack model IP-prefix rules that aggregate whole racks or
	// PODs — the forwarding-state-conserving policy the paper proposes
	// for large-scale SDN deployments (§IV). Wildcard disables them.
	// Evaluating them requires rack knowledge, so they only take effect
	// on switches constructed with a rack resolver.
	SrcRack int
	DstRack int
}

// HostPair returns the aggregation match Pythia installs: exact on source
// and destination server, wildcard elsewhere.
func HostPair(src, dst topology.NodeID) Match {
	return Match{SrcHost: src, DstHost: dst, SrcPort: Wildcard, DstPort: Wildcard,
		Protocol: Wildcard, SrcRack: Wildcard, DstRack: Wildcard}
}

// RackPair returns the coarse aggregation match: any flow from a server in
// srcRack to a server in dstRack.
func RackPair(srcRack, dstRack int) Match {
	return Match{SrcHost: Wildcard, DstHost: Wildcard, SrcPort: Wildcard, DstPort: Wildcard,
		Protocol: Wildcard, SrcRack: srcRack, DstRack: dstRack}
}

// MatchesWithRacks reports whether the tuple satisfies every non-wildcard
// field, resolving rack fields through rackOf (may be nil when no rack
// fields are set).
func (m Match) MatchesWithRacks(t netsim.FiveTuple, rackOf func(topology.NodeID) int) bool {
	if !m.Matches(t) {
		return false
	}
	if m.SrcRack != Wildcard {
		if rackOf == nil || rackOf(t.SrcHost) != m.SrcRack {
			return false
		}
	}
	if m.DstRack != Wildcard {
		if rackOf == nil || rackOf(t.DstHost) != m.DstRack {
			return false
		}
	}
	return true
}

// Matches reports whether the tuple satisfies every non-wildcard
// non-rack field.
func (m Match) Matches(t netsim.FiveTuple) bool {
	if m.SrcHost != Wildcard && m.SrcHost != t.SrcHost {
		return false
	}
	if m.DstHost != Wildcard && m.DstHost != t.DstHost {
		return false
	}
	if m.SrcPort != Wildcard && m.SrcPort != int32(t.SrcPort) {
		return false
	}
	if m.DstPort != Wildcard && m.DstPort != int32(t.DstPort) {
		return false
	}
	if m.Protocol != Wildcard && m.Protocol != int16(t.Protocol) {
		return false
	}
	return true
}

// Specificity counts non-wildcard fields; more specific rules win ties at
// equal priority. Rack fields count as half a host field each (a prefix is
// coarser than an exact address).
func (m Match) Specificity() int {
	n := 0
	if m.SrcHost != Wildcard {
		n += 2
	}
	if m.DstHost != Wildcard {
		n += 2
	}
	if m.SrcPort != Wildcard {
		n += 2
	}
	if m.DstPort != Wildcard {
		n += 2
	}
	if m.Protocol != Wildcard {
		n += 2
	}
	if m.SrcRack != Wildcard {
		n++
	}
	if m.DstRack != Wildcard {
		n++
	}
	return n
}

func (m Match) String() string {
	f := func(v int64) string {
		if v == Wildcard {
			return "*"
		}
		return fmt.Sprintf("%d", v)
	}
	s := fmt.Sprintf("src=%s dst=%s sport=%s dport=%s proto=%s",
		f(int64(m.SrcHost)), f(int64(m.DstHost)), f(int64(m.SrcPort)), f(int64(m.DstPort)), f(int64(m.Protocol)))
	if m.SrcRack != Wildcard || m.DstRack != Wildcard {
		s += fmt.Sprintf(" srack=%s drack=%s", f(int64(m.SrcRack)), f(int64(m.DstRack)))
	}
	return s
}
