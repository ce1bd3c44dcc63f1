package openflow

import (
	"errors"
	"fmt"

	"pythia/internal/netsim"
	"pythia/internal/topology"
)

// ErrTableFull is returned when a switch's flow table has no room for
// another rule. The paper motivates host-pair (and rack/POD-pair)
// aggregation precisely by the high cost and limited size of wildcard-rule
// TCAM memory.
var ErrTableFull = errors.New("openflow: flow table full")

// FlowRule is one forwarding entry: packets matching Match are emitted on
// link Out. Cookie groups rules installed for one logical path so they can
// be removed together.
type FlowRule struct {
	Match    Match
	Out      topology.LinkID
	Priority int
	Cookie   uint64
	// seq is assigned by the switch at install time to break priority ties
	// (later installs win, as in OpenFlow's overlapping-rule semantics
	// with OFPFF_CHECK_OVERLAP unset).
	seq uint64
}

// Switch is a flow-table-bearing network element.
type Switch struct {
	Node topology.NodeID
	// Capacity limits the number of rules (0 = unlimited).
	Capacity int

	rules   []*FlowRule
	nextSeq uint64
	// rackOf resolves a host's rack for prefix (rack-pair) rules; nil
	// disables rack matching.
	rackOf func(topology.NodeID) int
}

// NewSwitch returns a switch with an empty table.
func NewSwitch(node topology.NodeID, capacity int) *Switch {
	return &Switch{Node: node, Capacity: capacity}
}

// SetRackResolver enables rack-pair (prefix) rule matching.
func (s *Switch) SetRackResolver(fn func(topology.NodeID) int) { s.rackOf = fn }

// Install adds a rule. At capacity it fails with ErrTableFull: the
// controller is expected to manage table state.
func (s *Switch) Install(r FlowRule) error {
	if s.Capacity > 0 && len(s.rules) >= s.Capacity {
		return ErrTableFull
	}
	rc := r
	rc.seq = s.nextSeq
	s.nextSeq++
	s.rules = append(s.rules, &rc)
	return nil
}

// Lookup returns the best matching rule: highest priority, then highest
// specificity, then most recently installed.
func (s *Switch) Lookup(t netsim.FiveTuple) (FlowRule, bool) {
	var best *FlowRule
	for _, r := range s.rules {
		if !r.Match.MatchesWithRacks(t, s.rackOf) {
			continue
		}
		if best == nil {
			best = r
			continue
		}
		if r.Priority != best.Priority {
			if r.Priority > best.Priority {
				best = r
			}
			continue
		}
		rs, bs := r.Match.Specificity(), best.Match.Specificity()
		if rs != bs {
			if rs > bs {
				best = r
			}
			continue
		}
		if r.seq > best.seq {
			best = r
		}
	}
	if best == nil {
		return FlowRule{}, false
	}
	return *best, true
}

// RemoveByCookie deletes all rules carrying the cookie and returns how many
// were removed.
func (s *Switch) RemoveByCookie(cookie uint64) int {
	kept := s.rules[:0]
	removed := 0
	for _, r := range s.rules {
		if r.Cookie == cookie {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	for i := len(kept); i < len(s.rules); i++ {
		s.rules[i] = nil
	}
	s.rules = kept
	return removed
}

func (s *Switch) String() string {
	return fmt.Sprintf("switch(node=%d rules=%d)", s.Node, len(s.rules))
}
