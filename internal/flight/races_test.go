package flight

import (
	"testing"

	"pythia/internal/sim"
	"pythia/internal/topology"
)

// The install race ComputeQuality scores classifies exactly the covered
// flows: an admission with no prior successful install for its (src,dst)
// aggregate is late, and a failed install covers nothing.
func TestFlowRaces(t *testing.T) {
	mk := func(kind Kind, at float64, job, mapID, reduce int, src, dst topology.NodeID, disp string) Event {
		ev := Ev(kind, PlaneFabric)
		ev.T = sim.Time(at)
		ev.Job, ev.Map, ev.Reduce = job, mapID, reduce
		ev.Src, ev.Dst = src, dst
		ev.Disposition = disp
		return ev
	}
	events := []Event{
		// Flow (0,0,0) booked; flow (0,1,0) never booked (uncovered).
		mk(BookingMade, 1, 0, 0, 0, 3, 4, "new"),
		// Uncovered flow admitted — must not appear in the output.
		mk(FlowAdmitted, 2, 0, 1, 0, 3, 4, ""),
		// Covered flow admitted before any install: late.
		mk(FlowAdmitted, 3, 0, 0, 0, 3, 4, ""),
		// Install completes for the aggregate...
		mk(InstallDone, 4, 0, 0, 0, 3, 4, DispOK),
		// ...second booking covers another flow on the same pair, admitted
		// after the install: the prediction won.
		mk(BookingMade, 5, 0, 2, 1, 3, 4, "new"),
		mk(FlowAdmitted, 6, 0, 2, 1, 3, 4, ""),
		// A failed install on a different pair must not count as coverage.
		mk(BookingMade, 7, 1, 0, 0, 5, 6, "new"),
		mk(InstallDone, 8, 1, 0, 0, 5, 6, "error"),
		mk(FlowAdmitted, 9, 1, 0, 0, 5, 6, ""),
	}
	q := ComputeQuality(events)
	if q.FabricFlows != 4 || q.CoveredFlows != 3 {
		t.Fatalf("fabric/covered flows = %d/%d, want 4/3 (uncovered flow excluded)", q.FabricFlows, q.CoveredFlows)
	}
	// Late: the flow admitted at 3, before the install, and the one at 9,
	// whose pair saw only a failed install.
	if q.LateFraction != 2.0/3 {
		t.Fatalf("late fraction = %v, want 2/3", q.LateFraction)
	}
	// Won: the flow admitted at 6, 2 s after its aggregate's install.
	if q.LeadSamples != 1 || q.LeadP50Sec != 2 {
		t.Fatalf("lead samples = %d, p50 = %v; want 1 sample of 2 s", q.LeadSamples, q.LeadP50Sec)
	}
}
