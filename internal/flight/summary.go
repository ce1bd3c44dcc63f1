package flight

import (
	"fmt"
	"sort"
	"strings"

	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Summarize renders a human-readable per-job digest of an event log: event
// volumes, per-plane latency breakdowns, and the critical path of each
// job's worst (largest completed) aggregate — the span chain the paper's
// race is decided on. Output is deterministic: jobs ascending, fixed
// formatting, no map iteration without sorting.
func Summarize(events []Event) string {
	var b strings.Builder
	jobs := map[int][]int{} // job -> event indexes, in log order
	for i := range events {
		if events[i].Job >= 0 {
			jobs[events[i].Job] = append(jobs[events[i].Job], i)
		}
	}
	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		b.WriteString("no job-scoped flight events recorded\n")
	}
	mgmt := struct{ sent, dropped, dup, deferred int }{}
	for i := range events {
		switch events[i].Kind {
		case MgmtSent:
			mgmt.sent++
		case MgmtDropped:
			mgmt.dropped++
		case MgmtDuplicated:
			mgmt.dup++
		case MgmtDeferred:
			mgmt.deferred++
		}
	}
	for _, id := range ids {
		summarizeJob(&b, events, id, jobs[id])
	}
	fmt.Fprintf(&b, "mgmt network: %d sent, %d dropped, %d duplicated, %d deferred\n",
		mgmt.sent, mgmt.dropped, mgmt.dup, mgmt.deferred)
	return b.String()
}

type latAgg struct {
	n        int
	sum, max float64
}

func (l *latAgg) add(v float64) {
	l.n++
	l.sum += v
	if v > l.max {
		l.max = v
	}
}

func (l *latAgg) String() string {
	if l.n == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f/%.1f ms", l.sum/float64(l.n)*1e3, l.max*1e3)
}

func summarizeJob(b *strings.Builder, events []Event, job int, idx []int) {
	type akey struct{ mapID, attempt int }
	type pair struct{ src, dst topology.NodeID }
	counts := map[Kind]int{}
	spillAt := map[akey]sim.Time{}
	enqueuedAt := map[akey]sim.Time{}
	var monitor, transit, install latAgg
	aggBytes := map[pair]float64{} // completed bytes per (src,dst)
	bookedPairs := map[pair]bool{} // aggregates this job's bookings touched
	received := map[akey]bool{}
	for _, i := range idx {
		ev := &events[i]
		counts[ev.Kind]++
		ak := akey{ev.Map, ev.Attempt}
		switch ev.Kind {
		case SpillDetected:
			if _, ok := spillAt[ak]; !ok {
				spillAt[ak] = ev.T
			}
		case IntentEnqueued:
			if t, ok := spillAt[ak]; ok {
				monitor.add(float64(ev.T.Sub(t)))
			}
			if _, ok := enqueuedAt[ak]; !ok {
				enqueuedAt[ak] = ev.T
			}
		case IntentReceived:
			if t, ok := enqueuedAt[ak]; ok && !received[ak] {
				received[ak] = true
				transit.add(float64(ev.T.Sub(t)))
			}
		case BookingMade:
			bookedPairs[pair{ev.Src, ev.Dst}] = true
		case FlowCompleted:
			aggBytes[pair{ev.Src, ev.Dst}] += ev.Bytes
		}
	}
	// Placements and installs are aggregate-scoped (an aggregate can carry
	// several jobs' demand, so those events have no job field); attribute to
	// this job the ones on aggregates its bookings touched.
	placements, installs := 0, 0
	for i := range events {
		ev := &events[i]
		if !bookedPairs[pair{ev.Src, ev.Dst}] {
			continue
		}
		switch ev.Kind {
		case Placement:
			placements++
		case InstallDone:
			if ev.Disposition == DispOK {
				installs++
				install.add(ev.DelaySec)
			}
		}
	}
	fmt.Fprintf(b, "job %d: %d spills, %d intents enqueued, %d received (%d dup), %d bookings, %d placements, %d installs, %d fabric flows completed\n",
		job, counts[SpillDetected], counts[IntentEnqueued],
		counts[IntentReceived], dispCount(events, idx, IntentReceived, DispDup),
		counts[BookingMade], placements, installs, counts[FlowCompleted])
	if n := counts[Degraded] + counts[FlowModRetry] + counts[IntentDropped]; n > 0 {
		fmt.Fprintf(b, "  faults: %d degraded, %d flowmod retries, %d intents dropped\n",
			counts[Degraded], counts[FlowModRetry], counts[IntentDropped])
	}
	fmt.Fprintf(b, "  plane latency (mean/max): monitor %s, intent transit %s, install rtt %s\n",
		monitor.String(), transit.String(), install.String())

	// Critical path of the worst aggregate: the (src,dst) pair that moved
	// the most completed bytes, ties broken by lowest (src,dst).
	var worst pair
	var worstBytes float64
	found := false
	pairs := make([]pair, 0, len(aggBytes))
	for p := range aggBytes {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].src != pairs[j].src {
			return pairs[i].src < pairs[j].src
		}
		return pairs[i].dst < pairs[j].dst
	})
	for _, p := range pairs {
		if !found || aggBytes[p] > worstBytes {
			worst, worstBytes, found = p, aggBytes[p], true
		}
	}
	if !found {
		return
	}
	fmt.Fprintf(b, "  critical path of worst aggregate h%d->h%d (%.1f MB completed):\n",
		worst.src, worst.dst, worstBytes/1e6)
	renderChain(b, events, idx, job, worst.src, worst.dst)
}

func dispCount(events []Event, idx []int, kind Kind, disp string) int {
	n := 0
	for _, i := range idx {
		if events[i].Kind == kind && events[i].Disposition == disp {
			n++
		}
	}
	return n
}

// renderChain prints the lifecycle of the largest completed flow on the
// (src,dst) aggregate: spill → intent → receipt → booking → placement →
// install → admit → completion, with absolute sim time and deltas.
func renderChain(b *strings.Builder, events []Event, idx []int, job int, src, dst topology.NodeID) {
	// Largest completed flow on the aggregate; ties broken by log order.
	var flow *Event
	for _, i := range idx {
		ev := &events[i]
		if ev.Kind == FlowCompleted && ev.Src == src && ev.Dst == dst {
			if flow == nil || ev.Bytes > flow.Bytes {
				flow = ev
			}
		}
	}
	if flow == nil {
		return
	}
	var chain []*Event
	add := func(e *Event) {
		if e != nil {
			chain = append(chain, e)
		}
	}
	// Scan the whole log, not just the job's events: placement and install
	// spans are aggregate-scoped and carry no job field.
	before := func(limit *Event, match func(*Event) bool) *Event {
		var last *Event
		for i := range events {
			ev := &events[i]
			if limit != nil && ev.T > limit.T {
				break
			}
			if match(ev) {
				last = ev
			}
		}
		return last
	}
	mapID, reduce := flow.Map, flow.Reduce
	admit := before(flow, func(e *Event) bool {
		return e.Kind == FlowAdmitted && e.Job == job && e.Map == mapID && e.Reduce == reduce
	})
	add(before(admit, func(e *Event) bool {
		return e.Kind == SpillDetected && e.Job == job && e.Map == mapID
	}))
	add(before(admit, func(e *Event) bool {
		return e.Kind == IntentEnqueued && e.Job == job && e.Map == mapID
	}))
	add(before(admit, func(e *Event) bool {
		return e.Kind == IntentReceived && e.Job == job && e.Map == mapID
	}))
	add(before(admit, func(e *Event) bool {
		return e.Kind == BookingMade && e.Job == job && e.Map == mapID && e.Reduce == reduce
	}))
	// Pick the last successful install before the admit, then the placement
	// that produced it (the last one at or before the install), so the chain
	// stays causally ordered even when the aggregate was re-placed later.
	install := before(admit, func(e *Event) bool {
		return e.Kind == InstallDone && e.Src == src && e.Dst == dst && e.Disposition == DispOK
	})
	placeLimit := install
	if placeLimit == nil {
		placeLimit = admit
	}
	add(before(placeLimit, func(e *Event) bool {
		return e.Kind == Placement && e.Src == src && e.Dst == dst
	}))
	add(install)
	add(admit)
	add(flow)
	// Render in true temporal order: when the aggregate's rules were
	// installed off an earlier booking, placement and install legitimately
	// precede this flow's own spill — that is what a won race looks like.
	sort.SliceStable(chain, func(i, j int) bool { return chain[i].T < chain[j].T })
	var prev sim.Time
	for n, ev := range chain {
		label := describe(ev)
		if n == 0 {
			fmt.Fprintf(b, "    %9.3fs %s\n", float64(ev.T), label)
		} else {
			fmt.Fprintf(b, "    %+8.3fs  %s\n", float64(ev.T.Sub(prev)), label)
		}
		prev = ev.T
	}
}

func describe(ev *Event) string {
	switch ev.Kind {
	case SpillDetected:
		return fmt.Sprintf("spill detected on h%d (map %d attempt %d)", ev.Src, ev.Map, ev.Attempt)
	case IntentEnqueued:
		return fmt.Sprintf("intent enqueued (%d partitions predicted)", ev.Count)
	case IntentReceived:
		return fmt.Sprintf("intent received by collector (%s)", ev.Disposition)
	case BookingMade:
		return fmt.Sprintf("booking r%d: %.1f MB predicted (%s)", ev.Reduce, ev.Bytes/1e6, ev.Disposition)
	case Placement:
		return fmt.Sprintf("placed on path %s (%d candidates; %s)", ev.Path, ev.Count, ev.Detail)
	case InstallDone:
		return fmt.Sprintf("rules installed, cookie %d (rtt %.1f ms)", ev.Cookie, ev.DelaySec*1e3)
	case FlowAdmitted:
		return fmt.Sprintf("flow admitted: map %d -> r%d, %.1f MB on the wire", ev.Map, ev.Reduce, ev.Bytes/1e6)
	case FlowCompleted:
		return fmt.Sprintf("flow completed: %.1f MB actual in %.3f s", ev.Bytes/1e6, ev.DelaySec)
	default:
		return string(ev.Kind)
	}
}
