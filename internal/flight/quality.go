package flight

import (
	"fmt"
	"math"
	"sort"

	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Quality scores how well the prediction plane raced the shuffle, computed
// from a flight-recorder event log. Lead time is the paper's win condition:
// how long before a shuffle flow started on the fabric was its covering
// aggregate's rule install already complete. Byte error exercises
// WithPredictionError: how far the booked (predicted) wire bytes were from
// the bytes the flow actually moved.
type Quality struct {
	// Volume counters.
	Intents     int `json:"intents"`      // intents accepted by the collector (ok + late)
	Bookings    int `json:"bookings"`     // per-(job,map,reduce) demand bookings
	Placements  int `json:"placements"`   // aggregate placement decisions
	Installs    int `json:"installs"`     // successful rule installs
	FabricFlows int `json:"fabric_flows"` // shuffle flows that crossed the fabric

	// Prediction lead time: flow-admitted minus the last successful
	// install-done for the flow's (src,dst) aggregate. Only covered flows —
	// flows with a booking anywhere in the log — are classified: a covered
	// flow whose aggregate had no successful install by admit time lost the
	// race and counts as late (excluded from the percentiles). Uncovered
	// flows (intra-rack, non-Pythia schedulers) are out of scope.
	CoveredFlows int     `json:"covered_flows"`
	LeadSamples  int     `json:"lead_samples"`
	LeadP50Sec   float64 `json:"lead_p50_sec"`
	LeadP95Sec   float64 `json:"lead_p95_sec"`
	LeadMaxSec   float64 `json:"lead_max_sec"`
	LateFraction float64 `json:"late_fraction"` // late flows / covered flows

	// Prediction byte error: (predicted - actual) / actual per completed
	// flow that had a booking.
	ByteSamples        int     `json:"byte_samples"`
	ByteErrMeanFrac    float64 `json:"byte_err_mean_frac"`     // signed mean
	ByteErrMeanAbsFrac float64 `json:"byte_err_mean_abs_frac"` // mean |err|
	ByteErrP95AbsFrac  float64 `json:"byte_err_p95_abs_frac"`  // p95 |err|
}

type qualitySamples struct {
	q        Quality
	leads    []float64 // seconds, event order
	byteErrs []float64 // signed fractions, event order
}

// collectSamples gathers the raw lead-time and byte-error samples and the
// volume counters shared by ComputeQuality and BuildMetrics. Two passes:
// the first learns which flows were ever booked (covered by a prediction),
// the second classifies admissions against the install timeline.
func collectSamples(events []Event) qualitySamples {
	var s qualitySamples
	type pair struct{ src, dst topology.NodeID }
	type fkey struct{ job, mapID, reduce int }
	predicted := map[fkey]float64{} // last booked wire bytes per flow
	for i := range events {
		ev := &events[i]
		if ev.Kind == BookingMade {
			predicted[fkey{ev.Job, ev.Map, ev.Reduce}] = ev.Bytes
		}
	}
	lastInstall := map[pair]sim.Time{} // last successful install per aggregate
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case IntentReceived:
			if ev.Disposition != DispDup {
				s.q.Intents++
			}
		case BookingMade:
			s.q.Bookings++
		case Placement:
			s.q.Placements++
		case InstallDone:
			if ev.Disposition == DispOK {
				s.q.Installs++
				lastInstall[pair{ev.Src, ev.Dst}] = ev.T
			}
		case FlowAdmitted:
			s.q.FabricFlows++
			if _, covered := predicted[fkey{ev.Job, ev.Map, ev.Reduce}]; !covered {
				break
			}
			s.q.CoveredFlows++
			t, won := lastInstall[pair{ev.Src, ev.Dst}]
			if won {
				s.leads = append(s.leads, float64(ev.T.Sub(t)))
			}
		case FlowCompleted:
			k := fkey{ev.Job, ev.Map, ev.Reduce}
			if pred, ok := predicted[k]; ok && ev.Bytes > 0 {
				s.byteErrs = append(s.byteErrs, (pred-ev.Bytes)/ev.Bytes)
			}
		}
	}
	return s
}

// percentile returns the p-th percentile (0 < p <= 1) of sorted ascending
// samples using the nearest-rank method; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ComputeQuality scores an event log. It is a pure function of the log, so
// same-seed runs produce identical Quality values.
func ComputeQuality(events []Event) Quality {
	return qualityFromSamples(collectSamples(events))
}

func qualityFromSamples(s qualitySamples) Quality {
	q := s.q
	q.LeadSamples = len(s.leads)
	leads := append([]float64(nil), s.leads...)
	sort.Float64s(leads)
	q.LeadP50Sec = percentile(leads, 0.50)
	q.LeadP95Sec = percentile(leads, 0.95)
	if n := len(leads); n > 0 {
		q.LeadMaxSec = leads[n-1]
	}
	if q.CoveredFlows > 0 {
		q.LateFraction = float64(q.CoveredFlows-len(s.leads)) / float64(q.CoveredFlows)
	}
	q.ByteSamples = len(s.byteErrs)
	if n := len(s.byteErrs); n > 0 {
		var sum, sumAbs float64
		abs := make([]float64, n)
		for i, e := range s.byteErrs {
			sum += e
			sumAbs += math.Abs(e)
			abs[i] = math.Abs(e)
		}
		sort.Float64s(abs)
		q.ByteErrMeanFrac = sum / float64(n)
		q.ByteErrMeanAbsFrac = sumAbs / float64(n)
		q.ByteErrP95AbsFrac = percentile(abs, 0.95)
	}
	return q
}

// Bucket edges for the standard histograms, in seconds (latencies) or
// fractions (byte error). Fixed at compile time: no run ever chooses edges
// from data, so snapshots are comparable across runs.
var (
	monitorLatencyEdges = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
	mgmtQueueEdges      = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5}
	installRTTEdges     = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}
	leadTimeEdges       = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	byteErrEdges        = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}
)

// BuildMetrics derives the standard deterministic metrics registry from an
// event log: per-kind event counters, per-plane latency histograms, and the
// prediction-quality scores (lead-time histogram, late fraction, byte
// error). All event kinds are pre-registered so healthy runs still expose
// zero-valued series.
func BuildMetrics(events []Event) *Registry {
	r := NewRegistry()
	allKinds := []Kind{
		SpillDetected, IndexDecoded, IntentEnqueued, IntentDropped,
		MgmtSent, MgmtDropped, MgmtDuplicated, MgmtDeferred,
		IntentReceived, ReducerUpSeen, BookingMade, BookingExpired, IntentExpired,
		Placement, Degraded, Reconciled,
		InstallStart, InstallDone, FlowModRetry, FlowModDropped,
		FlowAdmitted, FlowCompleted,
	}
	kindCounters := make(map[Kind]*Counter, len(allKinds))
	for _, k := range allKinds {
		kindCounters[k] = r.Counter(
			fmt.Sprintf(`pythia_flight_events_total{kind="%s"}`, k),
			"Flight-recorder events by kind.")
	}
	monitorLat := r.Histogram("pythia_monitor_latency_seconds",
		"Spill detected to intent enqueued (fs-notify + index decode).", monitorLatencyEdges)
	mgmtQueue := r.Histogram("pythia_mgmt_queue_delay_seconds",
		"Per-message queueing delay on the management port.", mgmtQueueEdges)
	transit := r.Histogram("pythia_intent_transit_seconds",
		"Intent enqueued to first collector receipt.", installRTTEdges)
	installRTT := r.Histogram("pythia_install_rtt_seconds",
		"Rule-install round-trip time (successful installs).", installRTTEdges)
	leadHist := r.Histogram("pythia_lead_time_seconds",
		"Install-complete to flow-start lead time (won races only).", leadTimeEdges)
	byteErrHist := r.Histogram("pythia_byte_error_abs_fraction",
		"Absolute predicted-vs-actual byte error per completed flow.", byteErrEdges)

	type akey struct{ job, mapID, attempt int }
	spillAt := map[akey]sim.Time{}
	enqueuedAt := map[akey]sim.Time{}
	received := map[akey]bool{}
	for i := range events {
		ev := &events[i]
		if c, ok := kindCounters[ev.Kind]; ok {
			c.Inc()
		}
		k := akey{ev.Job, ev.Map, ev.Attempt}
		switch ev.Kind {
		case SpillDetected:
			if _, ok := spillAt[k]; !ok {
				spillAt[k] = ev.T
			}
		case IntentEnqueued:
			if t, ok := spillAt[k]; ok {
				monitorLat.Observe(float64(ev.T.Sub(t)))
			}
			if _, ok := enqueuedAt[k]; !ok {
				enqueuedAt[k] = ev.T
			}
		case IntentReceived:
			if t, ok := enqueuedAt[k]; ok && !received[k] {
				received[k] = true
				transit.Observe(float64(ev.T.Sub(t)))
			}
		case MgmtSent:
			mgmtQueue.Observe(ev.DelaySec)
		case InstallDone:
			if ev.Disposition == DispOK {
				installRTT.Observe(ev.DelaySec)
			}
		}
	}

	s := collectSamples(events)
	q := qualityFromSamples(s)
	for _, l := range s.leads {
		leadHist.Observe(l)
	}
	for _, e := range s.byteErrs {
		byteErrHist.Observe(math.Abs(e))
	}
	r.Gauge("pythia_late_prediction_fraction",
		"Fraction of covered shuffle flows admitted before their rule install completed.").Set(q.LateFraction)
	r.Gauge("pythia_fabric_flows",
		"Shuffle flows that crossed the fabric.").Set(float64(q.FabricFlows))
	r.Gauge("pythia_byte_error_mean_frac",
		"Signed mean predicted-vs-actual byte error fraction.").Set(q.ByteErrMeanFrac)
	return r
}

// VerifyChains checks that the log has no orphan spans: every event that
// has a causal parent in the taxonomy is preceded by that parent. Forward
// incompleteness is legal (a dropped message leaves an enqueue with no
// receipt), but an effect without its cause is a recorder bug. The booking →
// placement link assumes host-pair aggregation scope (the default); rack
// scope re-keys aggregates and is not verified here.
func VerifyChains(events []Event) error {
	type akey struct{ job, mapID, attempt int }
	type fkey struct{ job, mapID, reduce int }
	type pair struct{ src, dst topology.NodeID }
	spilled := map[akey]bool{}
	decoded := map[akey]bool{}
	enqueued := map[akey]bool{}
	receivedJM := map[[2]int]bool{}
	bookedPairs := map[pair]bool{}
	installStarted := map[uint64]bool{}
	admitted := map[fkey]bool{}
	for i := range events {
		ev := &events[i]
		ak := akey{ev.Job, ev.Map, ev.Attempt}
		orphan := func(parent Kind) error {
			return fmt.Errorf("flight: event %d %s at %s has no preceding %s (job=%d map=%d attempt=%d reduce=%d src=%d dst=%d cookie=%d)",
				i, ev.Kind, ev.T, parent, ev.Job, ev.Map, ev.Attempt, ev.Reduce, ev.Src, ev.Dst, ev.Cookie)
		}
		switch ev.Kind {
		case SpillDetected:
			spilled[ak] = true
		case IndexDecoded:
			if !spilled[ak] {
				return orphan(SpillDetected)
			}
			decoded[ak] = true
		case IntentEnqueued:
			if !decoded[ak] {
				return orphan(IndexDecoded)
			}
			enqueued[ak] = true
		case IntentReceived:
			if !enqueued[ak] {
				return orphan(IntentEnqueued)
			}
			receivedJM[[2]int{ev.Job, ev.Map}] = true
		case BookingMade:
			if !receivedJM[[2]int{ev.Job, ev.Map}] {
				return orphan(IntentReceived)
			}
			bookedPairs[pair{ev.Src, ev.Dst}] = true
		case Placement:
			if !bookedPairs[pair{ev.Src, ev.Dst}] {
				return orphan(BookingMade)
			}
		case InstallStart:
			installStarted[ev.Cookie] = true
		case InstallDone:
			if !installStarted[ev.Cookie] {
				return orphan(InstallStart)
			}
		case FlowAdmitted:
			admitted[fkey{ev.Job, ev.Map, ev.Reduce}] = true
		case FlowCompleted:
			if !admitted[fkey{ev.Job, ev.Map, ev.Reduce}] {
				return orphan(FlowAdmitted)
			}
		}
	}
	return nil
}
