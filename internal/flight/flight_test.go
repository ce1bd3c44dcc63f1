package flight

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pythia/internal/sim"
)

// TestHistogramBucketEdges pins the Prometheus `le` semantics: a value
// exactly on an edge lands in that edge's bucket, values below the first
// edge in the first, values above the last in +Inf, and NaN is skipped.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", "test", []float64{1, 2, 5})
	for _, v := range []float64{
		0.5,        // below first edge -> bucket le=1
		1,          // exactly on an edge -> bucket le=1
		1.0000001,  // just past -> bucket le=2
		2,          // on edge -> le=2
		5,          // on last edge -> le=5
		6,          // above last edge -> +Inf
		-3,         // negative -> le=1
		math.NaN(), // skipped entirely
	} {
		h.Observe(v)
	}
	edges, counts := h.Buckets()
	if len(edges) != 3 || len(counts) != 4 {
		t.Fatalf("bucket shape: %v %v", edges, counts)
	}
	want := []uint64{3, 2, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n != 7 {
		t.Fatalf("count %d, want 7 (NaN must be skipped)", n)
	}
	if got, want := h.Sum(), 0.5+1+1.0000001+2+5+6-3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum %v, want %v", got, want)
	}
}

func TestHistogramRejectsUnsortedEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted edges must panic")
		}
	}()
	NewRegistry().Histogram("bad", "test", []float64{2, 1})
}

func TestRegistryRejectsTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter(`m{kind="a"}`, "test")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a base name under a different type must panic")
		}
	}()
	r.Gauge(`m{kind="b"}`, "test")
}

// TestPrometheusTextFormat checks the exposition-format invariants: sorted
// series, single HELP/TYPE per base name across labeled series, cumulative
// histogram buckets with a +Inf terminator, and determinism.
func TestPrometheusTextFormat(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		// Registration order deliberately scrambled: output must not care.
		r.Counter(`ev{kind="b"}`, "events").Add(2)
		r.Gauge("frac", "a fraction").Set(0.25)
		h := r.Histogram("lat", "latency", []float64{0.1, 1})
		h.Observe(0.05)
		h.Observe(0.5)
		h.Observe(2)
		r.Counter(`ev{kind="a"}`, "events").Inc()
		return r.PrometheusText()
	}
	text := build()
	if text != build() {
		t.Fatal("snapshot not deterministic across identical builds")
	}
	want := `# HELP ev events
# TYPE ev counter
ev{kind="a"} 1
ev{kind="b"} 2
# HELP frac a fraction
# TYPE frac gauge
frac 0.25
# HELP lat latency
# TYPE lat histogram
lat_bucket{le="0.1"} 1
lat_bucket{le="1"} 2
lat_bucket{le="+Inf"} 3
lat_sum 2.55
lat_count 3
`
	if text != want {
		t.Fatalf("snapshot mismatch:\n got:\n%s\nwant:\n%s", text, want)
	}
}

// TestJSONLRoundTrip: marshal → parse is lossless and the encoding is
// deterministic (fixed struct field order, one object per line).
func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		func() Event {
			ev := Ev(SpillDetected, PlaneMonitor)
			ev.T = sim.Time(1.5)
			ev.Job, ev.Map, ev.Attempt, ev.Src = 0, 3, 1, 7
			ev.Disposition = DispOK
			return ev
		}(),
		func() Event {
			ev := Ev(InstallDone, PlaneControl)
			ev.T = sim.Time(2.25)
			ev.Src, ev.Dst = 7, 9
			ev.Cookie = 42
			ev.DelaySec = 0.004
			ev.Disposition = DispOK
			return ev
		}(),
	}
	data := MarshalJSONL(events)
	if n := bytes.Count(data, []byte("\n")); n != len(events) {
		t.Fatalf("%d lines for %d events", n, len(events))
	}
	back, err := ParseJSONL(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, back[i], events[i])
		}
	}
	if !bytes.Equal(MarshalJSONL(back), data) {
		t.Fatal("re-marshal not byte-identical")
	}
}

// synthetic builds a minimal complete lifecycle for one flow:
// spill → decode → enqueue → receive → booking → placement → install →
// admit → complete, with known timings.
func synthetic() []Event {
	at := func(tv float64, ev Event) Event { ev.T = sim.Time(tv); return ev }
	ids := func(ev Event, job, mapID, attempt, reduce int) Event {
		ev.Job, ev.Map, ev.Attempt, ev.Reduce = job, mapID, attempt, reduce
		return ev
	}
	spill := ids(Ev(SpillDetected, PlaneMonitor), 0, 1, 1, -1)
	spill.Src = 2
	spill.Disposition = DispOK
	decoded := ids(Ev(IndexDecoded, PlaneMonitor), 0, 1, 1, -1)
	enq := ids(Ev(IntentEnqueued, PlaneMonitor), 0, 1, 1, -1)
	recv := ids(Ev(IntentReceived, PlaneCollector), 0, 1, 1, -1)
	recv.Disposition = DispOK
	book := ids(Ev(BookingMade, PlaneCollector), 0, 1, 1, 0)
	book.Src, book.Dst = 2, 5
	book.Bytes = 110
	book.Disposition = DispNew
	place := Ev(Placement, PlaneCollector)
	place.Src, place.Dst = 2, 5
	istart := Ev(InstallStart, PlaneControl)
	istart.Cookie = 9
	idone := Ev(InstallDone, PlaneControl)
	idone.Cookie = 9
	idone.Src, idone.Dst = 2, 5
	idone.DelaySec = 0.01
	idone.Disposition = DispOK
	admit := ids(Ev(FlowAdmitted, PlaneFabric), 0, 1, -1, 0)
	admit.Src, admit.Dst = 2, 5
	admit.Bytes = 100
	done := ids(Ev(FlowCompleted, PlaneFabric), 0, 1, -1, 0)
	done.Src, done.Dst = 2, 5
	done.Bytes = 100
	done.DelaySec = 1
	return []Event{
		at(1.0, spill), at(1.01, decoded), at(1.02, enq), at(1.03, recv),
		at(1.04, book), at(1.05, place), at(1.05, istart), at(1.06, idone),
		at(3.06, admit), at(4.06, done),
	}
}

func TestComputeQualitySynthetic(t *testing.T) {
	q := ComputeQuality(synthetic())
	if q.Intents != 1 || q.Bookings != 1 || q.Placements != 1 || q.Installs != 1 {
		t.Fatalf("volume counters: %+v", q)
	}
	if q.FabricFlows != 1 || q.CoveredFlows != 1 || q.LeadSamples != 1 {
		t.Fatalf("coverage: %+v", q)
	}
	if got, want := q.LeadP50Sec, 2.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("lead p50 %v, want %v", got, want)
	}
	if q.LateFraction != 0 {
		t.Fatalf("late fraction %v, want 0", q.LateFraction)
	}
	// Predicted 110 vs actual 100 -> +10% signed error.
	if got := q.ByteErrMeanFrac; math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("byte error %v, want 0.1", got)
	}
}

// TestComputeQualityLateFlow: an admitted covered flow with no prior install
// counts late; uncovered flows are out of scope.
func TestComputeQualityLateFlow(t *testing.T) {
	events := synthetic()
	// Strip the install events: the flow still has a booking, so it is
	// covered, but the race is lost.
	var stripped []Event
	for _, ev := range events {
		if ev.Kind == InstallStart || ev.Kind == InstallDone {
			continue
		}
		stripped = append(stripped, ev)
	}
	q := ComputeQuality(stripped)
	if q.CoveredFlows != 1 || q.LeadSamples != 0 {
		t.Fatalf("coverage: %+v", q)
	}
	if q.LateFraction != 1 {
		t.Fatalf("late fraction %v, want 1", q.LateFraction)
	}
	// An uncovered flow (no booking anywhere) is not classified at all.
	uncov := Ev(FlowAdmitted, PlaneFabric)
	uncov.T = sim.Time(5)
	uncov.Job, uncov.Map, uncov.Reduce = 0, 99, 0
	q = ComputeQuality(append(stripped, uncov))
	if q.FabricFlows != 2 || q.CoveredFlows != 1 {
		t.Fatalf("uncovered flow misclassified: %+v", q)
	}
}

func TestVerifyChainsCleanAndOrphans(t *testing.T) {
	if err := VerifyChains(synthetic()); err != nil {
		t.Fatalf("complete lifecycle flagged: %v", err)
	}
	// Forward incompleteness is legal: drop everything after the enqueue.
	events := synthetic()
	if err := VerifyChains(events[:3]); err != nil {
		t.Fatalf("truncated (but causal) log flagged: %v", err)
	}
	// An effect without its cause is not: each removal below orphans the
	// named later event.
	drops := []struct {
		drop   Kind
		orphan Kind
	}{
		{SpillDetected, IndexDecoded},
		{IndexDecoded, IntentEnqueued},
		{IntentEnqueued, IntentReceived},
		{IntentReceived, BookingMade},
		{BookingMade, Placement},
		{InstallStart, InstallDone},
		{FlowAdmitted, FlowCompleted},
	}
	for _, d := range drops {
		var mutated []Event
		for _, ev := range synthetic() {
			if ev.Kind != d.drop {
				mutated = append(mutated, ev)
			}
		}
		err := VerifyChains(mutated)
		if err == nil {
			t.Fatalf("dropping %s left no orphan", d.drop)
		}
		if !strings.Contains(err.Error(), string(d.orphan)) || !strings.Contains(err.Error(), string(d.drop)) {
			t.Fatalf("dropping %s: error does not name orphan %s and parent: %v", d.drop, d.orphan, err)
		}
	}
}

func TestSummarizeSynthetic(t *testing.T) {
	s := Summarize(synthetic())
	for _, want := range []string{
		"job 0:", "1 bookings", "1 placements", "1 installs",
		"critical path of worst aggregate h2->h5",
		"spill detected", "rules installed", "flow completed",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if got := Summarize(nil); !strings.Contains(got, "no job-scoped flight events") {
		t.Fatalf("empty-log summary: %q", got)
	}
}

// TestBuildMetricsSnapshot: the standard registry exposes the full kind
// vocabulary (zero-valued series included) and the quality gauges.
func TestBuildMetricsSnapshot(t *testing.T) {
	text := BuildMetrics(synthetic()).PrometheusText()
	for _, want := range []string{
		`pythia_flight_events_total{kind="spill-detected"} 1`,
		`pythia_flight_events_total{kind="mgmt-dropped"} 0`, // pre-registered, unused
		`pythia_lead_time_seconds_count 1`,
		`pythia_install_rtt_seconds_bucket{le="+Inf"} 1`,
		"pythia_late_prediction_fraction 0",
		"pythia_fabric_flows 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, text)
		}
	}
	if text != BuildMetrics(synthetic()).PrometheusText() {
		t.Fatal("BuildMetrics snapshot not deterministic")
	}
}

// TestRecorderNilSafety: a nil *Recorder is inert through every accessor (the
// facade calls them without a recorder attached).
func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	r.Record(Ev(SpillDetected, PlaneMonitor))
	if r.Len() != 0 || r.Events() != nil || r.JSONL() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestRecorderStampsSimTime(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	eng.At(2.5, func() { r.Record(Ev(SpillDetected, PlaneMonitor)) })
	eng.Run()
	if r.Len() != 1 || r.Events()[0].T != sim.Time(2.5) {
		t.Fatalf("timestamp not taken from the engine clock: %+v", r.Events())
	}
}
