package trace

import (
	"encoding/json"
	"fmt"
	"sort"

	"pythia/internal/flight"
	"pythia/internal/sim"
)

// chromeEvent is one Trace Event Format record ("X" = complete event).
// The format is consumed by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

func (k SpanKind) category() string {
	switch k {
	case MapSpan:
		return "map"
	case ShuffleSpan:
		return "shuffle"
	case ReduceSpan:
		return "reduce"
	}
	return "unknown"
}

// ChromeTrace exports the job as Chrome trace-event JSON: one "thread" per
// tasktracker, a complete-event per task span, and one per shuffle fetch
// (on a dedicated fetch lane per reducer). Returns nil for a nil Sequence.
func (s *Sequence) ChromeTrace() ([]byte, error) {
	if s == nil {
		return nil, nil
	}
	return marshalChrome(s.fabricChromeEvents(s.job.Submitted))
}

// marshalChrome renders trace events in the Chrome/Perfetto JSON envelope.
func marshalChrome(events []chromeEvent) ([]byte, error) {
	return json.MarshalIndent(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	}, "", " ")
}

// fabricChromeEvents renders the job's task spans and fetch lanes (pid 0)
// relative to t0.
func (s *Sequence) fabricChromeEvents(t0 sim.Time) []chromeEvent {
	var events []chromeEvent
	for _, sp := range s.spans {
		events = append(events, chromeEvent{
			Name:  fmt.Sprintf("%s (%s)", sp.Label, sp.Kind.category()),
			Cat:   sp.Kind.category(),
			Phase: "X",
			TsUs:  float64(sp.Start.Sub(t0)) * 1e6,
			DurUs: float64(sp.End.Sub(sp.Start)) * 1e6,
			PID:   0,
			TID:   sp.Host,
			Args:  map[string]any{"host": sp.Host},
		})
	}
	// Fetch lanes: tid = 1000 + reducer ID keeps them clear of tracker
	// rows. Ties on (Start, Map) are common and land wherever sort.Slice
	// puts them given the completion-ordered input, so the pinned Chrome
	// bytes depend on both the input order and this exact comparator.
	fetches := append([]FetchRecord(nil), s.fetches...)
	sort.Slice(fetches, func(i, j int) bool {
		if fetches[i].Start != fetches[j].Start {
			return fetches[i].Start < fetches[j].Start
		}
		return fetches[i].Map < fetches[j].Map
	})
	for _, f := range fetches {
		events = append(events, chromeEvent{
			Name:  fmt.Sprintf("fetch m%d→r%d", f.Map, f.Reduce),
			Cat:   "fetch",
			Phase: "X",
			TsUs:  float64(f.Start.Sub(t0)) * 1e6,
			DurUs: float64(f.End.Sub(f.Start)) * 1e6,
			PID:   0,
			TID:   1000 + f.Reduce,
			Args: map[string]any{
				"bytes":  f.Bytes,
				"remote": f.Remote,
			},
		})
	}
	return events
}

// Control-plane lane assignment for the merged trace (pid 1).
var planeLanes = map[flight.Plane]int{
	flight.PlaneMonitor:   1,
	flight.PlaneMgmt:      2,
	flight.PlaneCollector: 3,
	flight.PlaneControl:   4,
	flight.PlaneFabric:    5,
	flight.PlaneServe:     6,
}

// MergedChrome exports one Chrome/Perfetto trace holding both the fabric
// view (the job's task spans and fetch lanes, pid 0) and the control-plane
// view (flight-recorder events on per-plane lanes, pid 1): rule-install
// RTTs and shuffle-flow lifetimes render as duration spans, everything else
// as instants. Either source may be absent: a nil Sequence yields control
// lanes only, and an empty event log yields the plain fabric trace.
func MergedChrome(s *Sequence, events []flight.Event) ([]byte, error) {
	// A common clock: the job submit instant when known, else the first
	// flight event, so timestamps are never negative.
	var t0 sim.Time
	haveT0 := false
	if s != nil {
		t0 = s.job.Submitted
		haveT0 = true
	}
	if len(events) > 0 && (!haveT0 || events[0].T < t0) {
		t0 = events[0].T
	}

	var out []chromeEvent
	if s != nil {
		out = append(out,
			chromeEvent{Name: "process_name", Phase: "M", PID: 0,
				Args: map[string]any{"name": "fabric"}})
		out = append(out, s.fabricChromeEvents(t0)...)
	}
	if len(events) > 0 {
		out = append(out,
			chromeEvent{Name: "process_name", Phase: "M", PID: 1,
				Args: map[string]any{"name": "control plane"}})
		for _, pl := range []flight.Plane{flight.PlaneMonitor, flight.PlaneMgmt,
			flight.PlaneCollector, flight.PlaneControl, flight.PlaneFabric,
			flight.PlaneServe} {
			out = append(out, chromeEvent{Name: "thread_name", Phase: "M",
				PID: 1, TID: planeLanes[pl], Args: map[string]any{"name": string(pl)}})
		}
	}
	for i := range events {
		out = append(out, controlChromeEvent(&events[i], t0))
	}
	return marshalChrome(out)
}

// controlChromeEvent converts one flight event to a trace record on its
// plane's lane. Events carrying a duration (install RTT, flow lifetime)
// become "X" complete events spanning it; the rest are "i" instants.
func controlChromeEvent(ev *flight.Event, t0 sim.Time) chromeEvent {
	ce := chromeEvent{
		Name:  string(ev.Kind),
		Cat:   string(ev.Plane),
		Phase: "i",
		TsUs:  float64(ev.T.Sub(t0)) * 1e6,
		PID:   1,
		TID:   planeLanes[ev.Plane],
	}
	spanKind := ev.Kind == flight.InstallDone || ev.Kind == flight.FlowCompleted ||
		ev.Kind == flight.BatchJournaled || ev.Kind == flight.BatchCommitted ||
		ev.Kind == flight.RecoveryReplay
	if spanKind && ev.DelaySec > 0 {
		ce.Phase = "X"
		ce.TsUs -= ev.DelaySec * 1e6
		ce.DurUs = ev.DelaySec * 1e6
	}
	args := map[string]any{}
	if ev.Job >= 0 {
		args["job"] = ev.Job
	}
	if ev.Map >= 0 {
		args["map"] = ev.Map
	}
	if ev.Reduce >= 0 {
		args["reduce"] = ev.Reduce
	}
	if ev.Src >= 0 {
		args["src"] = int(ev.Src)
	}
	if ev.Dst >= 0 {
		args["dst"] = int(ev.Dst)
	}
	if ev.Cookie != 0 {
		args["cookie"] = ev.Cookie
	}
	if ev.Bytes != 0 {
		args["bytes"] = ev.Bytes
	}
	if ev.Disposition != "" {
		args["disposition"] = ev.Disposition
	}
	if ev.Path != "" {
		args["path"] = ev.Path
	}
	if ev.Detail != "" {
		args["detail"] = ev.Detail
	}
	if len(args) > 0 {
		ce.Args = args
	}
	return ce
}
