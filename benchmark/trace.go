package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans live in memory until
// the run ends; parent is an index into the same slice (-1 for a root), so a
// parent always precedes its children.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int
	Req    int // request the span belongs to; -1 outside any request
	Lane   int // Chrome-trace row: one per client connection, one for the probes
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// carry no span cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, req, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req, Lane: lane})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose interval was timed by the caller.
func (t *tracer) add(name string, start, end time.Time, parent, req, lane int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Req: req, Lane: lane})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the time its direct children
// cover. Children of one parent never overlap here (each parent's children
// are recorded by one goroutine, sequentially), so the self times of a tree
// sum to its root's duration.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName sums self time and counts spans per name.
func selfByName(spans []span) (map[string]time.Duration, map[string]int) {
	total, count := map[string]time.Duration{}, map[string]int{}
	for i, d := range selfTimes(spans) {
		total[spans[i].Name] += d
		count[spans[i].Name]++
	}
	return total, count
}

// writeChromeTrace writes the spans as a Chrome trace-event document
// (chrome://tracing, Perfetto). It refuses a span recorded before its parent,
// the ordering selfTimes relies on.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) precedes its parent %d", i, s.Name, s.Parent)
		}
		ev := event{Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3}
		if s.Req >= 0 {
			ev.Args = map[string]int{"request": s.Req, "parent": s.Parent}
		}
		events = append(events, ev)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
