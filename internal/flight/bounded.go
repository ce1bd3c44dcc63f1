package flight

import (
	"sync"

	"pythia/internal/sim"
)

// LiveRecorder is a bounded, concurrency-safe Sink for the online serving
// plane. Unlike Recorder — which grows without bound and trusts the
// simulator's single-threaded callback order — LiveRecorder keeps the most
// recent cap events in a ring and guards itself with a mutex, so a
// long-running service can leave span recording enabled without unbounded
// memory growth. Timestamps come from the now callback (the service's
// virtual clock); events recorded with a nonzero T keep it.
type LiveRecorder struct {
	mu     sync.Mutex
	now    func() sim.Time
	events []Event
	start  int // ring read position, valid when len(events) == cap(events)
}

// NewLiveRecorder returns a recorder retaining the last capEvents events.
// now supplies the timestamp for events recorded with T == 0; it may be nil
// if producers always stamp T themselves.
func NewLiveRecorder(capEvents int, now func() sim.Time) *LiveRecorder {
	if capEvents < 1 {
		capEvents = 1
	}
	return &LiveRecorder{now: now, events: make([]Event, 0, capEvents)}
}

// Record appends ev, evicting the oldest event when the ring is full.
func (r *LiveRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if ev.T == 0 && r.now != nil {
		ev.T = r.now()
	}
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, ev)
	} else {
		r.events[r.start] = ev
		r.start = (r.start + 1) % len(r.events)
	}
	r.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first.
func (r *LiveRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Len reports how many events are currently retained.
func (r *LiveRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// JSONL serializes the retained events as JSON Lines, oldest first.
func (r *LiveRecorder) JSONL() []byte { return MarshalJSONL(r.Events()) }
