// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant are delivered in scheduling order
// (FIFO), which keeps runs fully deterministic. All of the simulated
// substrates in this repository (the network, the Hadoop runtime, the SDN
// controller) are driven by a single Engine so that their interleavings are
// reproducible.
//
// The pending-event structure is a bucketed calendar queue (calendar.go):
// O(1) amortized enqueue/dequeue in strict (time, seq) order. The tests keep
// a binary heap beside it as the ordering oracle (heap_test.go). Fired and
// cancelled events are recycled through a free list, making
// steady-state scheduling allocation-free (BenchmarkEngineSchedule guards
// this); an *Event handle is therefore only valid until its event fires or
// is cancelled, and must not be retained or Cancelled after a later event
// may have reused it.
package sim

import (
	"fmt"
)

// Time is a point in virtual time, measured in seconds from simulation
// start. A float64 gives sub-microsecond resolution over multi-hour
// simulated horizons, which is ample for flow-level modeling.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Common durations, for readability at call sites.
const (
	Millisecond Duration = 1e-3
	Second      Duration = 1
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats a virtual time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// String formats a duration as seconds with millisecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.3fs", float64(d)) }

// Event is a scheduled callback. The callback runs exactly once, at its
// scheduled time, unless cancelled first.
//
// Lifecycle: the handle returned by At/After is live until the event fires
// or is cancelled, at which point the engine recycles the struct through
// its free list. Cancel on a just-fired or just-cancelled event is a safe
// no-op, but a handle must not be used after a subsequent event could have
// been scheduled (the struct may then describe a different event).
type Event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among same-time events
	fn     func()
	index  int // queue bookkeeping; -1 once removed
	cancel bool
	daemon bool
}

// before reports strict (time, seq) priority order.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// scheduler is what the engine needs of its pending-event structure. The
// engine relies only on (time, seq) ordering, so any correct implementation
// delivers the identical event sequence; production code has one
// (calendarQueue), and the interface is how the tests put the heap oracle
// under the same engine.
type scheduler interface {
	push(*Event)
	// popMin removes and returns the earliest event, or nil when empty.
	popMin() *Event
	// peekMin returns the earliest event without removing it, or nil.
	peekMin() *Event
	// remove deletes a queued event (Cancel).
	remove(*Event)
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now       Time
	sched     scheduler
	seq       uint64
	nonDaemon int
	// free recycles fired/cancelled Event structs so steady-state
	// scheduling allocates nothing.
	free []*Event
	// Processed counts events that have fired.
	Processed uint64
	// Recycled counts Event structs served from the free list (telemetry
	// for the allocation-free claim; tests assert it grows).
	Recycled uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{sched: newCalendarQueue()} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an Event from the free list (or the heap allocator) and
// initializes it.
func (e *Engine) alloc(t Time, fn func(), daemon bool) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.Recycled++
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.index = 0
	ev.cancel = false
	ev.daemon = daemon
	e.seq++
	return ev
}

// release returns a fired or cancelled event to the free list. The fn
// reference is dropped so captured state does not outlive the event.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc(t, fn, false)
	e.nonDaemon++
	e.sched.push(ev)
	return ev
}

// AtDaemon schedules a background event that does not keep Run alive:
// when only daemon events remain pending, Run returns. Recurring pollers
// (SDN statistics, NetFlow sampling) use this so simulations terminate when
// the workload drains.
func (e *Engine) AtDaemon(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc(t, fn, true)
	e.sched.push(ev)
	return ev
}

// AfterDaemon is AtDaemon relative to the current time.
func (e *Engine) AfterDaemon(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtDaemon(e.now.Add(d), fn)
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op. The cancelled event's struct is
// recycled: the handle must not be used afterwards.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancel || ev.index < 0 {
		if ev != nil {
			ev.cancel = true
		}
		return
	}
	ev.cancel = true
	e.sched.remove(ev)
	ev.index = -1
	if !ev.daemon {
		e.nonDaemon--
	}
	e.release(ev)
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool {
	ev := e.sched.popMin()
	if ev == nil {
		return false
	}
	ev.index = -1
	e.now = ev.at
	e.Processed++
	if !ev.daemon {
		e.nonDaemon--
	}
	fn := ev.fn
	// Recycle before the callback: the handle is dead (fired), and the
	// callback frequently schedules a successor that can reuse the struct
	// immediately (the netsim completion-event pattern).
	e.release(ev)
	fn()
	return true
}

// Run processes events until no non-daemon events remain. Daemon events
// earlier than the last non-daemon event still fire.
func (e *Engine) Run() {
	for e.nonDaemon > 0 && e.Step() {
	}
}

// RunUntil processes events with time ≤ deadline. Events scheduled after the
// deadline remain queued; the clock is advanced to the deadline if the
// simulation ran dry earlier.
func (e *Engine) RunUntil(deadline Time) {
	for {
		head := e.sched.peekMin()
		if head == nil || head.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Every schedules fn as a recurring daemon: it fires every period while
// foreground work keeps the simulation alive, and never prevents Run from
// returning. The first firing is one period from now.
func (e *Engine) Every(period Duration, fn func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	var tick func()
	tick = func() {
		fn()
		e.AfterDaemon(period, tick)
	}
	e.AfterDaemon(period, tick)
}
