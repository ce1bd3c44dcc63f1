package sim

import (
	"math"
	"testing"

	"pythia/internal/stats"
)

// firing is one delivered event in a golden sequence.
type firing struct {
	at Time
	id int
}

// driveScript runs a randomized scheduling workload — bursts of same-instant
// events, cancellations, nested scheduling, tickers, daemon events — against
// one engine and records the exact delivery sequence.
func driveScript(eng *Engine, seed uint64) []firing {
	rng := stats.NewRNG(seed)
	var log []firing
	id := 0
	var pending []*Event

	schedule := func(at Time) {
		id++
		me := id
		var ev *Event
		ev = eng.At(at, func() {
			log = append(log, firing{eng.Now(), me})
			_ = ev
			// Occasionally fan out: same-instant and near-future events.
			switch rng.Intn(5) {
			case 0:
				id++
				inner := id
				eng.At(eng.Now(), func() { log = append(log, firing{eng.Now(), inner}) })
			case 1:
				id++
				inner := id
				eng.After(Duration(rng.Float64()*0.3), func() { log = append(log, firing{eng.Now(), inner}) })
			}
		})
		pending = append(pending, ev)
	}

	// Seed a spread of events: clustered bursts plus a sparse far tail.
	for i := 0; i < 200; i++ {
		at := Time(rng.Float64() * 10)
		if i%17 == 0 {
			at = Time(float64(i % 5)) // exact collisions, FIFO tie-break
		}
		if i%41 == 0 {
			at = Time(1000 + rng.Float64()*1000) // sparse far future
		}
		schedule(at)
	}
	// A ticker and a daemon that spans part of the run.
	ticks := 0
	eng.Every(0.7, func() {
		ticks++
		log = append(log, firing{eng.Now(), -1})
		if ticks == 5 {
			// Period change takes effect from the next firing.
		}
	})
	eng.AtDaemon(3.3, func() { log = append(log, firing{eng.Now(), -2}) })
	// Cancel a deterministic subset mid-run.
	eng.At(2.5, func() {
		for i := 0; i < len(pending); i += 7 {
			eng.Cancel(pending[i])
		}
	})
	eng.Run()
	return log
}

// TestCalendarMatchesHeapGolden proves the calendar queue delivers the exact
// event sequence the binary heap does — same times, same FIFO tie-breaks,
// same interleaving — under a randomized storm of bursts, cancels, nested
// scheduling and daemon events.
func TestCalendarMatchesHeapGolden(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 12345} {
		hp := driveScript(newHeapEngine(), seed)
		cal := driveScript(NewEngine(), seed)
		if len(hp) == 0 {
			t.Fatalf("seed %d: empty firing log", seed)
		}
		if len(hp) != len(cal) {
			t.Fatalf("seed %d: heap fired %d events, calendar %d", seed, len(hp), len(cal))
		}
		for i := range hp {
			if hp[i] != cal[i] {
				t.Fatalf("seed %d: firing %d diverged: heap %+v calendar %+v", seed, i, hp[i], cal[i])
			}
		}
	}
}

// TestCalendarResizeCycles exercises growth and shrink through the lazy
// resize thresholds: a large wave enqueued, partially cancelled, fully
// drained, then a second sparse wave.
func TestCalendarResizeCycles(t *testing.T) {
	eng := NewEngine()
	fired := 0
	var evs []*Event
	for i := 0; i < 5000; i++ {
		evs = append(evs, eng.At(Time(float64(i)*1e-4), func() { fired++ }))
	}
	for i := 0; i < 5000; i += 3 {
		eng.Cancel(evs[i])
	}
	eng.Run()
	want := 5000 - len(pickEvery(5000, 3))
	if fired != want {
		t.Fatalf("fired %d events, want %d", fired, want)
	}
	// Sparse second wave far apart in time (direct-search path).
	fired = 0
	for i := 0; i < 5; i++ {
		eng.After(Duration(math.Pow(10, float64(i))), func() { fired++ })
	}
	eng.Run()
	if fired != 5 {
		t.Fatalf("sparse wave fired %d, want 5", fired)
	}
}

func pickEvery(n, k int) []int {
	var out []int
	for i := 0; i < n; i += k {
		out = append(out, i)
	}
	return out
}

// TestCalendarSameInstantBurst drains a large same-timestamp burst in FIFO
// order without quadratic blowup (head removals slice forward).
func TestCalendarSameInstantBurst(t *testing.T) {
	eng := NewEngine()
	var order []int
	const n = 20000
	for i := 0; i < n; i++ {
		i := i
		eng.At(1, func() { order = append(order, i) })
	}
	eng.Run()
	if len(order) != n {
		t.Fatalf("fired %d, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

// TestFreeListRecycles proves steady-state scheduling reuses Event structs.
func TestFreeListRecycles(t *testing.T) {
	eng := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 100 {
			eng.After(0.01, step)
		}
	}
	eng.After(0.01, step)
	eng.Run()
	if n != 100 {
		t.Fatalf("chain ran %d steps, want 100", n)
	}
	if eng.Recycled < 90 {
		t.Fatalf("free list recycled only %d events over a 100-step chain", eng.Recycled)
	}
}

// BenchmarkEngineSchedule guards the allocation-free steady state of the
// schedule/fire hot path: after warm-up, the After→fire→After chain must run
// at 0 allocs/op off the free list. The heap row is the oracle's cost on the
// same chain, for reference.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			eng := k.new()
			// Standing population so the queue is non-trivial.
			for i := 0; i < 256; i++ {
				eng.AtDaemon(Time(float64(i)), func() {})
			}
			n := 0
			var step func()
			step = func() {
				n++
				if n < b.N {
					eng.After(1e-3, step)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.After(1e-3, step)
			eng.Run()
			b.StopTimer()
			if got := testing.AllocsPerRun(1, func() {
				eng.Cancel(eng.After(1e-3, func() {}))
			}); got > 0 {
				b.Fatalf("steady-state schedule+cancel allocated %v times/op, want 0", got)
			}
		})
	}
}
