package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if pending(e) != 0 {
		t.Fatalf("pending = %d, want 0", pending(e))
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(10, func() {
		e.After(5, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 15 {
		t.Fatalf("nested After fired at %v, want 15", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.cancel {
		t.Fatal("cancel flag unset after Cancel")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []Time
	evs := make([]*Event, 0, 10)
	for i := 1; i <= 10; i++ {
		at := Time(i)
		evs = append(evs, e.At(at, func() { got = append(got, at) }))
	}
	e.Cancel(evs[4]) // t=5
	e.Cancel(evs[7]) // t=8
	e.Run()
	for _, at := range got {
		if at == 5 || at == 8 {
			t.Fatalf("cancelled event at %v fired", at)
		}
	}
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8", len(got))
	}
}

func TestDoubleCancelIsNoop(t *testing.T) {
	e := NewEngine()
	ev := e.At(1, func() {})
	e.Cancel(ev)
	e.Cancel(ev) // must not panic
	e.Cancel(nil)
	e.Run()
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 10, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(5)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before deadline, want 3", len(fired))
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %v after RunUntil(5), want 5", e.Now())
	}
	if pending(e) != 2 {
		t.Fatalf("pending = %d, want 2", pending(e))
	}
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWhenDry(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", e.Now())
	}
}

func TestProcessedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Processed != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(10).Add(2.5)
	if tm != 12.5 {
		t.Fatalf("Add = %v, want 12.5", tm)
	}
	if d := Time(12.5).Sub(Time(10)); d != 2.5 {
		t.Fatalf("Sub = %v, want 2.5", d)
	}
}

func TestStringFormats(t *testing.T) {
	if s := Time(1.2345).String(); s != "1.234s" && s != "1.235s" {
		t.Fatalf("Time.String = %q", s)
	}
	if s := Duration(0.5).String(); s != "0.500s" {
		t.Fatalf("Duration.String = %q", s)
	}
}

// Property: for any set of scheduled times, events fire in nondecreasing
// time order and the clock never goes backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r) / 16
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement firing.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		e := NewEngine()
		n := 1 + rng.Intn(50)
		firedCount := 0
		evs := make([]*Event, n)
		for i := 0; i < n; i++ {
			evs[i] = e.At(Time(rng.Intn(100)), func() { firedCount++ })
		}
		cancelled := 0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(evs[i])
				cancelled++
			}
		}
		e.Run()
		if firedCount != n-cancelled {
			t.Fatalf("iter %d: fired %d, want %d", iter, firedCount, n-cancelled)
		}
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		e.Run()
	}
}
