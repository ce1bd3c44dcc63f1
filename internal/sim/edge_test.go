package sim

import "testing"

// TestCancelAfterFireIsNoop exercises the documented handle rule: Cancel on
// a handle whose event already fired (and whose struct is sitting in the
// free list) is a safe no-op that neither panics nor perturbs later events,
// under the calendar queue and under the heap oracle.
func TestCancelAfterFireIsNoop(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			e := k.new()
			fired := 0
			ev := e.At(1, func() { fired++ })
			e.At(2, func() { fired++ })
			e.Run()
			if fired != 2 {
				t.Fatalf("fired = %d, want 2", fired)
			}
			e.Cancel(ev) // already fired: must be a no-op
			e.Cancel(ev)
			// The free list must still hand out clean events afterwards.
			e.At(3, func() { fired++ })
			e.Run()
			if fired != 3 {
				t.Fatalf("post-cancel event did not fire: fired = %d, want 3", fired)
			}
		})
	}
}

// TestTickerSetPeriodOutsideCallback changes the period from a foreground
// event between firings: the already-scheduled next tick keeps its old time,
// and the new period applies from the firing after it.
func TestTickerSetPeriodOutsideCallback(t *testing.T) {
	e := NewEngine()
	var at []Time
	tk := e.Every(1, func() { at = append(at, e.Now()) })
	e.At(1.5, func() { tk.SetPeriod(3) })
	e.At(9, func() {})
	e.Run()
	// Ticks at 1, 2 (already armed before the change), then 5, 8.
	want := []Time{1, 2, 5, 8}
	if len(at) != len(want) {
		t.Fatalf("firings: %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("firings: %v, want %v", at, want)
		}
	}
}
