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
