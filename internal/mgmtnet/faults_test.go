package mgmtnet

import (
	"math"
	"testing"

	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Tests for the fault model and burst-queueing behavior of the management
// star.

// TestBurstQueueingFIFOAndDeterministic: N senders each burst M messages at
// the same instant. Per-sender delivery must be FIFO, MaxQueueDelay must
// grow to (M-1) transmission times, senders must not serialize against each
// other, and two identical runs must produce identical delivery schedules.
func TestBurstQueueingFIFOAndDeterministic(t *testing.T) {
	const senders, msgs = 4, 8
	const bytes = 12500 // 1 ms at 100 Mbps
	run := func() ([][]sim.Time, sim.Duration) {
		eng := sim.NewEngine()
		n := New(eng, Config{})
		got := make([][]sim.Time, senders)
		for s := 0; s < senders; s++ {
			s := s
			for i := 0; i < msgs; i++ {
				n.Send(topology.NodeID(s), bytes, func() { got[s] = append(got[s], eng.Now()) })
			}
		}
		eng.Run()
		return got, n.MaxQueueDelay
	}
	a, maxQ := run()
	for s := 0; s < senders; s++ {
		if len(a[s]) != msgs {
			t.Fatalf("sender %d delivered %d of %d", s, len(a[s]), msgs)
		}
		for i := 1; i < msgs; i++ {
			// FIFO with exactly one transmission time between arrivals.
			if gap := float64(a[s][i].Sub(a[s][i-1])); math.Abs(gap-0.001) > 1e-9 {
				t.Fatalf("sender %d gap %d = %v, want 1 ms", s, i, gap)
			}
		}
		// Senders are independent half-duplex ports: bursts run in
		// parallel, so every sender's schedule matches sender 0's.
		for i := range a[s] {
			if a[s][i] != a[0][i] {
				t.Fatalf("sender %d delivery %d = %v, sender 0 = %v", s, i, a[s][i], a[0][i])
			}
		}
	}
	// The last message of each burst waited (msgs-1) transmission times.
	if want := sim.Duration((msgs - 1) * 0.001); math.Abs(float64(maxQ-want)) > 1e-9 {
		t.Fatalf("MaxQueueDelay = %v, want %v", maxQ, want)
	}
	b, _ := run()
	for s := range a {
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Fatal("identical bursts, different schedules")
			}
		}
	}
}

func TestDropAllLosesEverythingButBurnsPortTime(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	n.SetFaults(FaultConfig{DropProb: 1, Seed: 1})
	delivered := 0
	for i := 0; i < 5; i++ {
		n.Send(1, 12500, func() { delivered++ })
	}
	eng.Run()
	if delivered != 0 {
		t.Fatalf("%d messages survived DropProb=1", delivered)
	}
	if n.Dropped != 5 || n.Messages != 0 {
		t.Fatalf("Dropped=%d Messages=%d", n.Dropped, n.Messages)
	}
	// Port time is still consumed: a later send from the same port queues
	// behind the dropped burst (5 ms of transmissions).
	var lateAt sim.Time
	n.SetFaults(FaultConfig{}) // heal the star so the probe survives
	n.Send(1, 1250, func() { lateAt = eng.Now() })
	eng.Run()
	if float64(lateAt) < 0.005 {
		t.Fatalf("probe at %v, want after the 5 ms of burned port time", lateAt)
	}
}

func TestDuplicationDeliversTwiceAndCounts(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	n.SetFaults(FaultConfig{DupProb: 1, Seed: 1})
	delivered := 0
	n.Send(1, 1250, func() { delivered++ })
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d times, want 2 (original + duplicate)", delivered)
	}
	if n.Duplicated != 1 || n.Messages != 2 || n.Bytes != 2500 {
		t.Fatalf("Duplicated=%d Messages=%d Bytes=%v", n.Duplicated, n.Messages, n.Bytes)
	}
}

func TestOutageDropPolicy(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	delivered := 0
	n.Fail()
	if !n.down {
		t.Fatal("not down after Fail")
	}
	n.Send(1, 1250, func() { delivered++ })
	n.Recover()
	eng.Run()
	if delivered != 0 {
		t.Fatal("default outage policy delivered a message sent while down")
	}
	if n.Dropped != 1 || n.Deferred != 0 {
		t.Fatalf("Dropped=%d Deferred=%d", n.Dropped, n.Deferred)
	}
}

func TestOutageDeferPolicyReleasesFIFO(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	n.SetFaults(FaultConfig{DeferDuringOutage: true, Seed: 1})
	var order []int
	eng.At(1, func() { n.Fail() })
	eng.At(2, func() {
		for i := 0; i < 3; i++ {
			i := i
			n.Send(1, 1250, func() { order = append(order, i) })
		}
	})
	eng.At(5, func() { n.Recover() })
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("delivered %d of 3 deferred messages", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("defer release out of order: %v", order)
		}
	}
	if n.Deferred != 3 || n.Dropped != 0 {
		t.Fatalf("Deferred=%d Dropped=%d", n.Deferred, n.Dropped)
	}
}

func TestExtraDelayAndJitterDeterministic(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.NewEngine()
		n := New(eng, Config{})
		n.SetFaults(FaultConfig{ExtraDelay: 10 * sim.Millisecond, JitterMax: 5 * sim.Millisecond, Seed: 9})
		var at []sim.Time
		for i := 0; i < 6; i++ {
			n.Send(topology.NodeID(i), 1250, func() { at = append(at, eng.Now()) })
		}
		eng.Run()
		return at
	}
	a := run()
	cfg := New(sim.NewEngine(), Config{}).cfg
	base := sim.Duration(1250*8/cfg.LinkBps) + cfg.PropagationDelay // no-queue delivery
	for _, at := range a {
		d := at.Sub(0)
		if d < base+10*sim.Millisecond || d >= base+15*sim.Millisecond {
			t.Fatalf("delivery at %v outside [base+10ms, base+15ms)", at)
		}
	}
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different jitter")
		}
	}
}

// TestZeroFaultConfigIsInert: installing an all-zero fault model must not
// change a single delivery time (no RNG draws on the hot path).
func TestZeroFaultConfigIsInert(t *testing.T) {
	run := func(install bool) []sim.Time {
		eng := sim.NewEngine()
		n := New(eng, Config{})
		if install {
			n.SetFaults(FaultConfig{Seed: 123})
		}
		var at []sim.Time
		for i := 0; i < 4; i++ {
			n.Send(1, 2500, func() { at = append(at, eng.Now()) })
		}
		eng.Run()
		return at
	}
	plain, zeroed := run(false), run(true)
	for i := range plain {
		if plain[i] != zeroed[i] {
			t.Fatalf("zero fault config perturbed delivery %d: %v vs %v", i, zeroed[i], plain[i])
		}
	}
}
