package mgmtnet

import (
	"math"
	"testing"

	"pythia/internal/sim"
)

func TestDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.LinkBps != 100e6 || c.PropagationDelay != 0.0005 {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := Config{LinkBps: 1e9}.Defaults()
	if c2.LinkBps != 1e9 {
		t.Fatal("explicit LinkBps overridden")
	}
}

func TestSingleMessageLatency(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	var at sim.Time
	// 1250 bytes at 100 Mbps = 0.1 ms tx + 0.5 ms propagation.
	n.Send(1, 1250, func() { at = eng.Now() })
	eng.Run()
	want := 0.0001 + 0.0005
	if math.Abs(float64(at)-want) > 1e-9 {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSameSenderSerializes(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	var first, second sim.Time
	n.Send(1, 12500, func() { first = eng.Now() })  // 1 ms tx
	n.Send(1, 12500, func() { second = eng.Now() }) // queued behind
	eng.Run()
	if math.Abs(float64(first)-0.0015) > 1e-9 {
		t.Fatalf("first at %v", first)
	}
	if math.Abs(float64(second)-0.0025) > 1e-9 {
		t.Fatalf("second at %v, want 2.5ms (serialized)", second)
	}
	if n.MaxQueueDelay <= 0 {
		t.Fatal("queue delay not recorded")
	}
}

func TestDifferentSendersParallel(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	var a, b sim.Time
	n.Send(1, 12500, func() { a = eng.Now() })
	n.Send(2, 12500, func() { b = eng.Now() })
	eng.Run()
	if a != b {
		t.Fatalf("independent senders serialized: %v vs %v", a, b)
	}
}

func TestAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	n.Send(1, 100, func() {})
	n.Send(2, 200, func() {})
	eng.Run()
	if n.Messages != 2 || n.Bytes != 300 {
		t.Fatalf("messages=%d bytes=%v", n.Messages, n.Bytes)
	}
}

func TestSendPanicsOnEmpty(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	defer func() {
		if recover() == nil {
			t.Error("zero-byte send did not panic")
		}
	}()
	n.Send(1, 0, func() {})
}

func TestQueueDrainsOverTime(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	// Burst of 10 messages at t=0, then one at t=1: the late message
	// must not queue (port long idle).
	for i := 0; i < 10; i++ {
		n.Send(1, 1250, func() {})
	}
	var lateAt sim.Time
	eng.At(1, func() {
		n.Send(1, 1250, func() { lateAt = eng.Now() })
	})
	eng.Run()
	if math.Abs(float64(lateAt)-1.0006) > 1e-9 {
		t.Fatalf("late message at %v, want 1.0006", lateAt)
	}
}
