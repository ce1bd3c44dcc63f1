package sim

import "testing"

// Daemon-event semantics: background pollers must not keep Run alive, but
// still fire while foreground work remains.

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	e := NewEngine()
	fired := 0
	var poll func()
	poll = func() {
		fired++
		e.AfterDaemon(1, poll)
	}
	e.AfterDaemon(1, poll)
	e.At(5, func() {}) // the only foreground event
	e.Run()
	if e.Now() != 5 {
		t.Fatalf("Run ended at %v, want 5", e.Now())
	}
	// Daemons at t=1..4 fired; the t=5 daemon was enqueued after the
	// foreground event at t=5, so Run stopped before it.
	if fired != 4 {
		t.Fatalf("daemon fired %d times, want 4", fired)
	}
}

func TestDaemonOnlyQueueRunsNothing(t *testing.T) {
	e := NewEngine()
	fired := false
	e.AtDaemon(1, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("daemon fired with no foreground work")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v", e.Now())
	}
}

func TestRunUntilProcessesDaemons(t *testing.T) {
	e := NewEngine()
	fired := 0
	var poll func()
	poll = func() {
		fired++
		e.AfterDaemon(1, poll)
	}
	e.AfterDaemon(1, poll)
	e.RunUntil(3.5)
	if fired != 3 {
		t.Fatalf("daemons fired %d times under RunUntil(3.5), want 3", fired)
	}
}

func TestCancelDaemon(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.AtDaemon(1, func() { fired = true })
	e.Cancel(ev)
	e.At(2, func() {})
	e.Run()
	if fired {
		t.Fatal("cancelled daemon fired")
	}
}

func TestDaemonBeforeForegroundSameInstant(t *testing.T) {
	// A daemon scheduled earlier at the same time still fires before the
	// foreground event (FIFO by sequence).
	e := NewEngine()
	var order []string
	e.AtDaemon(1, func() { order = append(order, "daemon") })
	e.At(1, func() { order = append(order, "fg") })
	e.Run()
	if len(order) != 2 || order[0] != "daemon" || order[1] != "fg" {
		t.Fatalf("order = %v", order)
	}
}

func TestDaemonSchedulingValidation(t *testing.T) {
	e := NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("past AtDaemon did not panic")
			}
		}()
		e.At(5, func() { e.AtDaemon(1, func() {}) })
		e.Run()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative AfterDaemon did not panic")
			}
		}()
		e.AfterDaemon(-1, func() {})
	}()
}

func TestMixedCancellationCounts(t *testing.T) {
	// Cancelling foreground events lets Run stop even with daemons ahead
	// of them in the queue.
	e := NewEngine()
	daemonFired := 0
	e.AtDaemon(1, func() { daemonFired++ })
	ev := e.At(10, func() {})
	e.Cancel(ev)
	e.Run()
	if daemonFired != 0 {
		t.Fatal("daemon fired after its only anchor was cancelled")
	}
}

func TestEveryTicks(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Every(1, func() { fired++ })
	e.At(4.5, func() {})
	e.Run()
	if fired != 4 {
		t.Fatalf("ticker fired %d times, want 4", fired)
	}
}

func TestEveryValidation(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	e.Every(0, func() {})
}
