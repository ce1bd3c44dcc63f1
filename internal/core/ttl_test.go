package core

import (
	"testing"

	"pythia/internal/hadoop"
	"pythia/internal/sim"
)

// Tests for the booking-TTL garbage collector: reservations whose flows
// never materialize must not pin aggregates, rules, or backlog forever.

func TestBookingTTLExpiresOrphanedBooking(t *testing.T) {
	s := newStack(Config{Aggregate: true, BookingTTL: 30 * sim.Second}, hadoop.Config{})
	watchWorklist(t, s)
	// Hand-inject a booking whose flow will never run (no job submitted):
	// the shape left behind by a JobDone lost on the management network.
	s.py.ReducerUp(up(0, 0, s.hosts[5]))
	in := intent(0, 0, s.hosts[0], []float64{100e6})
	in.Attempt = 1
	s.py.ShuffleIntent(in)
	if s.py.OutstandingBookings(0) != 1 {
		t.Fatalf("outstanding bookings = %d, want 1", s.py.OutstandingBookings(0))
	}
	s.eng.RunUntil(100)
	if s.py.ExpiredBookings() != 1 {
		t.Fatalf("ExpiredBookings = %d, want 1", s.py.ExpiredBookings())
	}
	if got := s.py.OutstandingDemandBits(); got != 0 {
		t.Fatalf("demand after expiry = %v bits, want 0", got)
	}
	if s.py.OutstandingBookings(0) != 0 {
		t.Fatal("booking leaked past the TTL sweep")
	}
	if s.py.liveAggregates() != 0 {
		t.Fatalf("aggregates not released: %d", s.py.liveAggregates())
	}
	// The dead-job purge follows once the job goes silent: reducer
	// placements and idempotence entries are dropped too.
	if s.py.totalSeen() != 0 || s.py.totalReducerLoc() != 0 {
		t.Fatalf("dead-job state not purged: seen=%d reducerLoc=%d",
			s.py.totalSeen(), s.py.totalReducerLoc())
	}
}

func TestBookingTTLExpiresDeferredIntent(t *testing.T) {
	s := newStack(Config{Aggregate: true, BookingTTL: 30 * sim.Second}, hadoop.Config{})
	watchWorklist(t, s)
	// An intent whose ReducerUp never arrives (dropped on the management
	// network) defers forever without the sweep.
	in := intent(0, 0, s.hosts[0], []float64{100e6})
	in.Attempt = 1
	s.py.ShuffleIntent(in)
	if s.py.PendingUnknownDestinations() != 1 {
		t.Fatalf("pending = %d, want 1", s.py.PendingUnknownDestinations())
	}
	s.eng.RunUntil(100)
	if s.py.ExpiredIntents() != 1 {
		t.Fatalf("ExpiredIntents = %d, want 1", s.py.ExpiredIntents())
	}
	if s.py.PendingUnknownDestinations() != 0 {
		t.Fatal("deferred intent leaked past the TTL sweep")
	}
}

// TestBookingTTLInertOnHealthyRun: with a TTL comfortably above the job
// duration, the sweep never fires on live state and the schedule is
// bit-identical to TTL-off.
func TestBookingTTLInertOnHealthyRun(t *testing.T) {
	run := func(ttl sim.Duration) (sim.Duration, int) {
		s := newStack(Config{Aggregate: true, BookingTTL: ttl}, hadoop.Config{})
		watchWorklist(t, s)
		spec := uniformSpec(12, 4, 2, 10e6)
		j, _ := s.clus.Submit(spec)
		s.eng.Run()
		if !j.Done {
			t.Fatal("job did not finish")
		}
		return j.Duration(), s.py.ExpiredBookings()
	}
	dOff, _ := run(0)
	dOn, expired := run(300 * sim.Second)
	if expired != 0 {
		t.Fatalf("healthy run expired %d bookings", expired)
	}
	if dOn != dOff {
		t.Fatalf("TTL changed a healthy schedule: %v vs %v", dOn, dOff)
	}
}

// TestBookingTTLExpiresQueuedAggregate: the sweep deletes an aggregate that
// is sitting on the worklist (unroutable, so never placed). The dead entry
// must not be counted, reconciled or placed, and the next pass drops it.
func TestBookingTTLExpiresQueuedAggregate(t *testing.T) {
	s := newStack(Config{Aggregate: true, BookingTTL: 30 * sim.Second}, hadoop.Config{})
	watchWorklist(t, s)
	allTrunks(s, false)
	s.eng.RunUntil(2)
	s.py.ReducerUp(up(0, 0, s.hosts[5]))
	s.py.ShuffleIntent(intent(0, 0, s.hosts[0], []float64{100e6}))
	if len(s.py.unplaced) != 1 {
		t.Fatalf("worklist holds %d entries, want the stranded pair", len(s.py.unplaced))
	}
	s.eng.RunUntil(100)
	if s.py.ExpiredBookings() != 1 || s.py.liveAggregates() != 0 {
		t.Fatalf("expired=%d aggregates=%d", s.py.ExpiredBookings(), s.py.liveAggregates())
	}
	checkWorklist(t, s.py)
	s.py.onControllerUp()
	if s.py.Reconciliations != 0 {
		t.Fatal("a dead worklist entry was reconciled")
	}
	if n := s.py.allocate(); n != 0 || len(s.py.unplaced) != 0 || s.py.AggregatesPlaced != 0 {
		t.Fatalf("pass after the sweep: %d candidates, worklist %d, %d placements", n, len(s.py.unplaced), s.py.AggregatesPlaced)
	}
}
