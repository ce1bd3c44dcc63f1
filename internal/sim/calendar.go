package sim

import "math"

// calBucket is one calendar day: a sorted deque of events. The live region
// is evs[head:]; pops advance head and pushes reuse the freed capacity, so a
// steady push/pop cycle through a bucket allocates nothing.
type calBucket struct {
	evs  []*Event
	head int
}

func (b *calBucket) live() []*Event { return b.evs[b.head:] }

// insert places ev at position lo of the live region (0 ≤ lo ≤ len(live)).
func (b *calBucket) insert(ev *Event, lo int) {
	if lo == 0 && b.head > 0 {
		// Front slack: O(1) insert before the current head.
		b.head--
		b.evs[b.head] = ev
		return
	}
	if len(b.evs) == cap(b.evs) && b.head > 0 {
		// Compact to the front so append reuses existing capacity.
		n := copy(b.evs, b.evs[b.head:])
		for i := n; i < len(b.evs); i++ {
			b.evs[i] = nil
		}
		b.evs = b.evs[:n]
		b.head = 0
	}
	b.evs = append(b.evs, nil)
	live := b.evs[b.head:]
	copy(live[lo+1:], live[lo:])
	live[lo] = ev
}

// delete removes the event at position lo of the live region.
func (b *calBucket) delete(lo int) {
	if lo == 0 {
		// Head removal is the pop path: O(1), so a large same-instant burst
		// drains linearly instead of quadratically.
		b.evs[b.head] = nil
		b.head++
		if b.head == len(b.evs) {
			b.evs = b.evs[:0]
			b.head = 0
		}
		return
	}
	live := b.evs[b.head:]
	copy(live[lo:], live[lo+1:])
	b.evs[len(b.evs)-1] = nil
	b.evs = b.evs[:len(b.evs)-1]
}

// calendarQueue is a bucketed calendar-queue scheduler (Brown 1988): events
// hash into year-cyclic time buckets, each kept sorted by (time, seq), so
// steady-state enqueue/dequeue cost O(1) amortized instead of the binary
// heap's O(log n). The bucket count and width recalibrate lazily as the
// queue grows and shrinks. Ordering is strict (time, seq); the tests hold it
// to the binary-heap oracle in heap_test.go.
//
// One function, dayOf, decides which day a time belongs to, for filing an
// event (bucketIdx) and for the min-scan's "is this bucket head due in the day
// the sweep has reached" alike. Filing by ⌊t·invWidth⌋ while admitting by
// t < (day+1)·width disagrees whenever t is an exact multiple of a width whose
// reciprocal rounds down (996 × (1/498) = 1.999…): the event is filed under
// day 1, is not < 996, gets skipped for the whole year and fires after
// everything else — the clock runs backwards.
type calendarQueue struct {
	buckets  []calBucket
	mask     int     // len(buckets)-1; bucket count is a power of two
	invWidth float64 // 1 / bucket time width ("day" length)
	count    int
	// lastT is a monotonic lower bound on the earliest queued time (the
	// last popped time); the min-scan starts from its bucket.
	lastT float64
	// cachedMin memoizes the earliest event between mutations; the global
	// minimum always sits at the head of its (sorted) bucket.
	cachedMin *Event
}

const (
	calMinBuckets = 1 << 3
	calMaxBuckets = 1 << 20
	calMinWidth   = 1e-9 // sub-ns virtual resolution floor
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets:  make([]calBucket, calMinBuckets),
		mask:     calMinBuckets - 1,
		invWidth: 1024, // recalibrated on first resize
	}
}

// dayOf is the day number of a time: ⌊t·invWidth⌋, monotone in t. Times are
// finite and non-negative (the engine rejects scheduling in the past); the
// product is clamped so a huge horizon with a tiny width cannot overflow the
// int64 conversion.
func (c *calendarQueue) dayOf(t float64) int64 {
	d := t * c.invWidth
	if d >= math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(d)
}

// bucketIdx maps a time to its bucket: its day, modulo the year length.
func (c *calendarQueue) bucketIdx(t float64) int { return int(c.dayOf(t)) & c.mask }

// searchLive binary-searches b's live region for the insertion point of ev
// in (time, seq) order.
func searchLive(live []*Event, ev *Event) int {
	lo, hi := 0, len(live)
	for lo < hi {
		mid := (lo + hi) / 2
		if live[mid].before(ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (c *calendarQueue) push(ev *Event) {
	if c.count >= 2*len(c.buckets) && len(c.buckets) < calMaxBuckets {
		c.resize(len(c.buckets) * 2)
	}
	idx := c.bucketIdx(float64(ev.at))
	b := &c.buckets[idx]
	b.insert(ev, searchLive(b.live(), ev))
	ev.index = idx
	c.count++
	if c.cachedMin != nil && ev.before(c.cachedMin) {
		c.cachedMin = ev
	}
}

func (c *calendarQueue) peekMin() *Event {
	if c.count == 0 {
		return nil
	}
	if c.cachedMin == nil {
		c.cachedMin = c.scanMin()
	}
	return c.cachedMin
}

func (c *calendarQueue) popMin() *Event {
	ev := c.peekMin()
	if ev == nil {
		return nil
	}
	c.removeAt(ev)
	c.lastT = float64(ev.at)
	c.cachedMin = nil
	if c.count < len(c.buckets)/4 && len(c.buckets) > calMinBuckets {
		c.resize(len(c.buckets) / 2)
	}
	return ev
}

func (c *calendarQueue) remove(ev *Event) {
	c.removeAt(ev)
	if ev == c.cachedMin {
		c.cachedMin = nil
	}
}

// removeAt deletes a queued event from its (sorted) bucket.
func (c *calendarQueue) removeAt(ev *Event) {
	idx := c.bucketIdx(float64(ev.at))
	b := &c.buckets[idx]
	live := b.live()
	lo := searchLive(live, ev)
	// lo is the first element not before ev; with unique (time, seq) keys
	// it is ev itself.
	if lo >= len(live) || live[lo] != ev {
		panic("sim: calendar queue removal of unqueued event")
	}
	b.delete(lo)
	c.count--
}

// scanMin locates the earliest queued event. It sweeps one full "year" of
// days from the last popped time's day — the common case finds the event
// within a few buckets — and falls back to a direct min over all bucket
// heads when the queue is sparser than a year. The minimum is always a bucket
// head, because buckets are sorted. No queued event is earlier than lastT and
// dayOf is monotone, so the first head whose day the sweep has reached is the
// earliest event: every earlier day's bucket was visited and held nothing due.
func (c *calendarQueue) scanMin() *Event {
	day := c.dayOf(c.lastT)
	for end := day + int64(len(c.buckets)); day < end; day++ {
		b := &c.buckets[int(day)&c.mask]
		if b.head < len(b.evs) {
			if h := b.evs[b.head]; c.dayOf(float64(h.at)) <= day {
				return h
			}
		}
	}
	// Sparse queue: no event within one bucket cycle of lastT. Direct
	// search across bucket heads, then fast-forward lastT so subsequent
	// scans start near the found event.
	var best *Event
	for i := range c.buckets {
		b := &c.buckets[i]
		if b.head < len(b.evs) {
			if h := b.evs[b.head]; best == nil || h.before(best) {
				best = h
			}
		}
	}
	if best != nil {
		c.lastT = float64(best.at)
	}
	return best
}

// resize rebuckets every event into nb buckets with a width recalibrated to
// the current queue contents (mean event spacing, clamped). Cost is O(n),
// amortized O(1) per operation by the doubling/halving thresholds.
func (c *calendarQueue) resize(nb int) {
	old := c.buckets
	// Recalibrate width: spread the queue's time span over ~3 events per
	// bucket-day. Degenerate spans (all events at one instant) keep the
	// previous width.
	minT, maxT := math.Inf(1), math.Inf(-1)
	for i := range old {
		for _, ev := range old[i].live() {
			t := float64(ev.at)
			if t < minT {
				minT = t
			}
			if t > maxT {
				maxT = t
			}
		}
	}
	if span := maxT - minT; span > 0 && c.count > 1 {
		w := span / float64(c.count) * 3
		if w < calMinWidth {
			w = calMinWidth
		}
		c.invWidth = 1 / w
	}
	c.buckets = make([]calBucket, nb)
	c.mask = nb - 1
	c.count = 0
	c.cachedMin = nil
	for i := range old {
		for _, ev := range old[i].live() {
			c.push(ev)
		}
	}
}
