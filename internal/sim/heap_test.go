package sim

import "container/heap"

// heapQueue is the ordering oracle: the original container/heap event queue,
// forty lines whose (time, seq) order is evident from Less. The calendar
// queue must deliver exactly its sequence; newHeapEngine puts it under an
// otherwise identical engine through the scheduler interface.
type heapQueue struct{ q eventQueue }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	return q[i].before(q[j])
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

func (h *heapQueue) push(e *Event) { heap.Push(&h.q, e) }
func (h *heapQueue) popMin() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return heap.Pop(&h.q).(*Event)
}
func (h *heapQueue) peekMin() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}
func (h *heapQueue) remove(e *Event) {
	heap.Remove(&h.q, e.index)
}
func (h *heapQueue) size() int { return len(h.q) }

func newHeapEngine() *Engine { return &Engine{sched: &heapQueue{}} }

// kernels are the two engines every cross-kernel test runs: the production
// one and the oracle.
var kernels = []struct {
	name string
	new  func() *Engine
}{
	{"calendar", NewEngine},
	{"heap", newHeapEngine},
}
