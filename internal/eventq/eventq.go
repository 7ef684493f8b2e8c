// Package eventq is the deterministic virtual-time event queue of the
// mpisim rank scheduler (internal/mpisim), which resumes the runnable rank
// with the smallest virtual clock.
//
// The queue is a binary min-heap ordered by (time, insertion sequence):
// ties on virtual time pop in insertion order, so the processing order is
// a pure function of the push sequence — never of map iteration, hashing,
// or goroutine scheduling. That property is what lets the scheduler promise
// byte-identical outputs across hosts and worker counts.
package eventq

// Item is one scheduled entry: an opaque integer payload due at a virtual
// time. Payloads are integers (rank ids, event kinds) rather than
// interfaces so a million-entry queue costs one slab and zero boxing.
type Item struct {
	Time    float64
	Payload int64
	seq     uint64
}

// Queue is a deterministic min-heap of Items. The zero value is ready to
// use.
type Queue struct {
	heap []Item
	seq  uint64
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.heap) }

// Reset empties the queue while keeping its backing storage.
func (q *Queue) Reset() {
	q.heap = q.heap[:0]
	q.seq = 0
}

// Push schedules payload at time t.
//
//mlckpt:hotpath
func (q *Queue) Push(t float64, payload int64) {
	q.heap = append(q.heap, Item{Time: t, Payload: payload, seq: q.seq})
	q.seq++
	q.up(len(q.heap) - 1)
}

// Min returns the earliest item without removing it. It panics on an
// empty queue (callers gate on Len).
func (q *Queue) Min() Item { return q.heap[0] }

// Pop removes and returns the earliest item: smallest time, then smallest
// insertion sequence. It panics on an empty queue.
//
//mlckpt:hotpath
func (q *Queue) Pop() Item {
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return top
}

// less orders by time, breaking ties by insertion sequence so equal-time
// items pop first-in first-out.
func (q *Queue) less(i, j int) bool {
	//lint:allow floateq heap ordering needs exact identity: any two distinct stored times must order by time, and only bit-identical times fall through to the sequence tie-break
	if q.heap[i].Time != q.heap[j].Time {
		return q.heap[i].Time < q.heap[j].Time
	}
	return q.heap[i].seq < q.heap[j].seq
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}
