package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

func TestQueueOrdersByTime(t *testing.T) {
	var q Queue
	q.Push(3, 30)
	q.Push(1, 10)
	q.Push(2, 20)
	for _, want := range []int64{10, 20, 30} {
		if got := q.Min().Payload; got != want {
			t.Fatalf("Min payload = %d, want %d", got, want)
		}
		if got := q.Pop().Payload; got != want {
			t.Fatalf("Pop payload = %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", q.Len())
	}
}

// Ties on virtual time must pop in insertion order — the property both
// engines rely on for schedule-independent output.
func TestQueueTiesPopInInsertionOrder(t *testing.T) {
	var q Queue
	for i := int64(0); i < 100; i++ {
		q.Push(7, i)
	}
	for i := int64(0); i < 100; i++ {
		if got := q.Pop().Payload; got != i {
			t.Fatalf("tie %d popped payload %d, want insertion order", i, got)
		}
	}
}

// Reset must restore the zero-value behavior, including the insertion
// sequence counter, so a reused queue pops identically to a fresh one.
func TestQueueResetRestoresDeterminism(t *testing.T) {
	run := func(q *Queue) []int64 {
		q.Push(5, 1)
		q.Push(5, 2)
		q.Push(4, 3)
		var out []int64
		for q.Len() > 0 {
			out = append(out, q.Pop().Payload)
		}
		return out
	}
	var fresh Queue
	want := run(&fresh)
	var reused Queue
	reused.Push(9, 99)
	reused.Reset()
	got := run(&reused)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused queue popped %v, fresh popped %v", got, want)
		}
	}
}

// Property: against a stable sort oracle over random (time, payload)
// pushes, the heap pops the exact same sequence.
func TestQueueMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q Queue
		n := 1 + rng.Intn(200)
		type entry struct {
			time    float64
			payload int64
		}
		entries := make([]entry, n)
		for i := range entries {
			// Coarse times force plenty of ties.
			entries[i] = entry{float64(rng.Intn(10)), int64(i)}
			q.Push(entries[i].time, entries[i].payload)
		}
		sort.SliceStable(entries, func(a, b int) bool {
			return entries[a].time < entries[b].time
		})
		for i, want := range entries {
			got := q.Pop()
			if got.Time != want.time || got.Payload != want.payload {
				t.Fatalf("trial %d pop %d: got (%g,%d), want (%g,%d)",
					trial, i, got.Time, got.Payload, want.time, want.payload)
			}
		}
	}
}

// TestQueueSteadyStateAllocs pins Push and Pop at zero allocations once a
// warm-up fill has grown the heap: a queue that holds at most n items
// reuses its backing array however many items pass through it.
func TestQueueSteadyStateAllocs(t *testing.T) {
	const n = 64
	var q Queue
	for i := 0; i < n; i++ {
		q.Push(float64(i), int64(i))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			q.Push(float64(i*37%n), int64(i)) // out of order: up moves items
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("%d pushes and pops allocate %.1f times, want 0", n, allocs)
	}
}
