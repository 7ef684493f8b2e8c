package mpisim

import (
	"fmt"
	"testing"
)

// BenchmarkAllreduceRanks measures a 10-Allreduce program as full rank
// programs on each engine — the cost of running arbitrary blocking
// continuations.
func BenchmarkAllreduceRanks(b *testing.B) {
	for _, engine := range []Engine{EventEngine, GoroutineEngine} {
		for _, p := range []int{8, 64, 256} {
			b.Run(fmt.Sprintf("%s/ranks=%d", engine, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := RunOn(engine, p, DefaultCostModel(), func(r *Rank) {
						for k := 0; k < 10; k++ {
							r.Allreduce(Sum, []float64{1, 2, 3})
						}
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkPointToPointRing(b *testing.B) {
	const p = 64
	payload := make([]byte, 4096)
	for i := 0; i < b.N; i++ {
		_, err := Run(p, DefaultCostModel(), func(r *Rank) {
			right := (r.ID() + 1) % p
			left := (r.ID() + p - 1) % p
			for k := 0; k < 10; k++ {
				rq := r.Irecv(left, 1)
				r.Send(right, 1, payload)
				rq.Wait()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ringAllocs is the allocation count of one run of an 8-rank ring on the
// event engine: every round, each rank posts an Irecv from its left
// neighbour, Sends 64 bytes to its right one and Waits.
func ringAllocs(t *testing.T, rounds int) float64 {
	const p = 8
	payload := make([]byte, 64)
	return testing.AllocsPerRun(20, func() {
		_, err := Run(p, DefaultCostModel(), func(r *Rank) {
			right := (r.ID() + 1) % p
			left := (r.ID() + p - 1) % p
			for k := 0; k < rounds; k++ {
				rq := r.Irecv(left, 1)
				r.Send(right, 1, payload)
				rq.Wait()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestPointToPointRingAllocs pins what one message costs the event engine:
// exactly 2 allocations, both from getBuf: the buffer and its pool handle
// (the receiver keeps every payload, so the pool stays empty). Irecv's
// Request stays on the stack, since Irecv inlines into the rank program
// and Wait does not keep it. deliver and await, the engine's hot path,
// allocate nothing once a channel's mailbox exists. The run's fixed cost
// (ranks, fibers, mailboxes, resume channels) cancels in the difference
// between 10 and 20 rounds.
func TestPointToPointRingAllocs(t *testing.T) {
	const rounds = 10
	short, long := ringAllocs(t, rounds), ringAllocs(t, 2*rounds)
	if got, want := long-short, float64(2*8*rounds); got != want {
		t.Errorf("%d more messages cost %.0f allocations (%.0f → %.0f), want %.0f",
			8*rounds, got, short, long, want)
	}
}

func BenchmarkRuntimeSpawn(b *testing.B) {
	// Cost of spinning an SPMD world up and down. Under the event engine a
	// program that never blocks runs entirely inline on the caller's
	// goroutine — this benchmark spawns nothing.
	for i := 0; i < b.N; i++ {
		if _, err := Run(128, DefaultCostModel(), func(r *Rank) {}); err != nil {
			b.Fatal(err)
		}
	}
}
