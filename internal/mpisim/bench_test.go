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
