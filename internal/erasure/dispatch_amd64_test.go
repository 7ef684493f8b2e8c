package erasure

import (
	"testing"
	"time"

	"mlckpt/internal/cpu"
)

// TestSIMDDispatchSpeedup checks that the host's vector tiers are in use:
// EncodeInto on 8×256 KiB shards (one goroutine) must run at least 4×
// faster with the tiers erasure chose at init than with hasAVX2 and
// hasGFNI forced off. The portable word-lane path is 20–45× slower on an
// AVX2+GFNI Xeon, so the bound leaves room for a noisy machine while a
// dispatch that never reaches the assembly reads about 1×. Both sides are
// timed in the same process, alternating, and each keeps its fastest
// round, so a load spike slows one round instead of the verdict.
func TestSIMDDispatchSpeedup(t *testing.T) {
	if !cpu.X86.HasAVX2 {
		t.Skip("host has no AVX2: the portable kernels are the only tier")
	}
	c, err := New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.workers = 1
	const size = 256 << 10
	data := makeShards(8, size, 11)
	parity := [][]byte{make([]byte, size), make([]byte, size)}
	hostAVX2, hostGFNI := hasAVX2, hasGFNI
	defer func() { hasAVX2, hasGFNI = hostAVX2, hostGFNI }()

	fastest := func(avx2, gfni bool, reps int, best time.Duration) time.Duration {
		hasAVX2, hasGFNI = avx2, gfni
		d := hostTime(func() {
			for i := 0; i < reps; i++ {
				if err := c.EncodeInto(data, parity); err != nil {
					t.Fatal(err)
				}
			}
		}) / time.Duration(reps)
		if best == 0 || d < best {
			return d
		}
		return best
	}
	var tiers, portable time.Duration
	for round := 0; round < 5; round++ {
		tiers = fastest(hostAVX2, hostGFNI, 16, tiers)
		portable = fastest(false, false, 2, portable)
	}
	ratio := float64(portable) / float64(tiers)
	t.Logf("EncodeInto 8×256 KiB: %v with AVX2=%v GFNI=%v, %v portable (%.1f×)",
		tiers, hostAVX2, hostGFNI, portable, ratio)
	if ratio < 4 {
		t.Errorf("host tiers only %.1f× faster than the portable kernels, want ≥ 4×", ratio)
	}
}

// hostTime returns how long f takes on the host's clock.
func hostTime(f func()) time.Duration {
	//lint:allow nondeterminism compares the host speed of two kernel tiers; no result reads it
	start := time.Now()
	f()
	//lint:allow nondeterminism compares the host speed of two kernel tiers; no result reads it
	return time.Since(start)
}
