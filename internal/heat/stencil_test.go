package heat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveStencilRow is the cell-at-a-time reference the kernels must match
// bit for bit — the loop body Step used before the kernel extraction.
func naiveStencilRow(dst, up, down, left, right, center []float64) float64 {
	localMax := 0.0
	for i := range dst {
		v := 0.25 * (up[i] + down[i] + left[i] + right[i])
		dst[i] = v
		if d := math.Abs(v - center[i]); d > localMax {
			localMax = d
		}
	}
	return localMax
}

func randRow(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = -rng.Float64() * 100
		default:
			out[i] = rng.Float64() * 100
		}
	}
	return out
}

// TestStencilRowMatchesGeneric differentially tests the dispatched kernel
// (AVX2 on capable amd64 hosts) against the naive reference across widths
// that cover every tail-length case and the scalar-only small rows.
func TestStencilRowMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 62, 63, 64, 65, 254, 1022} {
		up, down := randRow(rng, n), randRow(rng, n)
		left, right, center := randRow(rng, n), randRow(rng, n), randRow(rng, n)
		want := make([]float64, n)
		got := make([]float64, n)
		wantMax := naiveStencilRow(want, up, down, left, right, center)
		gotMax := stencilRow(got, up, down, left, right, center)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
			t.Fatalf("n=%d: residual %v, want %v", n, gotMax, wantMax)
		}
	}
}

// TestStencilRowNaN pins the NaN semantics of the residual reduction: a
// NaN difference never wins the max (the scalar strict-greater test is
// false for NaN), and NaN cell values propagate into dst unchanged in
// position.
func TestStencilRowNaN(t *testing.T) {
	n := 16
	up := make([]float64, n)
	down := make([]float64, n)
	left := make([]float64, n)
	right := make([]float64, n)
	center := make([]float64, n)
	for i := range up {
		up[i], down[i], left[i], right[i], center[i] = 1, 2, 3, 4, 5
	}
	up[3] = math.NaN()  // vector lane
	up[13] = math.NaN() // tail lane (n=16 has no tail; lane coverage anyway)
	center[7] = math.NaN()
	want := make([]float64, n)
	got := make([]float64, n)
	wantMax := naiveStencilRow(want, up, down, left, right, center)
	gotMax := stencilRow(got, up, down, left, right, center)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("dst[%d] bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
		t.Fatalf("residual %v, want %v", gotMax, wantMax)
	}
}

// TestStencilRowFallback forces the generic path on hosts that normally
// dispatch to the vector kernel, so both sides of the dispatch stay
// covered by the solver-level tests wherever they run.
func TestStencilRowFallback(t *testing.T) {
	if !stencilDispatchToggles(t) {
		t.Skip("no vector kernel on this host")
	}
	rng := rand.New(rand.NewSource(8))
	n := 257
	up, down := randRow(rng, n), randRow(rng, n)
	left, right, center := randRow(rng, n), randRow(rng, n), randRow(rng, n)
	vec := make([]float64, n)
	gen := make([]float64, n)
	vecMax := stencilRow(vec, up, down, left, right, center)
	setStencilAVX2(t, false)
	genMax := stencilRow(gen, up, down, left, right, center)
	for i := range vec {
		if math.Float64bits(vec[i]) != math.Float64bits(gen[i]) {
			t.Fatalf("dst[%d]: vector %v, generic %v", i, vec[i], gen[i])
		}
	}
	if math.Float64bits(vecMax) != math.Float64bits(genMax) {
		t.Fatalf("residual: vector %v, generic %v", vecMax, genMax)
	}
}

// TestStencilRowZeroAlloc pins the kernels' zero-allocation contract.
func TestStencilRowZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 510
	up, down := randRow(rng, n), randRow(rng, n)
	left, right, center := randRow(rng, n), randRow(rng, n), randRow(rng, n)
	dst := make([]float64, n)
	if avg := testing.AllocsPerRun(50, func() {
		stencilRow(dst, up, down, left, right, center)
	}); avg != 0 {
		t.Errorf("stencilRow allocates %.1f times per row", avg)
	}
}

// The bulk float64 codec the serialization paths use lives in
// internal/enc together with its differential tests.
