package numopt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 + 1.75*x
	}
	b0, b1, err := FitLine(xs, ys)
	if err != nil {
		t.Fatalf("FitLine: %v", err)
	}
	if math.Abs(b0-2.5) > 1e-10 || math.Abs(b1-1.75) > 1e-10 {
		t.Errorf("fit (%g, %g), want (2.5, 1.75)", b0, b1)
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 10+0.5*x+rng.NormFloat64()*0.1)
	}
	b0, b1, err := FitLine(xs, ys)
	if err != nil {
		t.Fatalf("FitLine: %v", err)
	}
	if math.Abs(b0-10) > 0.1 || math.Abs(b1-0.5) > 0.01 {
		t.Errorf("fit (%g, %g), want ≈(10, 0.5)", b0, b1)
	}
}

func TestFitQuadraticThroughOrigin(t *testing.T) {
	// The paper's speedup form: g(N) = -κ/(2N*)·N² + κ·N, κ=0.46, N*=1e5.
	kappa, nstar := 0.46, 1e5
	var xs, ys []float64
	for n := 1000.0; n <= 100000; n += 1000 {
		xs = append(xs, n)
		ys = append(ys, -kappa/(2*nstar)*n*n+kappa*n)
	}
	a, b, err := FitQuadraticThroughOrigin(xs, ys)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if math.Abs(a-(-kappa/(2*nstar))) > 1e-12 {
		t.Errorf("a = %g, want %g", a, -kappa/(2*nstar))
	}
	if math.Abs(b-kappa) > 1e-9 {
		t.Errorf("b = %g, want %g", b, kappa)
	}
	// Implied curve parameters recover κ and N*.
	gotNstar := -b / (2 * a)
	if math.Abs(gotNstar-nstar) > 1 {
		t.Errorf("implied N* = %g, want %g", gotNstar, nstar)
	}
}

// TestFitLineErrors: every failure of the two-column fit wraps ErrBadFit
// — fewer samples than unknowns, mismatched lengths, and normal equations
// with no unique solution (a vertical line, and a quadratic through the
// origin sampled only at x = 0).
func TestFitLineErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		xs, ys []float64
		fit    func(xs, ys []float64) (float64, float64, error)
	}{
		{"underdetermined", []float64{1}, []float64{1}, FitLine},
		{"length-mismatch", []float64{1, 2}, []float64{1}, FitLine},
		{"singular", []float64{2, 2, 2}, []float64{1, 2, 3}, FitLine},
		{"singular-quadratic", []float64{0, 0}, []float64{1, 2}, FitQuadraticThroughOrigin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := tc.fit(tc.xs, tc.ys); !errors.Is(err, ErrBadFit) {
				t.Errorf("err = %v, want ErrBadFit", err)
			}
		})
	}
}

func TestRSquared(t *testing.T) {
	ys := []float64{1, 2, 3, 4}
	if r := RSquared(ys, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect fit R² = %g, want 1", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := RSquared(ys, mean); math.Abs(r) > 1e-12 {
		t.Errorf("mean predictor R² = %g, want 0", r)
	}
	if r := RSquared(ys, []float64{1}); !math.IsNaN(r) {
		t.Errorf("length mismatch R² = %g, want NaN", r)
	}
}

// Property: fitting noise-free lines recovers the coefficients regardless of
// slope and intercept.
func TestFitLineProperty(t *testing.T) {
	prop := func(b0, b1 float64) bool {
		b0 = math.Mod(b0, 1e6)
		b1 = math.Mod(b1, 1e3)
		xs := []float64{0, 1, 2, 5, 10, 20}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = b0 + b1*x
		}
		g0, g1, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(g0-b0) < 1e-6*(1+math.Abs(b0)) && math.Abs(g1-b1) < 1e-6*(1+math.Abs(b1))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
