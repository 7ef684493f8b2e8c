package numopt

import (
	"math"
	"testing"
)

func TestDerivative(t *testing.T) {
	cases := []struct {
		name string
		f    Func
		df   Func
		x    float64
	}{
		{"square", func(x float64) float64 { return x * x }, func(x float64) float64 { return 2 * x }, 3},
		{"exp", math.Exp, math.Exp, 1},
		{"recip", func(x float64) float64 { return 1 / x }, func(x float64) float64 { return -1 / (x * x) }, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Derivative(tc.f, tc.x)
			want := tc.df(tc.x)
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Errorf("Derivative = %g, want %g", got, want)
			}
		})
	}
}

func TestPartialDerivative(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[0] + 3*x[0]*x[1] + x[1]*x[1]*x[1] }
	p := []float64{2, 1}
	// ∂f/∂x0 = 2x0+3x1 = 7; ∂f/∂x1 = 3x0+3x1² = 9.
	if g := PartialDerivative(f, p, 0); math.Abs(g-7) > 1e-4 {
		t.Errorf("∂f/∂x0 = %g, want 7", g)
	}
	if g := PartialDerivative(f, p, 1); math.Abs(g-9) > 1e-4 {
		t.Errorf("∂f/∂x1 = %g, want 9", g)
	}
}

func TestDerivativeStep(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) }
	got := DerivativeStep(f, 0, 1e-5)
	if math.Abs(got-1) > 1e-8 {
		t.Errorf("DerivativeStep = %g, want 1", got)
	}
}
