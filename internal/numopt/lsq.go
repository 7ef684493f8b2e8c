package numopt

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadFit is returned when a least-squares problem is underdetermined or
// its inputs are inconsistent.
var ErrBadFit = errors.New("numopt: least-squares fit failed")

// fit2 fits y ≈ c0·u(x) + c1·v(x) over the samples (xs, ys), where basis
// returns (u(x), v(x)), by solving the 2×2 normal equations AᵀA·c = Aᵀy.
// The design matrices in this repository are tiny (two basis functions
// over at most a few dozen characterization points), so normal equations
// with a partial pivot are numerically adequate. Figure 2 and Table II
// print these fits, so the order of operations is fixed: the sums run in
// sample order from zero, an AᵀA term whose row's basis value is zero is
// skipped, the rows swap when the second pivot candidate is larger, and
// both pivots must reach 1e-300.
func fit2(xs, ys []float64, basis func(x float64) (u, v float64)) (c0, c1 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("%w: %d xs vs %d ys", ErrBadFit, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("%w: underdetermined (%d samples, 2 unknowns)", ErrBadFit, len(xs))
	}
	var a00, a01, a10, a11, r0, r1 float64
	for i, x := range xs {
		u, v := basis(x)
		if u != 0 {
			a00 += u * u
			a01 += u * v
		}
		if v != 0 {
			a10 += v * u
			a11 += v * v
		}
		r0 += u * ys[i]
		r1 += v * ys[i]
	}
	if math.Abs(a10) > math.Abs(a00) {
		a00, a01, a10, a11 = a10, a11, a00, a01
		r0, r1 = r1, r0
	}
	if factor := a10 * (1 / a00); factor != 0 {
		a11 -= factor * a01
		r1 -= factor * r0
	}
	c1 = r1 / a11
	c0 = (r0 - a01*c1) / a00
	if math.Abs(a00) < 1e-300 || math.Abs(a11) < 1e-300 ||
		math.IsNaN(c0) || math.IsInf(c0, 0) || math.IsNaN(c1) || math.IsInf(c1, 0) {
		return 0, 0, fmt.Errorf("%w: singular normal equations", ErrBadFit)
	}
	return c0, c1, nil
}

// FitLine fits y ≈ intercept + slope·x and returns (intercept, slope).
// It is the fitting rule for the per-level overhead models
// C_i(N) = ε_i + α_i·H_c(N) in Formula (19): callers pass H_c(N) as x.
func FitLine(xs, ys []float64) (intercept, slope float64, err error) {
	return fit2(xs, ys, func(x float64) (float64, float64) { return 1, x })
}

// FitQuadraticThroughOrigin fits y ≈ a·x² + b·x (no constant term), the form
// of the paper's speedup curve g(N) = −κ/(2N^(*))·N² + κN (Formula 12),
// which must pass through the origin. It returns (a, b).
func FitQuadraticThroughOrigin(xs, ys []float64) (a, b float64, err error) {
	return fit2(xs, ys, func(x float64) (float64, float64) { return x * x, x })
}

// RSquared computes the coefficient of determination of predictions pred
// against observations ys.
func RSquared(ys, pred []float64) float64 {
	if len(ys) != len(pred) || len(ys) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range ys {
		mean += v
	}
	mean /= float64(len(ys))
	ssTot, ssRes := 0.0, 0.0
	for i := range ys {
		ssTot += (ys[i] - mean) * (ys[i] - mean)
		ssRes += (ys[i] - pred[i]) * (ys[i] - pred[i])
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}
