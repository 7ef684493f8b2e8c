package numopt

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadFit is returned when a least-squares problem is underdetermined or
// its inputs are inconsistent.
var ErrBadFit = errors.New("numopt: least-squares fit failed")

// LeastSquares solves min ‖A·c − y‖₂ via the normal equations AᵀA·c = Aᵀy.
// The design matrices in this repository are tiny (a handful of basis
// functions over at most a few dozen characterization points), so normal
// equations with partial-pivot elimination are numerically adequate.
func LeastSquares(a *Matrix, y []float64) ([]float64, error) {
	if a.Rows != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d observations", ErrBadFit, a.Rows, len(y))
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("%w: underdetermined (%d rows, %d unknowns)", ErrBadFit, a.Rows, a.Cols)
	}
	at := a.Transpose()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	aty, err := at.MulVec(y)
	if err != nil {
		return nil, err
	}
	c, err := SolveLinear(ata, aty)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFit, err)
	}
	return c, nil
}

// FitBasis fits y ≈ Σ c_j · basis_j(x) over sample points (xs, ys).
func FitBasis(xs, ys []float64, basis []Func) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: %d xs vs %d ys", ErrBadFit, len(xs), len(ys))
	}
	a := NewMatrix(len(xs), len(basis))
	for i, x := range xs {
		for j, b := range basis {
			a.Set(i, j, b(x))
		}
	}
	return LeastSquares(a, ys)
}

// FitLine fits y ≈ intercept + slope·x and returns (intercept, slope).
// It is the fitting rule for the per-level overhead models
// C_i(N) = ε_i + α_i·H_c(N) in Formula (19): callers pass H_c(N) as x.
func FitLine(xs, ys []float64) (intercept, slope float64, err error) {
	c, err := FitBasis(xs, ys, []Func{
		func(float64) float64 { return 1 },
		func(x float64) float64 { return x },
	})
	if err != nil {
		return 0, 0, err
	}
	return c[0], c[1], nil
}

// FitQuadraticThroughOrigin fits y ≈ a·x² + b·x (no constant term), the form
// of the paper's speedup curve g(N) = −κ/(2N^(*))·N² + κN (Formula 12),
// which must pass through the origin. It returns (a, b).
func FitQuadraticThroughOrigin(xs, ys []float64) (a, b float64, err error) {
	c, err := FitBasis(xs, ys, []Func{
		func(x float64) float64 { return x * x },
		func(x float64) float64 { return x },
	})
	if err != nil {
		return 0, 0, err
	}
	return c[0], c[1], nil
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
