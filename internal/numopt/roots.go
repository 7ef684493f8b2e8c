// Package numopt provides the numerical-optimization substrate used by the
// checkpoint-model solvers: bisection root finding, Nelder–Mead
// minimization, dense linear algebra, least-squares fitting, and
// finite-difference derivatives.
//
// Go's standard library has no numerical-optimization facilities, so every
// routine here is implemented from scratch on top of package math. The
// routines favor robustness over raw speed: the solvers in internal/core
// call them a few hundred times per optimization, never in tight loops.
package numopt

import (
	"errors"
	"fmt"
	"math"
)

// ErrMaxIterations is returned when an iterative routine fails to reach its
// tolerance within the allowed number of iterations.
var ErrMaxIterations = errors.New("numopt: maximum iterations exceeded")

// ErrNoBracket is returned when a root-finding routine is given an interval
// that does not bracket a sign change.
var ErrNoBracket = errors.New("numopt: interval does not bracket a root")

// ErrInvalidInterval is returned when an interval's bounds are not ordered
// or not finite.
var ErrInvalidInterval = errors.New("numopt: invalid interval")

// Func is a scalar function of one variable.
type Func func(x float64) float64

// RootResult reports the outcome of a root-finding run.
type RootResult struct {
	Root       float64 // abscissa of the located root
	FRoot      float64 // function value at Root
	Iterations int     // iterations consumed
	Converged  bool    // whether the tolerance was met
}

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must have
// opposite signs (an endpoint that is exactly zero is returned immediately).
// The iteration stops when the interval width falls below tol or after
// maxIter halvings. Bisection is the workhorse for the scale equation
// (Formula 17 / 24 in the paper) because the first derivative of E(T_w) with
// respect to N is monotone on [0, N^(*)], guaranteeing a unique bracketed
// root when one exists.
func Bisect(f Func, a, b, tol float64, maxIter int) (RootResult, error) {
	if math.IsNaN(a) || math.IsNaN(b) || a >= b {
		return RootResult{}, fmt.Errorf("%w: [%g, %g]", ErrInvalidInterval, a, b)
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return RootResult{Root: a, FRoot: 0, Converged: true}, nil
	}
	if fb == 0 {
		return RootResult{Root: b, FRoot: 0, Converged: true}, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return RootResult{}, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	var mid, fm float64
	for i := 0; i < maxIter; i++ {
		mid = a + (b-a)/2
		fm = f(mid)
		if fm == 0 || (b-a)/2 < tol {
			return RootResult{Root: mid, FRoot: fm, Iterations: i + 1, Converged: true}, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = mid, fm
		} else {
			b = mid
		}
	}
	return RootResult{Root: mid, FRoot: fm, Iterations: maxIter}, ErrMaxIterations
}
