package core

import (
	"fmt"
	"math"

	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/numopt"
	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
)

// FixedBSolution is the result of the single-level nonlinear solve at a
// fixed failure coefficient.
type FixedBSolution struct {
	X          float64
	N          float64
	WallClock  float64 // E(T_w) per the single-level objective, seconds
	Iterations int
}

// SolveSingleLevelFixedB reproduces the paper's Figure 3 study: the
// single-level model with nonlinear speedup g, cost models c and r
// (possibly scale-dependent), allocation alloc, and a FIXED failure
// coefficient b (μ(N) = b·N with no outer refresh). It alternates the
// closed-form interval update (Formula 16, generalized to non-constant
// C(N)) with a bisection solve of the scale equation (Formula 17,
// generalized):
//
//	∂E/∂N = −T_e·g'/g² − b·N·T_e·g'/(2x·g²) + b·T_e/(2x·g)
//	        + C'(N)(x−1) + b(R(N)+A) + b·N·R'(N) = 0
//
// starting from xInit (the paper uses 100,000) until |x⁽ᵏ⁺¹⁾−x⁽ᵏ⁾| < tol.
func SolveSingleLevelFixedB(te float64, g speedup.Model, c, r overhead.Cost, alloc, b, xInit, tol float64, maxIter int) (FixedBSolution, error) {
	if tol <= 0 {
		tol = 1e-6
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	if xInit <= 0 {
		xInit = 100000
	}
	ceiling := g.IdealScale()
	x := xInit
	n := ceiling

	gradN := func(n, x float64) float64 {
		gv := g.Speedup(n)
		gp := g.Derivative(n)
		return -te*gp/(gv*gv) - b*n*te*gp/(2*x*gv*gv) + b*te/(2*x*gv) +
			c.DerivativeAt(n)*(x-1) + b*(r.At(n)+alloc) + b*n*r.DerivativeAt(n)
	}

	var iters int
	for iters = 1; iters <= maxIter; iters++ {
		// Formula (16): x⁽ᵏ⁺¹⁾ from the current scale.
		gv := g.Speedup(n)
		xNew := math.Sqrt(b * n * te / (2 * c.At(n) * gv))
		if xNew < 1 || math.IsNaN(xNew) {
			xNew = 1
		}
		// Formula (17): N⁽ᵏ⁺¹⁾ by bisection on [1, N^(*)].
		h := func(v float64) float64 { return gradN(v, xNew) }
		var nNew float64
		if h(ceiling) <= 0 {
			nNew = ceiling // no interior root: use the ideal scale
		} else if h(1) >= 0 {
			nNew = 1
		} else {
			res, err := numopt.Bisect(h, 1, ceiling, 0.25, 200)
			if err != nil {
				return FixedBSolution{X: x, N: n, Iterations: iters},
					fmt.Errorf("%w: scale bisection: %v", ErrDiverged, err)
			}
			nNew = res.Root
		}
		done := math.Abs(xNew-x) < tol && math.Abs(nNew-n) < 0.5
		x, n = xNew, nNew
		if done {
			wct := model.SingleLevelWallClock(te, g, c, r, alloc, b, x, n)
			return FixedBSolution{X: x, N: n, WallClock: wct, Iterations: iters}, nil
		}
	}
	return FixedBSolution{X: x, N: n, Iterations: maxIter},
		fmt.Errorf("%w: single-level fixed-b solve", ErrNoConverge)
}

// SingleLevelParams collapses a multilevel Params into the equivalent
// single-level (PFS-only) problem: the top level's cost models, and ALL
// failure classes folded into one rate — in a single-level deployment every
// failure, whatever its class, forces a restart from the PFS checkpoint.
func SingleLevelParams(p *model.Params) *model.Params {
	top := p.Levels[len(p.Levels)-1]
	total := 0.0
	for _, v := range p.Rates.PerDay {
		total += v
	}
	sl := *p
	sl.Levels = []overhead.Level{top}
	sl.Rates = failure.Rates{PerDay: []float64{total}, Baseline: p.Rates.Baseline}
	return &sl
}
