// Package model implements the analytic expected-wall-clock model of the
// paper: the multilevel objective E(T_w) (Formula 21) with its expected
// rollback loss (Formula 18), the single-level specializations (Formulas
// 5, 7 and 13), Young's initialization (Formula 25), and the analytic
// first-order conditions (Formulas 23/24). The self-consistent closed form
// of the difficulty analysis (Formula 6) lives in the package tests, which
// exhibit its nonconvexity.
//
// Everything here is deterministic algebra over a Params value; the solvers
// in internal/core search these functions, and internal/sim validates them
// stochastically.
package model

import (
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/failure"
	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
)

// ErrParams is returned when a Params value is structurally invalid.
var ErrParams = errors.New("model: invalid parameters")

// Params bundles everything the analytic model needs. All times are in
// seconds; Te is the single-core productive time (the paper quotes it in
// core-days; multiply by failure.SecondsPerDay).
type Params struct {
	Te      float64          // single-core productive time, seconds
	Speedup speedup.Model    // g(N)
	Levels  []overhead.Level // per-level checkpoint/recovery cost models
	Alloc   float64          // A: resource (re)allocation period, seconds
	Rates   failure.Rates    // per-level failure rates vs scale
}

// L returns the number of checkpoint levels.
func (p *Params) L() int { return len(p.Levels) }

// Validate checks structural consistency.
func (p *Params) Validate() error {
	if p.Te <= 0 {
		return fmt.Errorf("%w: Te = %g", ErrParams, p.Te)
	}
	if p.Speedup == nil {
		return fmt.Errorf("%w: nil speedup model", ErrParams)
	}
	if len(p.Levels) == 0 {
		return fmt.Errorf("%w: no checkpoint levels", ErrParams)
	}
	if p.Alloc < 0 {
		return fmt.Errorf("%w: negative allocation period", ErrParams)
	}
	if p.Rates.Levels() != len(p.Levels) {
		return fmt.Errorf("%w: %d failure levels vs %d checkpoint levels",
			ErrParams, p.Rates.Levels(), len(p.Levels))
	}
	return nil
}

// ProductiveTime returns f(T_e, N) = T_e/g(N) in seconds.
func (p *Params) ProductiveTime(n float64) float64 {
	return speedup.ParallelTime(p.Speedup, p.Te, n)
}

// MuOfN returns the per-level expected failure counts μ_i(N) = λ_i(N)·T for
// a frozen wall-clock estimate T (seconds). This is the extra condition of
// Algorithm 1: within one inner solve, μ depends on N only.
func (p *Params) MuOfN(n, wallClockSec float64) []float64 {
	mu := make([]float64, p.L())
	for i := range mu {
		mu[i] = p.Rates.ExpectedFailures(i, n, wallClockSec)
	}
	return mu
}

// BOfT returns the linear coefficients b_i such that μ_i(N) = b_i·N for a
// frozen wall-clock estimate T: b_i = λ_i(1)·T = r_i·T/(N_b·86400). These
// are the μ'_i(N) values in Formula (24).
func (p *Params) BOfT(wallClockSec float64) []float64 {
	b := make([]float64, p.L())
	for i := range b {
		b[i] = p.Rates.PerSecondAt(i, 1) * wallClockSec
	}
	return b
}

// MuOfNInto is the allocation-free MuOfN: it fills dst (length L) with
// μ_i(N) = λ_i(N)·T.
//
//mlckpt:hotpath
func (p *Params) MuOfNInto(dst []float64, n, wallClockSec float64) {
	for i := range dst {
		dst[i] = p.Rates.ExpectedFailures(i, n, wallClockSec)
	}
}

// BOfTInto is the allocation-free BOfT: it fills dst (length L) with
// b_i = λ_i(1)·T.
//
//mlckpt:hotpath
func (p *Params) BOfTInto(dst []float64, wallClockSec float64) {
	for i := range dst {
		dst[i] = p.Rates.PerSecondAt(i, 1) * wallClockSec
	}
}

// ExpectedRollback returns E(Γ_ij), the expected per-failure rollback loss
// at level i (0-indexed), Formula (18):
//
//	E(Γ_ij) = f(T_e,N)/(2x_i) + Σ_{k=1..i} C_k(N)·x_k/(2x_i)
//
// The sum counts the lower-level checkpoint work that must be redone plus
// half of the level's own checkpoint overhead.
func (p *Params) ExpectedRollback(x []float64, n float64, i int) float64 {
	loss := p.ProductiveTime(n) / (2 * x[i])
	for k := 0; k <= i; k++ {
		loss += p.Levels[k].Checkpoint.At(n) * x[k] / (2 * x[i])
	}
	return loss
}

// WallClock evaluates the multilevel objective E(T_w) (Formula 21) at
// checkpoint-interval counts x (len L), scale n, and frozen expected
// failure counts mu (len L).
func (p *Params) WallClock(x []float64, n float64, mu []float64) float64 {
	total := p.ProductiveTime(n)
	for i := range p.Levels {
		total += p.Levels[i].Checkpoint.At(n) * (x[i] - 1)
	}
	for i := range p.Levels {
		total += mu[i] * (p.ExpectedRollback(x, n, i) + p.Alloc + p.Levels[i].Recovery.At(n))
	}
	return total
}

// GradX returns ∂E(T_w)/∂x_i (Formula 23):
//
//	C_i − μ_i/(2x_i²)·(T_e/g(N) + Σ_{j<i} C_j·x_j) + (C_i/2)·Σ_{j>i} μ_j/x_j
func (p *Params) GradX(x []float64, n float64, mu []float64, i int) float64 {
	ci := p.Levels[i].Checkpoint.At(n)
	inner := p.ProductiveTime(n)
	for j := 0; j < i; j++ {
		inner += p.Levels[j].Checkpoint.At(n) * x[j]
	}
	grad := ci - mu[i]/(2*x[i]*x[i])*inner
	higher := 0.0
	for j := i + 1; j < p.L(); j++ {
		higher += mu[j] / x[j]
	}
	return grad + ci/2*higher
}

// GradN returns ∂E(T_w)/∂N (Formula 24) under μ_i(N) = b_i·N (so μ'_i = b_i
// and μ_i = b_i·n):
//
//	T_e/g² [ Σ b_i/(2x_i)·g − (1 + Σ μ_i/(2x_i))·g' ]
//	+ Σ C'_i(x_i−1)
//	+ Σ [ b_i(Σ_{k≤i} C_k x_k/(2x_i) + A + R_i) + μ_i(Σ_{k≤i} C'_k x_k/(2x_i) + R'_i) ]
func (p *Params) GradN(x []float64, n float64, b []float64) float64 {
	g := p.Speedup.Speedup(n)
	gp := p.Speedup.Derivative(n)
	sumBp, sumMu := 0.0, 0.0
	for i := range p.Levels {
		sumBp += b[i] / (2 * x[i])
		sumMu += b[i] * n / (2 * x[i])
	}
	grad := p.Te / (g * g) * (sumBp*g - (1+sumMu)*gp)
	for i := range p.Levels {
		grad += p.Levels[i].Checkpoint.DerivativeAt(n) * (x[i] - 1)
	}
	for i := range p.Levels {
		sumCk, sumCkPrime := 0.0, 0.0
		for k := 0; k <= i; k++ {
			sumCk += p.Levels[k].Checkpoint.At(n) * x[k] / (2 * x[i])
			sumCkPrime += p.Levels[k].Checkpoint.DerivativeAt(n) * x[k] / (2 * x[i])
		}
		grad += b[i] * (sumCk + p.Alloc + p.Levels[i].Recovery.At(n))
		grad += b[i] * n * (sumCkPrime + p.Levels[i].Recovery.DerivativeAt(n))
	}
	return grad
}

// YoungX returns the Young-formula initialization for level i (Formula 25):
//
//	x_i = sqrt( μ_i(N)·(T_e/g(N)) / (2·C_i(N)) )
//
// clamped below at 1 (at least one interval).
func (p *Params) YoungX(n float64, mu []float64, i int) float64 {
	c := p.Levels[i].Checkpoint.At(n)
	if c <= 0 {
		return 1
	}
	x := math.Sqrt(mu[i] * p.ProductiveTime(n) / (2 * c))
	if x < 1 || math.IsNaN(x) {
		return 1
	}
	return x
}

// SingleLevelWallClock evaluates the paper's single-level objective
// (Formula 7 generalized to Formula 13's nonlinear g and non-constant
// costs):
//
//	E(T_w) = T_e/g(N) + C(N)(x−1) + μ(N)·( T_e/g(N)/(2x) + R(N) + A )
//
// where μ(N) = b·N. The single-level derivation omits the C/2 rollback term
// present in the multilevel Formula (18); keep that in mind when comparing
// with WallClock at L=1.
func SingleLevelWallClock(te float64, g speedup.Model, c, r overhead.Cost, alloc, b, x, n float64) float64 {
	pt := speedup.ParallelTime(g, te, n)
	return pt + c.At(n)*(x-1) + b*n*(pt/(2*x)+r.At(n)+alloc)
}

// Efficiency returns the paper's efficiency (processor utilization) metric:
// the wall-clock-based speedup T_e/T_w divided by the number of cores.
func Efficiency(te, wallClock, n float64) float64 {
	if wallClock <= 0 || n <= 0 {
		return math.NaN()
	}
	return te / wallClock / n
}
