// Package core implements the paper's primary contribution: joint
// optimization of the multilevel checkpoint intervals x_1..x_L and the
// execution scale N (Section III).
//
// The entry points are:
//
//   - Optimize: Algorithm 1 — the outer loop that alternates between a
//     convex inner solve (with expected failure counts frozen as μ_i(N) =
//     b_i·N) and a refresh of those counts from the new expected wall
//     clock, until the μ_i converge. The inner solve is a fixed-point
//     iteration on the first-order conditions (Formulas 23/24),
//     initialized by Young's formula (Formula 25), with N found by
//     bisection on [1, N^(*)].
//   - SolveSingleLevelFixedB: the single-level nonlinear iteration
//     (Formulas 16/17) at a fixed failure coefficient b, used to reproduce
//     the Figure 3 confirmation study.
//   - Policy: the four evaluated strategies — ML(opt-scale) (this paper),
//     SL(opt-scale) ([23]), ML(ori-scale) ([22]), SL(ori-scale) (Young [3]).
package core

import (
	"errors"

	"mlckpt/internal/obs"
)

// Errors reported by the solvers.
var (
	// ErrDiverged is returned when an iteration produces non-finite or
	// runaway values. Algorithm 1 diverges only when failure rates are
	// extreme enough that each wall-clock refresh inflates μ faster than
	// the inner solve can compensate (Section III-D's convergence remark).
	ErrDiverged = errors.New("core: iteration diverged")
	// ErrNoConverge is returned when the iteration cap is hit first.
	ErrNoConverge = errors.New("core: iteration did not converge")
)

// Fixed solver settings. innerTol is the paper's inner threshold
// (Section III-C.2); the iteration caps sit well above the 30–40 inner and
// 7–15 outer iterations the paper observes.
const (
	innerTol     = 1e-6
	innerMaxIter = 500
	outerMaxIter = 200
	scaleFloor   = 1.0 // smallest admissible N
)

// Options tunes the solvers. The zero value picks the paper's settings.
type Options struct {
	// OuterTol is δ in Algorithm 1: the threshold on max_i |μ'_i − μ_i|.
	// The convergence study in Section IV-B uses 1e-12; default 1e-9.
	OuterTol float64
	// FixedN, when positive, pins the execution scale (the "ori-scale"
	// baselines) and optimizes only the interval counts.
	FixedN float64
	// NumericGradN switches the scale search from the analytic Formula (24)
	// to a finite-difference gradient — the ablation path.
	NumericGradN bool
	// Accelerate applies Aitken Δ² extrapolation to the wall-clock
	// fixed point every three outer steps. The outer loop contracts
	// geometrically with the failure-feedback coefficient; Aitken jumps
	// along the geometric tail, typically cutting the iteration count by
	// 2-4x without changing the answer. Off by default (the paper's
	// plain iteration).
	Accelerate bool
	// Obs receives solver telemetry: per-outer-iteration spans on a
	// virtual timeline (cumulative inner iterations), convergence deltas,
	// and bisection counters. Nil disables instrumentation entirely; the
	// solvers never read the wall clock, so the recorded values are pure
	// functions of the problem.
	Obs obs.Recorder
	// ObsLabel names the trace track of this solve. It must be derived
	// from the problem content (a cache key, a scenario label), never
	// from scheduling; empty defaults to "optimize".
	ObsLabel string
	// SinglePass stops after one outer step: μ stays pinned to the
	// failure-free productive time. This is classic Young's formula [3] —
	// the SL(ori-scale) baseline — which does not refresh the expected
	// failure count from the wall clock. Its reported WallClock is the
	// first-order estimate and can badly underestimate regimes where the
	// self-consistent model diverges (checkpoint cost ≳ MTBF); the
	// simulator reports the real cost there.
	SinglePass bool
}

func (o Options) withDefaults() Options {
	if o.OuterTol <= 0 {
		o.OuterTol = 1e-9
	}
	return o
}

// OuterStep records one iteration of Algorithm 1 for diagnostics.
type OuterStep struct {
	Mu        []float64 // μ_i at the start of the step
	N         float64   // scale chosen by the inner solve
	WallClock float64   // E(T_w) after the inner solve, seconds
	MuDelta   float64   // max_i |μ'_i − μ_i| after the refresh
}

// Solution is the outcome of an optimization.
type Solution struct {
	X               []float64 // optimal interval counts per level (≥ 1)
	N               float64   // optimal execution scale, cores
	WallClock       float64   // expected wall-clock time, seconds
	Mu              []float64 // converged expected failures per level
	OuterIterations int       // Algorithm 1 iterations
	InnerIterations int       // total inner fixed-point iterations
	Converged       bool
	History         []OuterStep // per-outer-step diagnostics
}

// Intervals returns the rounded interval counts (the paper reports integral
// x_i, e.g. 797 and 140 in Figure 3).
func (s Solution) Intervals() []int {
	out := make([]int, len(s.X))
	for i, x := range s.X {
		r := int(x + 0.5)
		if r < 1 {
			r = 1
		}
		out[i] = r
	}
	return out
}

// Scale returns the rounded optimal core count.
func (s Solution) Scale() int {
	n := int(s.N + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
