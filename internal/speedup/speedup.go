// Package speedup models application speedup g(N) as a function of the
// execution scale N (processes/cores), plus the fitting and diagnostic
// machinery the paper uses around it (Section III-C.2, Figure 2).
//
// The central form is the paper's quadratic curve through the origin
// (Formula 12):
//
//	g(N) = -κ/(2·N^(*))·N² + κ·N
//
// where κ is the slope at the origin and N^(*) is both the symmetry axis of
// the parabola and the "ideal" scale at which the original speedup peaks.
// Amdahl and Gustafson forms are provided as alternatives, and arbitrary
// measured curves can be fitted with FitQuadratic.
package speedup

import (
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/numopt"
)

// ErrFit is returned when a speedup curve cannot be fitted to samples.
var ErrFit = errors.New("speedup: fit failed")

// Model is a differentiable speedup curve.
type Model interface {
	// Speedup returns g(N) for a scale of n cores. g must pass through the
	// origin and be positive on (0, IdealScale].
	Speedup(n float64) float64
	// Derivative returns g'(N).
	Derivative(n float64) float64
	// IdealScale returns N^(*), the scale with maximal original speedup.
	// Optimal scales under the checkpoint model never exceed it
	// (Section III-C.2). Models without an interior maximum return the
	// configured ceiling.
	IdealScale() float64
	// String describes the model for experiment logs.
	String() string
}

// ParallelTime returns f(T_e, N) = T_e / g(N), the failure-free parallel
// productive time for a single-core workload of te time units.
func ParallelTime(m Model, te, n float64) float64 {
	g := m.Speedup(n)
	if g <= 0 {
		return math.Inf(1)
	}
	return te / g
}

// Linear is g(N) = κ·N, the linear-speedup application of Section III-C.1.
// MaxScale bounds the search range (linear speedup has no interior optimum).
type Linear struct {
	Kappa    float64
	MaxScale float64
}

// Speedup implements Model.
func (l Linear) Speedup(n float64) float64 { return l.Kappa * n }

// Derivative implements Model.
func (l Linear) Derivative(float64) float64 { return l.Kappa }

// IdealScale implements Model.
func (l Linear) IdealScale() float64 { return l.MaxScale }

func (l Linear) String() string {
	return fmt.Sprintf("linear(κ=%.4g, max=%.4g)", l.Kappa, l.MaxScale)
}

// Quadratic is the paper's Formula (12): g(N) = -κ/(2N*)·N² + κN.
type Quadratic struct {
	Kappa float64 // slope at the origin
	NStar float64 // symmetry axis N^(*): the ideal scale
}

// Speedup implements Model.
func (q Quadratic) Speedup(n float64) float64 {
	return -q.Kappa/(2*q.NStar)*n*n + q.Kappa*n
}

// Derivative implements Model.
func (q Quadratic) Derivative(n float64) float64 {
	return q.Kappa * (1 - n/q.NStar)
}

// IdealScale implements Model.
func (q Quadratic) IdealScale() float64 { return q.NStar }

func (q Quadratic) String() string {
	return fmt.Sprintf("quadratic(κ=%.4g, N*=%.4g)", q.Kappa, q.NStar)
}

// Amdahl is g(N) = N / (1 + σ·(N-1)) with serial fraction σ — Amdahl's law
// [31], one of the estimation routes the paper names for Formula (12)'s
// coefficients. Its speedup is increasing and bounded by 1/σ; IdealScale
// returns the configured ceiling.
type Amdahl struct {
	SerialFraction float64
	MaxScale       float64
}

// Speedup implements Model.
func (a Amdahl) Speedup(n float64) float64 {
	if n <= 0 {
		return 0
	}
	return n / (1 + a.SerialFraction*(n-1))
}

// Derivative implements Model.
func (a Amdahl) Derivative(n float64) float64 {
	den := 1 + a.SerialFraction*(n-1)
	return (1 - a.SerialFraction) / (den * den)
}

// IdealScale implements Model.
func (a Amdahl) IdealScale() float64 { return a.MaxScale }

func (a Amdahl) String() string {
	return fmt.Sprintf("amdahl(σ=%.4g, max=%.4g)", a.SerialFraction, a.MaxScale)
}

// Gustafson is scaled speedup g(N) = N - σ·(N-1) — Gustafson–Barsis's law
// [32] for weak-scaling workloads.
type Gustafson struct {
	SerialFraction float64
	MaxScale       float64
}

// Speedup implements Model.
func (g Gustafson) Speedup(n float64) float64 {
	if n <= 0 {
		return 0
	}
	return n - g.SerialFraction*(n-1)
}

// Derivative implements Model.
func (g Gustafson) Derivative(float64) float64 { return 1 - g.SerialFraction }

// IdealScale implements Model.
func (g Gustafson) IdealScale() float64 { return g.MaxScale }

func (g Gustafson) String() string {
	return fmt.Sprintf("gustafson(σ=%.4g, max=%.4g)", g.SerialFraction, g.MaxScale)
}

// Sample is a measured (scale, speedup) pair.
type Sample struct {
	N       float64
	Speedup float64
}

// FitQuadratic fits Formula (12) to measured samples by least squares
// through the origin and returns the resulting model. Following the paper's
// treatment of the Nek5000 eddy_uv curve (Figure 2b), callers should
// restrict samples to the rising range of the curve; FitQuadraticRising
// does that automatically.
func FitQuadratic(samples []Sample) (Quadratic, error) {
	if len(samples) < 2 {
		return Quadratic{}, fmt.Errorf("%w: need at least 2 samples, have %d", ErrFit, len(samples))
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i], ys[i] = s.N, s.Speedup
	}
	a, b, err := numopt.FitQuadraticThroughOrigin(xs, ys)
	if err != nil {
		return Quadratic{}, fmt.Errorf("%w: %v", ErrFit, err)
	}
	if b <= 0 {
		return Quadratic{}, fmt.Errorf("%w: non-positive origin slope κ=%g", ErrFit, b)
	}
	if a >= 0 {
		// Concave-up fit: the data is effectively linear on this range.
		// Place the symmetry axis far beyond the data so the curve is
		// near-linear over the observed scales.
		maxN := xs[0]
		for _, x := range xs {
			if x > maxN {
				maxN = x
			}
		}
		return Quadratic{Kappa: b, NStar: maxN * 1e3}, nil
	}
	return Quadratic{Kappa: b, NStar: -b / (2 * a)}, nil
}

// FitQuadraticRising truncates the sample set at the empirical speedup peak
// (inclusive) before fitting, matching the paper's guidance that only the
// initial scale range up to the maximum original speedup matters for the
// optimization (the optimum under checkpointing cannot exceed it).
func FitQuadraticRising(samples []Sample) (Quadratic, error) {
	if len(samples) == 0 {
		return Quadratic{}, fmt.Errorf("%w: no samples", ErrFit)
	}
	peak := 0
	for i, s := range samples {
		if s.Speedup > samples[peak].Speedup {
			peak = i
		}
	}
	return FitQuadratic(samples[:peak+1])
}

// GoodnessOfFit returns R² of a model against samples.
func GoodnessOfFit(m Model, samples []Sample) float64 {
	ys := make([]float64, len(samples))
	pred := make([]float64, len(samples))
	for i, s := range samples {
		ys[i] = s.Speedup
		pred[i] = m.Speedup(s.N)
	}
	return numopt.RSquared(ys, pred)
}
