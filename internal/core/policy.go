package core

import (
	"fmt"

	"mlckpt/internal/model"
)

// Policy selects one of the four strategies evaluated in Section IV.
type Policy int

// The four evaluated solutions (Section IV-A).
const (
	// MLOptScale is the paper's contribution: multilevel checkpoints with
	// jointly optimized intervals and scale.
	MLOptScale Policy = iota
	// SLOptScale is the improved-Young single-level model with optimized
	// scale, after Jin et al. [23].
	SLOptScale
	// MLOriScale is the authors' prior work [22]: multilevel intervals
	// optimized at the original ideal scale N^(*).
	MLOriScale
	// SLOriScale is classic Young [3]: single level (PFS), ideal scale.
	SLOriScale
)

// Policies lists all four in the paper's presentation order.
var Policies = []Policy{MLOptScale, SLOptScale, MLOriScale, SLOriScale}

func (p Policy) String() string {
	switch p {
	case MLOptScale:
		return "ML(opt-scale)"
	case SLOptScale:
		return "SL(opt-scale)"
	case MLOriScale:
		return "ML(ori-scale)"
	case SLOriScale:
		return "SL(ori-scale)"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Multilevel reports whether the policy checkpoints at all levels.
func (p Policy) Multilevel() bool { return p == MLOptScale || p == MLOriScale }

// OptimizesScale reports whether the policy tunes N.
func (p Policy) OptimizesScale() bool { return p == MLOptScale || p == SLOptScale }

// Solve runs the policy on the given multilevel problem. Single-level
// policies internally collapse the problem with SingleLevelParams; the
// returned Solution's X then has length 1 (the PFS level).
func (p Policy) Solve(prm *model.Params, opts Options) (Solution, error) {
	prob, err := p.BatchProblem(prm, opts)
	if err != nil {
		return Solution{}, err
	}
	return Optimize(prob.Params, prob.Opts)
}

// BatchProblem maps (params, policy, options) onto the exact Optimize call
// that Solve would make — the single-level collapse, the scale pinning,
// and the single-pass flag. Solve is equivalent to Optimize on the
// returned problem.
func (p Policy) BatchProblem(prm *model.Params, opts Options) (Problem, error) {
	if err := prm.Validate(); err != nil {
		return Problem{}, err
	}
	work := prm
	if !p.Multilevel() {
		work = SingleLevelParams(prm)
	}
	if !p.OptimizesScale() {
		opts.FixedN = prm.Speedup.IdealScale()
	} else {
		opts.FixedN = 0
	}
	if p == SLOriScale {
		// Classic Young's formula does not iterate the failure estimate.
		opts.SinglePass = true
	}
	return Problem{Params: work, Opts: opts}, nil
}

// ExpandX maps a policy solution's interval counts onto the full L-level
// schedule expected by the simulator: multilevel solutions pass through;
// single-level solutions checkpoint only at the top level (x_i = 1, i.e.
// no checkpoints, for all lower levels).
func (p Policy) ExpandX(prm *model.Params, sol Solution) []float64 {
	L := prm.L()
	if p.Multilevel() {
		return append([]float64(nil), sol.X...)
	}
	x := make([]float64, L)
	for i := range x {
		x[i] = 1
	}
	x[L-1] = sol.X[0]
	return x
}
