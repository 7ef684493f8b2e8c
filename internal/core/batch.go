package core

import (
	"mlckpt/internal/model"
)

// Problem is one lane of a batched solve: a parameter set plus the solver
// options (including per-lane telemetry via Options.Obs/ObsLabel).
// Params must be non-nil.
type Problem struct {
	Params *model.Params
	Opts   Options
}

// Outcome is one lane's result of OptimizeBatch, mirroring the
// (Solution, error) pair of Optimize.
type Outcome struct {
	Solution Solution
	Err      error
}

// OptimizeBatch runs Algorithm 1 for many independent problem instances in
// lockstep: every active lane advances one inner fixed-point iteration per
// round, and the outer μ-refreshes of a round happen together once every
// lane's inner solve of that round has terminated. Per-lane convergence
// masks retire finished lanes, and the per-level iterate vectors of all
// lanes live in one shared scratch arena.
//
// Every lane computes exactly what a sequential Optimize call would — same
// floating-point operations in the same per-lane order — so the outcomes
// are bit-identical to looping over Optimize; the batch form exists to
// amortize scratch and give grid drivers a single call per sweep.
func OptimizeBatch(problems []Problem) []Outcome {
	out := make([]Outcome, len(problems))
	if len(problems) == 0 {
		return out
	}
	total := 0
	for i := range problems {
		total += optRunVecs * problems[i].Params.L()
	}
	arena := make([]float64, total)
	runs := make([]*optRun, len(problems))
	off := 0
	for i := range problems {
		L := problems[i].Params.L()
		o := &optRun{}
		err := o.init(problems[i].Params, problems[i].Opts, arena[off:off+optRunVecs*L])
		off += optRunVecs * L
		if err != nil {
			out[i].Err = err
			continue
		}
		runs[i] = o
	}
	for {
		active := false
		for _, o := range runs {
			if o != nil && !o.done {
				active = true
				o.outerStepBegin()
			}
		}
		if !active {
			break
		}
		// Lockstep inner phase: one fixed-point iteration per lane per
		// pass until every lane's inner solve of this outer round is done.
		for {
			pending := false
			for _, o := range runs {
				if o == nil || o.done || o.run.done {
					continue
				}
				if !o.run.step() {
					pending = true
				}
			}
			if !pending {
				break
			}
		}
		for _, o := range runs {
			if o != nil && !o.done {
				o.outerStepFinish()
			}
		}
	}
	for i, o := range runs {
		if o != nil {
			out[i] = Outcome{Solution: o.sol, Err: o.err}
		}
	}
	return out
}
