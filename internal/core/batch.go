package core

import (
	"mlckpt/internal/model"
)

// Problem is one Optimize call as a value: a parameter set plus the solver
// options (including telemetry via Options.Obs/ObsLabel). Params must be
// non-nil.
type Problem struct {
	Params *model.Params
	Opts   Options
}

// Outcome is the (Solution, error) pair of one Optimize call.
type Outcome struct {
	Solution Solution
	Err      error
}

// OptimizeBatch runs Optimize on each problem in order and returns the
// outcomes in the same order. perfbench's grid replay calls it; other code
// calls Optimize directly.
func OptimizeBatch(problems []Problem) []Outcome {
	out := make([]Outcome, len(problems))
	for i, pr := range problems {
		out[i].Solution, out[i].Err = Optimize(pr.Params, pr.Opts)
	}
	return out
}
