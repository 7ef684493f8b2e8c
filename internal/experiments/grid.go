package experiments

import (
	"fmt"

	"mlckpt/internal/core"
	"mlckpt/internal/obs"
	"mlckpt/internal/overhead"
	"mlckpt/internal/sweep"
)

// Cell is one (scenario, policy) job of an evaluation grid.
type Cell struct {
	Scenario Scenario
	Policy   core.Policy
}

// Grid tunes how a sweep over cells executes. The zero value runs on all
// CPUs with a private cache — results are identical for every Workers
// setting, so parallelism is purely a wall-clock knob.
type Grid struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Cache shares memoized solves and simulations across grids (Figure 5,
	// Table III, and Figure 7 reuse the same cells). Nil = private cache.
	Cache *sweep.Cache
	// Progress, when non-nil, receives one call per finished cell.
	Progress func(done, total int, name string)
	// Obs receives the sweep engine's counters plus each cell's optimizer
	// and simulator telemetry. Trace tracks are labeled by cell content
	// (spec, policy, and the cell's cache-key suffix), so a grid's trace is
	// byte-identical for every Workers setting. Nil disables telemetry.
	Obs obs.Recorder
	// Clock supplies wall-clock seconds for the engine's volatile latency
	// metrics (pass obs.WallClock from a CLI); nil disables them. It is
	// injected because this package is lint-gated against direct time.Now.
	Clock func() float64
}

// solveProblem is the canonical identity of a cell's Algorithm 1 run: the
// scenario fields that reach model.Params, and nothing else. Simulation
// knobs (runs, jitter, seed, horizon) deliberately stay out so cells that
// differ only in simulation settings share one solve.
type solveProblem struct {
	Te        float64
	NStar     float64
	Kappa     float64
	Costs     []overhead.Cost
	RecFactor float64
	Alloc     float64
	Rates     string
}

func (s Scenario) solveProblem() solveProblem {
	return solveProblem{
		Te:        s.TeCoreDays,
		NStar:     s.NStar,
		Kappa:     s.Kappa,
		Costs:     s.Costs,
		RecFactor: s.RecFactor,
		Alloc:     s.Alloc,
		Rates:     s.Spec,
	}
}

// solvedCell carries a solve result through the engine to the Post stage.
type solvedCell struct {
	Solution core.Solution
	X        []float64
}

// RunGrid fans the cells across the sweep engine and returns their
// outcomes in cell order. Equal solve problems are computed once (shared
// via the cache), every cell's simulator stream comes from
// Scenario.SimSeed, and the first failing cell aborts with its name.
func RunGrid(cells []Cell, g Grid) ([]PolicyOutcome, error) {
	jobs := make([]sweep.Job, len(cells))
	for i, c := range cells {
		sc, pol := c.Scenario, c.Policy
		solveKey, err := sweep.Key("experiments.solve", sc.solveProblem(), int(pol))
		if err != nil {
			return nil, fmt.Errorf("grid cell %s/%v: %w", sc.Spec, pol, err)
		}
		postKey, err := sweep.Key("experiments.simulate", sc, int(pol))
		if err != nil {
			return nil, fmt.Errorf("grid cell %s/%v: %w", sc.Spec, pol, err)
		}
		// Track labels derive from the cell's cache keys, never the job
		// index: equal keys mean equal labels, so whichever duplicate cell
		// wins the singleflight race emits the same trace bytes.
		solveTrack := fmt.Sprintf("opt/%s/%v#%s", sc.Spec, pol, sweep.KeyTag(solveKey))
		simTrack := fmt.Sprintf("sim/%s/%v#%s", sc.Spec, pol, sweep.KeyTag(postKey))
		jobs[i] = sweep.Job{
			Name:     fmt.Sprintf("%s/%v", sc.Spec, pol),
			SolveKey: solveKey,
			Solve: func() (any, error) {
				sol, x, err := SolvePolicyObs(sc, pol, g.Obs, solveTrack)
				if err != nil {
					return nil, err
				}
				return solvedCell{Solution: sol, X: x}, nil
			},
			PostKey: postKey,
			Seed:    sc.SimSeed(pol),
			Post: func(solved any, seed uint64) (any, error) {
				sv := solved.(solvedCell)
				out, err := SimulatePolicyObs(sc, pol, sv.Solution, sv.X, seed, g.Obs, simTrack)
				if err != nil {
					return nil, err
				}
				return out, nil
			},
		}
	}
	outs := sweep.Run(jobs, sweep.Options{
		Workers: g.Workers, Cache: g.Cache, Progress: g.Progress,
		Obs: g.Obs, Clock: g.Clock,
	})
	res := make([]PolicyOutcome, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("%s: %w", o.Name, o.Err)
		}
		res[i] = o.Result.(PolicyOutcome)
	}
	return res, nil
}
