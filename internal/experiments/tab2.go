package experiments

import (
	"fmt"

	"mlckpt/internal/fti"
	"mlckpt/internal/heat"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/overhead"
	"mlckpt/internal/sweep"
)

// Tab2Result reproduces Table II: FTI checkpoint overheads per level
// measured at several execution scales, plus the least-squares cost-model
// coefficients (ε_i, α_i) fitted from them.
type Tab2Result struct {
	Scales []int
	Costs  [][]float64 // [scale][level] seconds
	Fitted []overhead.Cost
	// Published is the paper's own fit for reference:
	// (0.866,0)(2.586,0)(3.886,0)(5.5,0.0212).
	Published []overhead.Cost
}

// Tab2Grid measures checkpoint overheads by running the Heat Distribution
// program under FTI on the simulated cluster at each scale and timing one
// checkpoint per level (strong scaling: fixed global problem). The
// per-scale measurement runs (each one a full heat+FTI execution) fan
// across the sweep engine. Measurements are deterministic, so results are
// identical for any worker count.
func Tab2Grid(scales []int, g Grid) (Tab2Result, error) {
	if len(scales) == 0 {
		scales = []int{128, 256, 384, 512, 1024}
	}
	res := Tab2Result{Scales: scales, Published: overhead.FusionFittedCosts()}
	fcfg := fti.DefaultConfig()

	jobs := make([]sweep.Job, len(scales))
	for i, n := range scales {
		n := n
		jobs[i] = sweep.Job{
			Name:     fmt.Sprintf("tab2/%d-cores", n),
			SolveKey: sweep.MustKey("tab2.measure", n),
			Solve: func() (any, error) {
				hcfg := heat.Config{GridX: 1024, GridY: 1024, Iterations: 5, CellTime: 1e-7, TopTemp: 100}
				cluster, err := fti.NewCluster(n, fcfg)
				if err != nil {
					return nil, err
				}
				durs := make([]float64, fti.Levels)
				_, err = mpisim.Run(n, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
					s, err := heat.NewSolver(r, hcfg)
					if err != nil {
						panic(err)
					}
					agent := cluster.Attach(r)
					// The snapshot buffer circulates between this rank and
					// the cluster: CheckpointOwned takes the filled buffer
					// and hands back a recycled one — no payload copy.
					var snapBuf []byte
					s.Run(func(s *heat.Solver) bool {
						it := s.Iteration()
						if it >= 1 && it <= fti.Levels {
							filled := s.SerializeInto(snapBuf)
							recycled, d, err := agent.CheckpointOwned(it, filled)
							if err != nil {
								panic(err)
							}
							snapBuf = recycled
							if r.ID() == 0 {
								durs[it-1] = d
							}
						}
						return true
					})
				})
				if err != nil {
					return nil, err
				}
				return durs, nil
			},
		}
	}
	outs := sweep.Run(jobs, sweep.Options{Workers: g.Workers, Cache: g.Cache, Progress: g.Progress})
	for _, o := range outs {
		if o.Err != nil {
			return res, fmt.Errorf("%s: %w", o.Name, o.Err)
		}
		res.Costs = append(res.Costs, o.Solved.([]float64))
	}

	fitted, err := overhead.Fit(overhead.Characterization{
		Scales: toF(scales),
		Costs:  res.Costs,
	})
	if err != nil {
		return res, err
	}
	res.Fitted = fitted
	return res, nil
}

func toF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// Render prints the measured table and the fitted coefficients.
func (r Tab2Result) Render() string {
	t := NewTable("Table II: measured FTI checkpoint overhead (seconds)",
		"exe. scale", "L1", "L2", "L3", "L4")
	for i, n := range r.Scales {
		t.Add(fmt.Sprintf("%d cores", n), r.Costs[i][0], r.Costs[i][1], r.Costs[i][2], r.Costs[i][3])
	}
	out := t.String()
	f := NewTable("Fitted cost models C_i(N) = ε_i + α_i·H(N)", "level", "measured fit", "paper's fit")
	for i, c := range r.Fitted {
		f.Add(i+1, c.String(), r.Published[i].String())
	}
	return out + f.String()
}
