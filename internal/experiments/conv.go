package experiments

import (
	"mlckpt/internal/core"
)

// ConvRow reports Algorithm 1's convergence on one scenario.
type ConvRow struct {
	Spec            string
	OuterIterations int
	InnerIterations int
	Converged       bool
	FinalDeltaHist  []float64 // μ-delta per outer step
}

// ConvResult is the convergence study of Section IV-B: at δ = 1e-12 the
// paper reports 8, 7, and 15 iterations for the three Table IV cases.
type ConvResult struct {
	Rows []ConvRow
}

// ConvergenceGrid runs Algorithm 1 at the paper's δ=1e-12 on the Table IV
// scenarios and records the iteration counts. Each scenario's optimizer
// run traces its outer iterations on track "opt/conv/<spec>" into g's
// telemetry sink. The study itself stays serial — three solves do not
// need a pool — so only Obs from g is consulted.
func ConvergenceGrid(specs []string, g Grid) (ConvResult, error) {
	if len(specs) == 0 {
		specs = Tab4Cases
	}
	res := ConvResult{}
	for _, spec := range specs {
		sc := Tab4Scenario(spec, 1.0)
		sol, err := core.Optimize(sc.Params(), core.Options{
			OuterTol: 1e-12,
			Obs:      g.Obs,
			ObsLabel: "opt/conv/" + spec,
		})
		if err != nil {
			return res, err
		}
		row := ConvRow{
			Spec:            spec,
			OuterIterations: sol.OuterIterations,
			InnerIterations: sol.InnerIterations,
			Converged:       sol.Converged,
		}
		for _, st := range sol.History {
			row.FinalDeltaHist = append(row.FinalDeltaHist, st.MuDelta)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the iteration counts.
func (r ConvResult) Render() string {
	t := NewTable("Algorithm 1 convergence (δ = 1e-12; paper: 8/7/15 iterations)",
		"case", "outer iters", "total inner iters", "converged")
	for _, row := range r.Rows {
		t.Add(row.Spec, row.OuterIterations, row.InnerIterations, row.Converged)
	}
	return t.String()
}
