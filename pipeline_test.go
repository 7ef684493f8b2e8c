package mlckpt

import (
	"math"
	"testing"

	"mlckpt/internal/fti"
	"mlckpt/internal/heat"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/overhead"
)

// TestEndToEndPaperPipeline exercises the whole repository the way the
// paper's methodology chains its pieces:
//
//  1. characterize FTI checkpoint overheads by running the real
//     application on the simulated cluster at several scales;
//  2. fit per-level cost models from the characterization (Table II);
//  3. feed the fitted models into the optimizer (Algorithm 1);
//  4. validate the resulting plan with the stochastic simulator;
//  5. confirm the optimized plan beats the naive full-machine plan.
func TestEndToEndPaperPipeline(t *testing.T) {
	// --- 1. Characterization runs (small scales for test speed). ---
	scales := []int{32, 64, 128}
	fcfg := fti.DefaultConfig()
	var table [][]float64
	for _, n := range scales {
		hcfg := heat.Config{GridX: 256, GridY: 256, Iterations: 5, CellTime: 1e-7, TopTemp: 100}
		cluster, err := fti.NewCluster(n, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		durs := make([]float64, fti.Levels)
		if _, err := mpisim.Run(n, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
			s, err := heat.NewSolver(r, hcfg)
			if err != nil {
				panic(err)
			}
			agent := cluster.Attach(r)
			s.Run(func(s *heat.Solver) bool {
				if it := s.Iteration(); it >= 1 && it <= fti.Levels {
					d, err := agent.Checkpoint(it, s.Serialize())
					if err != nil {
						panic(err)
					}
					if r.ID() == 0 {
						durs[it-1] = d
					}
				}
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		table = append(table, durs)
	}

	// --- 2. Fit the cost models. ---
	fitted, err := overhead.Fit(overhead.Characterization{
		Scales: []float64{32, 64, 128},
		Costs:  table,
	})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}

	// --- 3. Optimize with the fitted costs (scaled-up machine). ---
	spec := Spec{
		TeCoreDays: 1e4,
		Speedup:    SpeedupSpec{Kind: "quadratic", Kappa: 0.5, IdealScale: 1e5},
		Levels:     make([]LevelSpec, fti.Levels),
		// Costs are tiny on the test problem; scale them up to exercise
		// the tradeoff meaningfully.
		AllocSeconds:   30,
		FailuresPerDay: []float64{16, 12, 8, 4},
	}
	for i, c := range fitted {
		spec.Levels[i] = LevelSpec{
			CheckpointConst: c.Const * 1000,
			CheckpointSlope: c.Coeff * 1000,
		}
	}
	plan, err := Optimize(spec, MLOptScale)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if !plan.Converged || plan.Scale <= 0 || plan.Scale > 1e5 {
		t.Fatalf("plan: %+v", plan)
	}

	// --- 4. Simulate the plan. ---
	rep, err := Simulate(spec, plan, SimOptions{Runs: 30, Seed: 3})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if rep.TruncatedRuns != 0 {
		t.Fatalf("truncated runs: %d", rep.TruncatedRuns)
	}
	rel := (rep.MeanWallClockDays - plan.ExpectedWallClockDays) / plan.ExpectedWallClockDays
	if rel < -0.15 || rel > 0.6 {
		t.Errorf("sim %g vs model %g days", rep.MeanWallClockDays, plan.ExpectedWallClockDays)
	}

	// --- 5. Compare against the full-machine baseline. ---
	ori, err := Optimize(spec, MLOriScale)
	if err != nil {
		t.Fatal(err)
	}
	oriRep, err := Simulate(spec, ori, SimOptions{Runs: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanWallClockDays >= oriRep.MeanWallClockDays*1.02 {
		t.Errorf("optimized plan (%g d) not better than full machine (%g d)",
			rep.MeanWallClockDays, oriRep.MeanWallClockDays)
	}
	if math.IsNaN(rep.Efficiency) || rep.Efficiency <= oriRep.Efficiency {
		t.Errorf("optimized efficiency %g not above full-machine %g",
			rep.Efficiency, oriRep.Efficiency)
	}
}
