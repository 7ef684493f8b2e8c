// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each regenerating its experiment end to end (scaled-down run
// counts so a full -bench=. pass stays in minutes; cmd/experiments runs the
// paper-sized configurations). Ablation benchmarks cover the design choices
// called out in DESIGN.md.
package mlckpt

import (
	"testing"

	"mlckpt/internal/core"
	"mlckpt/internal/experiments"
	"mlckpt/internal/failure"
	"mlckpt/internal/sim"
	"mlckpt/internal/stats"
)

// BenchmarkFig1 regenerates the Figure 1 tradeoff series.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(50)
		if r.PeakWithCkpt >= r.PeakOriginal {
			b.Fatal("peak did not shift left")
		}
	}
}

// BenchmarkFig2 regenerates the speedup curves and quadratic fits of
// Figure 2 (heat runs up to 128 ranks per iteration).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2Grid(128, experiments.Grid{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Heat.Fit.Kappa <= 0 {
			b.Fatal("bad fit")
		}
	}
}

// BenchmarkFig3 regenerates the single-level optimum confirmation
// (x*≈797/N*≈81,746 and x*≈140/N*≈20,215).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(9)
		if err != nil {
			b.Fatal(err)
		}
		if r.Constant.XStar < 790 || r.Constant.XStar > 805 {
			b.Fatalf("x* = %g", r.Constant.XStar)
		}
	}
}

// BenchmarkFig4 regenerates the simulator-validation comparison (real
// heat+FTI executions vs the event-driven simulator).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4Grid(16, 2, 50, experiments.Grid{})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkTab2 regenerates the Table II overhead characterization and fit.
func BenchmarkTab2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tab2Grid([]int{128, 256, 512}, experiments.Grid{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Fitted[3].IsConstant() {
			b.Fatal("level-4 growth not detected")
		}
	}
}

// BenchmarkFig5 regenerates the Te=3M-core-day time analysis (one failure
// case per iteration; cmd/experiments sweeps all six).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EvalGrid(3e6, 10, []string{"16-12-8-4"}, experiments.Grid{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab3 regenerates the optimized-scale table (solver only — the
// scales come from the optimization, not the simulation).
func BenchmarkTab3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range experiments.FailureCases {
			sc := experiments.EvalScenario(3e6, spec)
			sol, err := core.MLOptScale.Solve(sc.Params(), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if sol.N >= 1e6 {
				b.Fatalf("%s: scale not optimized", spec)
			}
		}
	}
}

// BenchmarkFig6 regenerates the Te=10M-core-day time analysis (one case).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EvalGrid(10e6, 10, []string{"8-6-4-2"}, experiments.Grid{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the efficiency comparison.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.EvalGrid(3e6, 10, []string{"4-3-2-1"}, experiments.Grid{})
		if err != nil {
			b.Fatal(err)
		}
		if r.RenderFig7() == "" {
			b.Fatal("empty efficiency table")
		}
	}
}

// BenchmarkTab4 regenerates the constant-PFS-cost study (one case).
func BenchmarkTab4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tab4Grid(10, []string{"8-6-4-2"}, experiments.Grid{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergence regenerates the Algorithm 1 iteration-count study.
func BenchmarkConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ConvergenceGrid(nil, experiments.Grid{})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if !row.Converged {
				b.Fatalf("%s did not converge", row.Spec)
			}
		}
	}
}

// BenchmarkOptimize measures one full Algorithm 1 solve — the cost a
// scheduler would pay per submitted job.
func BenchmarkOptimize(b *testing.B) {
	spec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(spec, MLOptScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Ranks32 is the Figure 4 study at a larger scale point: 32
// ranks and doubled real-run averaging.
func BenchmarkFig4Ranks32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4Grid(32, 4, 100, experiments.Grid{})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// evalGridProblems is a full evaluation grid: all six failure cases across
// all four policies, the shape experiments.RunGrid submits.
func evalGridProblems(b *testing.B) []core.Problem {
	var problems []core.Problem
	for _, spec := range experiments.FailureCases {
		sc := experiments.EvalScenario(3e6, spec)
		for _, pol := range core.Policies {
			prob, err := pol.BatchProblem(sc.Params(), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			problems = append(problems, prob)
		}
	}
	return problems
}

// BenchmarkOptimizeBatch measures Algorithm 1 on the evaluation grid: one
// core.OptimizeBatch call over its 24 problems.
func BenchmarkOptimizeBatch(b *testing.B) {
	problems := evalGridProblems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, out := range core.OptimizeBatch(problems) {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	}
}

// BenchmarkSimulateRun measures one simulated execution.
func BenchmarkSimulateRun(b *testing.B) {
	sc := experiments.EvalScenario(3e6, "16-12-8-4")
	p := sc.Params()
	sol, err := core.MLOptScale.Solve(p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Params: p, N: sol.N, X: sol.X, JitterRatio: 0.3}
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, rng.Split()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md section 5) ---

// BenchmarkAblationNumericGradN compares the analytic Formula (24) scale
// search against the finite-difference variant.
func BenchmarkAblationNumericGradN(b *testing.B) {
	sc := experiments.EvalScenario(3e6, "16-12-8-4")
	p := sc.Params()
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("numeric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(p, core.Options{NumericGradN: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationJitter measures the jitter sensitivity of the simulated
// wall clock.
func BenchmarkAblationJitter(b *testing.B) {
	sc := experiments.EvalScenario(3e6, "16-12-8-4")
	p := sc.Params()
	sol, err := core.MLOptScale.Solve(p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range []float64{0, 0.3} {
		jit := j
		b.Run(prettyFloat(jit), func(b *testing.B) {
			cfg := sim.Config{Params: p, N: sol.N, X: sol.X, JitterRatio: jit}
			rng := stats.NewRNG(3)
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg, rng.Split()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDistribution compares exponential vs Weibull failure
// interarrivals in the simulator.
func BenchmarkAblationDistribution(b *testing.B) {
	sc := experiments.EvalScenario(3e6, "16-12-8-4")
	p := sc.Params()
	sol, err := core.MLOptScale.Solve(p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exponential", func(b *testing.B) {
		cfg := sim.Config{Params: p, N: sol.N, X: sol.X}
		rng := stats.NewRNG(5)
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg, rng.Split()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weibull", func(b *testing.B) {
		cfg := sim.Config{Params: p, N: sol.N, X: sol.X, Dist: failure.Weibull, WeibullShape: 0.7}
		rng := stats.NewRNG(5)
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg, rng.Split()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEngine times the event-driven engine on the ablation
// configuration. Its statistical equivalence with the paper-style
// 1-second tick loop is checked by internal/sim's TestEventTickEquivalence.
func BenchmarkAblationEngine(b *testing.B) {
	sc := experiments.EvalScenario(3e6, "4-2-1-0.5")
	p := sc.Params()
	sol, err := core.MLOptScale.Solve(p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Params: p, N: sol.N, X: sol.X}
	b.Run("event", func(b *testing.B) {
		rng := stats.NewRNG(7)
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg, rng.Split()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func prettyFloat(v float64) string {
	switch v {
	case 0:
		return "0"
	case 0.3:
		return "0.3"
	case 0.6:
		return "0.6"
	default:
		return "x"
	}
}
