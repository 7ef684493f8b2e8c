package experiments

import (
	"fmt"
	"math"
	"sort"

	"mlckpt/internal/heat"
	"mlckpt/internal/jacobi"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/obs"
	"mlckpt/internal/speedup"
	"mlckpt/internal/sweep"
)

// Fig2Curve is one sub-figure: measured speedup samples plus the fitted
// quadratic (Formula 12).
type Fig2Curve struct {
	Name    string
	Samples []speedup.Sample
	Fit     speedup.Quadratic
	R2      float64
}

// Fig2Result reproduces Figure 2: (a) the Heat Distribution speedup curve
// measured by actually running the stencil on the mpisim substrate at
// 1–1024 ranks (both the 1-D row and the paper's 2-D block
// decomposition), and (b) an eddy_uv-style rise-and-fall curve where only
// the rising range is fitted.
type Fig2Result struct {
	Heat  Fig2Curve
	Block Fig2Curve
	Eddy  Fig2Curve
}

// Fig2Grid measures and fits both curves. maxScale caps the largest rank
// count for the heat runs (the paper uses 1,024; tests pass less). The
// three curve measurements (heat row, heat block, Jacobi) fan across the
// sweep engine. Every measurement is deterministic, so the parallel and
// serial paths produce identical curves.
func Fig2Grid(maxScale int, g Grid) (Fig2Result, error) {
	if maxScale < 8 {
		maxScale = 8
	}
	var res Fig2Result

	// (a) Heat Distribution, strong scaling on the simulated cluster —
	// the paper's row decomposition plus its 2-D block decomposition.
	cfg := heat.Config{GridX: 2048, GridY: 2048, Iterations: 4, CellTime: 2e-8, TopTemp: 100}
	var scales []int
	for p := 1; p <= maxScale; p *= 2 {
		scales = append(scales, p)
	}
	heatCurve := func(name, kind string, measure func(heat.Config, mpisim.CostModel, []int, obs.Recorder, string) ([]heat.Sample, error)) func() (any, error) {
		// Track derives from the curve's content (decomposition + cap), so
		// Figure 2 traces are identical for every worker count.
		track := fmt.Sprintf("mpisim/heat-%s-%d", kind, maxScale)
		return func() (any, error) {
			measured, err := measure(cfg, mpisim.DefaultCostModel(), scales, g.Obs, track)
			if err != nil {
				return nil, err
			}
			samples := make([]speedup.Sample, len(measured))
			for i, m := range measured {
				samples[i] = speedup.Sample{N: float64(m.Scale), Speedup: m.Speedup}
			}
			fit, err := speedup.FitQuadraticRising(samples)
			if err != nil {
				return nil, err
			}
			return Fig2Curve{
				Name:    name,
				Samples: samples,
				Fit:     fit,
				R2:      speedup.GoodnessOfFit(fit, samples),
			}, nil
		}
	}

	// (b) The eddy_uv stand-in: the paper's Nek5000 curve rises fast and
	// falls past ~100 cores because per-iteration communication does not
	// shrink with the process count. Our distributed Jacobi solver has the
	// same signature (an O(n) allgather every sweep), so we MEASURE its
	// rise-and-fall curve and fit only the rising range, as the paper does.
	eddyCurve := func() (any, error) {
		jcfg := jacobi.Config{N: 192, Iterations: 4, FlopTime: 1.5e-5, Seed: 2014}
		jcost := mpisim.CostModel{Overhead: 2e-4, Latency: 1e-3, ByteTime: 1e-8}
		var jscales []int
		for p := 1; p <= 192; p *= 2 {
			jscales = append(jscales, p)
		}
		jscales = append(jscales, 96, 160, 192)
		sort.Ints(jscales)
		measuredJ, err := jacobi.MeasureSpeedup(jcfg, jcost, jscales)
		if err != nil {
			return nil, err
		}
		var eddy []speedup.Sample
		for _, m := range measuredJ {
			eddy = append(eddy, speedup.Sample{N: float64(m.Scale), Speedup: m.Speedup})
		}
		eddyFit, err := speedup.FitQuadraticRising(eddy)
		if err != nil {
			return nil, err
		}
		return Fig2Curve{
			Name:    "eddy_uv-style (distributed Jacobi, measured; rising-range fit)",
			Samples: eddy,
			Fit:     eddyFit,
			R2:      risingR2(eddyFit, eddy),
		}, nil
	}

	jobs := []sweep.Job{
		{Name: "fig2/heat-row", SolveKey: sweep.MustKey("fig2.curve", "row", maxScale),
			Solve: heatCurve("Heat Distribution, row decomposition (measured on mpisim)", "row", heat.MeasureSpeedupObs)},
		{Name: "fig2/heat-block", SolveKey: sweep.MustKey("fig2.curve", "block", maxScale),
			Solve: heatCurve("Heat Distribution, 2-D block decomposition (measured on mpisim)", "block", heat.MeasureSpeedupBlocksObs)},
		{Name: "fig2/eddy", SolveKey: sweep.MustKey("fig2.curve", "eddy", 0), Solve: eddyCurve},
	}
	outs := sweep.Run(jobs, sweep.Options{
		Workers: g.Workers, Cache: g.Cache, Progress: g.Progress,
		Obs: g.Obs, Clock: g.Clock,
	})
	for _, o := range outs {
		if o.Err != nil {
			return res, fmt.Errorf("%s: %w", o.Name, o.Err)
		}
	}
	res.Heat = outs[0].Solved.(Fig2Curve)
	res.Block = outs[1].Solved.(Fig2Curve)
	res.Eddy = outs[2].Solved.(Fig2Curve)
	return res, nil
}

// risingR2 scores the fit only on the rising range (up to the peak), the
// range the paper fits.
func risingR2(fit speedup.Quadratic, samples []speedup.Sample) float64 {
	peak := 0
	for i, s := range samples {
		if s.Speedup > samples[peak].Speedup {
			peak = i
		}
	}
	return speedup.GoodnessOfFit(fit, samples[:peak+1])
}

// Render prints both curves with their fits.
func (r Fig2Result) Render() string {
	out := ""
	for _, c := range []Fig2Curve{r.Heat, r.Block, r.Eddy} {
		t := NewTable("Figure 2: "+c.Name, "N", "measured", "fit g(N)")
		for _, s := range c.Samples {
			t.Add(s.N, s.Speedup, c.Fit.Speedup(s.N))
		}
		t.Add("κ", c.Fit.Kappa, "")
		t.Add("N*", c.Fit.NStar, "")
		t.Add("R²(rising)", math.Round(c.R2*1e4)/1e4, "")
		out += t.String() + "\n"
	}
	return out
}
