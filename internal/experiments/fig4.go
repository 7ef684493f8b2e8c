package experiments

import (
	"fmt"
	"strconv"

	"mlckpt/internal/failure"
	"mlckpt/internal/fti"
	"mlckpt/internal/heat"
	"mlckpt/internal/model"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/overhead"
	"mlckpt/internal/sim"
	"mlckpt/internal/speedup"
	"mlckpt/internal/stats"
	"mlckpt/internal/sweep"
)

// Fig4Point is one interval configuration compared across the two engines.
type Fig4Point struct {
	Intervals [fti.Levels]int
	RealWCT   float64 // mean wall clock of the heat+FTI executions, seconds
	SimWCT    float64 // mean wall clock of the event-driven simulator, seconds
	RelErr    float64
}

// Fig4Result reproduces the simulator-validation study of Figure 4: the
// same application, checkpoint schedule, and failure rates are executed
// both as "real" runs (Heat Distribution + the FTI toolkit on the mpisim
// cluster, the stand-in for the paper's Fusion experiments) and on the
// abstract exascale simulator; the paper reports <4% discrepancy.
type Fig4Result struct {
	Ranks  int
	Spec   string
	Points []Fig4Point
	MaxErr float64
}

// fig4SeedRoot seeds the pre-drawn per-job seed schedule; the value is
// pinned by docs_results_reference.txt.
const fig4SeedRoot uint64 = 4242

// Fig4Grid sweeps checkpoint-interval configurations on the four levels.
// realRuns/simRuns control the averaging (real runs are the expensive
// side). Every real execution and every simulator batch fans across the
// sweep engine. Seeds are pre-drawn in the serial order, so results are
// identical for any worker count.
func Fig4Grid(ranks, realRuns, simRuns int, g Grid) (Fig4Result, error) {
	if ranks <= 0 {
		ranks = 32
	}
	if realRuns <= 0 {
		realRuns = 8
	}
	if simRuns <= 0 {
		simRuns = 200
	}
	res := Fig4Result{Ranks: ranks, Spec: "48-24-12-6"}

	hcfg := heat.Config{GridX: 256, GridY: 256, Iterations: 400, CellTime: 4e-5, TopTemp: 100}
	fcfg := fti.DefaultConfig()
	fcfg.GroupSize = 8
	fcfg.Parity = 2
	rates := failure.MustParseRates(res.Spec, float64(ranks))
	cost := mpisim.DefaultCostModel()
	const alloc = 5.0

	// Failure-free calibration run: productive time and per-level
	// checkpoint costs as the simulator will see them.
	baseWall, err := mpisim.Run(ranks, cost, func(r *mpisim.Rank) {
		s, err := heat.NewSolver(r, hcfg)
		if err != nil {
			panic(err)
		}
		s.Run(nil)
	})
	if err != nil {
		return res, err
	}
	perNode := 8 * hcfg.GridX * hcfg.GridY / ranks
	costs := make([]overhead.Cost, fti.Levels)
	recs := make([]overhead.Cost, fti.Levels)
	for lvl := 1; lvl <= fti.Levels; lvl++ {
		c, err := fcfg.Hierarchy.CheckpointTime(lvl, perNode, ranks, fcfg.GroupSize)
		if err != nil {
			return res, err
		}
		r, err := fcfg.Hierarchy.RecoveryTime(lvl, perNode, ranks, fcfg.GroupSize)
		if err != nil {
			return res, err
		}
		costs[lvl-1] = overhead.Constant(c)
		recs[lvl-1] = overhead.Constant(r)
	}
	levels := make([]overhead.Level, fti.Levels)
	for i := range levels {
		levels[i] = overhead.Level{Checkpoint: costs[i], Recovery: recs[i]}
	}
	// A linear speedup model calibrated so that Te/g(ranks) equals the
	// measured failure-free wall clock.
	te := hcfg.SerialTime()
	params := &model.Params{
		Te:      te,
		Speedup: speedup.Linear{Kappa: te / baseWall / float64(ranks), MaxScale: float64(ranks)},
		Levels:  levels,
		Alloc:   alloc,
		Rates:   rates,
	}

	sweeps := [][fti.Levels]int{
		{16, 8, 4, 2},
		{32, 16, 8, 4},
		{64, 32, 16, 8},
		{24, 6, 3, 2},
	}
	// Pre-draw every seed in the exact order the serial harness consumed
	// them (realRuns real seeds then one simulator seed per point), so the
	// parallel fan-out below stays bit-identical to the historical serial
	// loop and to docs_results_reference.txt.
	rng := stats.NewRNG(fig4SeedRoot)
	realSeeds := make([][]uint64, len(sweeps))
	simSeeds := make([]uint64, len(sweeps))
	for pi := range sweeps {
		realSeeds[pi] = make([]uint64, realRuns)
		for run := range realSeeds[pi] {
			realSeeds[pi][run] = rng.Uint64()
		}
		simSeeds[pi] = rng.Uint64()
	}

	// One job per real execution (the expensive side) plus one simulator
	// batch per point: realRuns×points + points jobs in total.
	var jobs []sweep.Job
	for pi, iv := range sweeps {
		pi, iv := pi, iv
		for run := 0; run < realRuns; run++ {
			run := run
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("fig4/%s/real-%d", fmtIntervals(iv), run),
				Solve: func() (any, error) {
					rr, err := RunReal(RealConfig{
						Ranks:     ranks,
						Heat:      hcfg,
						FTI:       fcfg,
						Intervals: iv,
						Rates:     rates,
						Alloc:     alloc,
						Cost:      cost,
						Seed:      realSeeds[pi][run],
					})
					if err != nil {
						return nil, err
					}
					return rr.WallClock, nil
				},
			})
		}
		jobs = append(jobs, sweep.Job{
			Name: fmt.Sprintf("fig4/%s/sim", fmtIntervals(iv)),
			Solve: func() (any, error) {
				x := make([]float64, fti.Levels)
				for i, v := range iv {
					x[i] = float64(v)
				}
				agg, err := sim.Simulate(sim.Config{
					Params: params,
					N:      float64(ranks),
					X:      x,
				}, simRuns, simSeeds[pi])
				if err != nil {
					return nil, err
				}
				return agg.WallClock.Mean, nil
			},
		})
	}
	outs := sweep.Run(jobs, sweep.Options{Workers: g.Workers, Cache: g.Cache, Progress: g.Progress})
	for _, o := range outs {
		if o.Err != nil {
			return res, fmt.Errorf("%s: %w", o.Name, o.Err)
		}
	}
	perPoint := realRuns + 1
	for pi, iv := range sweeps {
		var realSum float64
		for run := 0; run < realRuns; run++ {
			realSum += outs[pi*perPoint+run].Solved.(float64)
		}
		realMean := realSum / float64(realRuns)
		simMean := outs[pi*perPoint+realRuns].Solved.(float64)
		p := Fig4Point{
			Intervals: iv,
			RealWCT:   realMean,
			SimWCT:    simMean,
			RelErr:    stats.RelErr(realMean, simMean),
		}
		res.Points = append(res.Points, p)
		if p.RelErr > res.MaxErr {
			res.MaxErr = p.RelErr
		}
	}
	return res, nil
}

// Render prints the comparison.
func (r Fig4Result) Render() string {
	t := NewTable("Figure 4: simulator validation against heat+FTI executions ("+r.Spec+" failures/day)",
		"intervals x1-x2-x3-x4", "real WCT (s)", "sim WCT (s)", "rel err")
	for _, p := range r.Points {
		t.Add(fmtIntervals(p.Intervals), p.RealWCT, p.SimWCT, p.RelErr)
	}
	t.Add("max rel err", "", "", r.MaxErr)
	return t.String()
}

func fmtIntervals(iv [fti.Levels]int) string {
	s := ""
	for i, v := range iv {
		if i > 0 {
			s += "-"
		}
		s += strconv.Itoa(v)
	}
	return s
}
