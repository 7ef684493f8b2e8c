package experiments

import (
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/core"
	"mlckpt/internal/failure"
	"mlckpt/internal/obs"
	"mlckpt/internal/obs/attrib"
	"mlckpt/internal/sim"
	"mlckpt/internal/sweep"
)

// AttribCell is one (failure case, policy) waste-attribution cell: a
// single fully traced simulation run decomposed into the paper's E(T_w)
// buckets by internal/obs/attrib, next to Formula 21's prediction for the
// same configuration.
type AttribCell struct {
	Spec   string
	Policy core.Policy
	N      float64 // solved scale
	Report *attrib.Report
	// ModelOK is false when Formula 21 has no finite fixed point for this
	// configuration (failure feedback over unity — the regime that
	// motivates multilevel checkpointing); Model is then zero and only the
	// measured columns are meaningful.
	ModelOK bool
	Model   attrib.ModelComparison
}

// AttribResult is the waste-attribution experiment: measured-vs-modeled
// wall-clock breakdowns across the evaluation failure cases.
type AttribResult struct {
	TeCoreDays float64
	Cells      []AttribCell
}

// attribPortionTol bounds the disagreement between the attribution
// engine's coarse portions and the simulator's own per-run accounting,
// as a fraction of the run's wall clock. The two are independent tallies
// of the same run (trace spans vs simulator counters), so anything beyond
// float rounding is a vocabulary bug and fails the experiment loudly.
const attribPortionTol = 1e-6

// AttribGrid runs the waste-attribution experiment at the given workload:
// for every evaluation failure case × {ML(opt-scale), SL(opt-scale)}, one
// simulation run is traced without an event budget, attributed exactly
// (the rational identity Σ buckets == wall clock must hold), cross-checked
// against the simulator's own accounting, and compared with Formula 21.
// quick restricts to the first two failure cases for smoke passes.
//
// The traced run is the same run 0 a SimulatePolicy batch would trace
// (same SimSeed stream), but it lands on a private collector teed with
// g.Obs, so attribution reads a complete private track even when the
// caller's recorder truncates or drops.
func AttribGrid(teCoreDays float64, quick bool, g Grid) (AttribResult, error) {
	cases := FailureCases
	if quick {
		cases = cases[:2]
	}
	policies := []core.Policy{core.MLOptScale, core.SLOptScale}
	res := AttribResult{TeCoreDays: teCoreDays}

	var jobs []sweep.Job
	for _, spec := range cases {
		for _, pol := range policies {
			sc, pol := EvalScenario(teCoreDays, spec), pol
			solveKey, err := sweep.Key("experiments.solve", sc.solveProblem(), int(pol))
			if err != nil {
				return res, fmt.Errorf("attrib cell %s/%v: %w", sc.Spec, pol, err)
			}
			postKey, err := sweep.Key("experiments.attrib", sc, int(pol))
			if err != nil {
				return res, fmt.Errorf("attrib cell %s/%v: %w", sc.Spec, pol, err)
			}
			solveTrack := fmt.Sprintf("opt/%s/%v#%s", sc.Spec, pol, sweep.KeyTag(solveKey))
			attribTrack := fmt.Sprintf("attrib/%s/%v#%s", sc.Spec, pol, sweep.KeyTag(postKey))
			jobs = append(jobs, sweep.Job{
				Name:     fmt.Sprintf("attrib/%s/%v", sc.Spec, pol),
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
					return attributeCell(sc, pol, sv, seed, g.Obs, attribTrack)
				},
			})
		}
	}
	outs := sweep.Run(jobs, sweep.Options{
		Workers: g.Workers, Cache: g.Cache, Progress: g.Progress,
		Obs: g.Obs, Clock: g.Clock,
	})
	for _, o := range outs {
		if o.Err != nil {
			return res, fmt.Errorf("%s: %w", o.Name, o.Err)
		}
		res.Cells = append(res.Cells, o.Result.(AttribCell))
	}
	return res, nil
}

// attributeCell runs one fully traced simulation and attributes it. The
// trace goes to a private collector (teed with the caller's recorder, so
// the cell's timeline still lands on the shared artifact) because the
// attribution identity needs every event: a shared recorder may impose an
// event budget, and a truncated track is refused by design.
func attributeCell(sc Scenario, pol core.Policy, sv solvedCell, seed uint64, rec obs.Recorder, track string) (AttribCell, error) {
	col := obs.NewCollector()
	cfg := sim.Config{
		Params:       sc.Params(),
		N:            sv.Solution.N,
		X:            sv.X,
		JitterRatio:  sc.Jitter,
		MaxWallClock: sc.MaxDays * failure.SecondsPerDay,
		Obs:          obs.Tee(col, rec),
		ObsTrack:     track,
		ObsMaxEvents: -1,
	}
	runs, err := sim.RunMany(cfg, 1, seed)
	if err != nil {
		return AttribCell{}, err
	}
	r := runs[0]
	rep, err := attrib.FromTrace(col.Trace, track)
	if err != nil {
		return AttribCell{}, err
	}
	if !rep.Exact {
		return AttribCell{}, fmt.Errorf("%w: %s: identity not exact (clipped %g s)", attrib.ErrAttrib, track, rep.Clipped)
	}
	// Cross-check the trace-derived portions against the simulator's own
	// accounting of the very same run: two independent tallies, one truth.
	p, tol := rep.Portions(), attribPortionTol*r.WallClock
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"productive", p.Productive, r.Productive},
		{"checkpoint", p.Checkpoint, r.Checkpoint},
		{"restart", p.Restart, r.Restart},
		{"rollback", p.Rollback, r.Rollback},
	} {
		if math.Abs(c.got-c.want) > tol {
			return AttribCell{}, fmt.Errorf("%w: %s: %s portion %.9g disagrees with the simulator's %.9g (tol %g)",
				attrib.ErrAttrib, track, c.name, c.got, c.want, tol)
		}
	}
	if rep.TotalFailures() != r.TotalFailures() {
		return AttribCell{}, fmt.Errorf("%w: %s: %d failures attributed, simulator saw %d",
			attrib.ErrAttrib, track, rep.TotalFailures(), r.TotalFailures())
	}
	cell := AttribCell{Spec: sc.Spec, Policy: pol, N: sv.Solution.N, Report: rep}
	switch mc, err := rep.CompareModel(cfg.Params, sv.X, sv.Solution.N); {
	case err == nil:
		cell.ModelOK, cell.Model = true, mc
	case errors.Is(err, attrib.ErrModelDiverged):
		// A divergent expectation is a result, not a failure: the run
		// completed and its measured breakdown stands; the paper's point is
		// precisely that single-level policies hit this regime first.
	default:
		return AttribCell{}, err
	}
	return cell, nil
}

// Render prints the measured-vs-modeled breakdown, one row per cell. The
// measured columns are one run's exact attribution (fractions of its wall
// clock); the model columns are Formula 21's expectation. maxΔ is the
// largest per-portion discrepancy — a single run scatters around the
// expectation, so it reflects run-to-run variance, not model error.
func (r AttribResult) Render() string {
	t := NewTable(fmt.Sprintf("Waste attribution vs Formula 21: te = %.3g core-days, one traced run per cell (exact identity enforced)", r.TeCoreDays),
		"case", "policy", "n", "wall (d)", "fails",
		"work%", "ckpt%", "rest%", "roll%",
		"m:work%", "m:ckpt%", "m:rest%", "m:roll%", "maxΔ")
	pct := func(v float64) string { return fmt.Sprintf("%.2f", 100*v) }
	for _, c := range r.Cells {
		// Measured fractions come straight off the report so they render
		// even when the model comparison is unavailable.
		p, w := c.Report.Portions(), c.Report.WallClock
		mp := []string{"div", "div", "div", "div", "-"}
		if c.ModelOK {
			pr := c.Model.Predicted
			mp = []string{pct(pr.Productive), pct(pr.Checkpoint), pct(pr.Restart), pct(pr.Rollback),
				fmt.Sprintf("%.3f", c.Model.MaxAbsDelta)}
		}
		t.Add(
			c.Spec,
			fmt.Sprint(c.Policy),
			fmt.Sprintf("%.0f", c.N),
			fmt.Sprintf("%.2f", w/failure.SecondsPerDay),
			fmt.Sprintf("%d", c.Report.TotalFailures()),
			pct(p.Productive/w), pct(p.Checkpoint/w), pct(p.Restart/w), pct(p.Rollback/w),
			mp[0], mp[1], mp[2], mp[3], mp[4],
		)
	}
	return t.String()
}
