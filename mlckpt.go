// Package mlckpt optimizes multilevel checkpoint/restart configurations
// for HPC applications with uncertain execution scales, implementing
// S. Di, L. Bautista-Gomez, F. Cappello, "Optimization of a Multilevel
// Checkpoint Model with Uncertain Execution Scales" (SC 2014).
//
// Given an application's workload, speedup curve, per-level checkpoint and
// recovery cost models, and per-level failure rates, it jointly computes
// the optimal number of checkpoint intervals for every level and the
// optimal number of processes/cores (Algorithm 1 of the paper), and can
// validate any plan with a stochastic execution simulator.
//
// Quick start:
//
//	spec := mlckpt.Spec{
//		TeCoreDays: 3e6,
//		Speedup:    mlckpt.SpeedupSpec{Kind: "quadratic", Kappa: 0.46, IdealScale: 1e6},
//		Levels: []mlckpt.LevelSpec{
//			{CheckpointConst: 0.866}, {CheckpointConst: 2.586},
//			{CheckpointConst: 3.886}, {CheckpointConst: 5.5, CheckpointSlope: 0.0212},
//		},
//		AllocSeconds:   60,
//		FailuresPerDay: []float64{16, 12, 8, 4},
//	}
//	plan, err := mlckpt.Optimize(spec, mlckpt.MLOptScale)
//	report, err := mlckpt.Simulate(spec, plan, mlckpt.SimOptions{Runs: 100})
//
// The subpackages under internal/ hold the substrates: the analytic model,
// the solvers, the event-driven simulator, and the mpisim/FTI/heat stack
// used to reproduce the paper's cluster experiments.
package mlckpt

import (
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/core"
	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/obs"
	"mlckpt/internal/overhead"
	"mlckpt/internal/sim"
	"mlckpt/internal/speedup"
)

// ErrSpec is returned for invalid specifications.
var ErrSpec = errors.New("mlckpt: invalid spec")

// Policy names the four strategies of the paper's evaluation.
type Policy string

// Available policies.
const (
	// MLOptScale is the paper's contribution: multilevel checkpoints with
	// jointly optimized intervals and execution scale.
	MLOptScale Policy = "ml-opt-scale"
	// SLOptScale is the single-level (PFS-only) model with optimized
	// intervals and scale (Jin et al.).
	SLOptScale Policy = "sl-opt-scale"
	// MLOriScale optimizes multilevel intervals at the application's ideal
	// scale (the authors' prior work).
	MLOriScale Policy = "ml-ori-scale"
	// SLOriScale is classic Young's formula on the PFS at the ideal scale.
	SLOriScale Policy = "sl-ori-scale"
)

// Policies lists all supported policies.
var Policies = []Policy{MLOptScale, SLOptScale, MLOriScale, SLOriScale}

func (p Policy) internal() (core.Policy, error) {
	switch p {
	case MLOptScale:
		return core.MLOptScale, nil
	case SLOptScale:
		return core.SLOptScale, nil
	case MLOriScale:
		return core.MLOriScale, nil
	case SLOriScale:
		return core.SLOriScale, nil
	default:
		return 0, fmt.Errorf("%w: unknown policy %q", ErrSpec, string(p))
	}
}

// SpeedupSpec selects and parameterizes the speedup curve g(N).
type SpeedupSpec struct {
	// Kind is one of "quadratic" (the paper's Formula 12), "linear",
	// "amdahl", "gustafson", or "table" (piecewise-linear through Points).
	Kind string `json:"kind"`
	// Kappa is the slope at the origin (quadratic, linear).
	Kappa float64 `json:"kappa,omitempty"`
	// IdealScale is N^(*): the quadratic's peak, or the admissible scale
	// ceiling for the other kinds. Ignored for "table" (the peak sample
	// decides).
	IdealScale float64 `json:"idealScale"`
	// SerialFraction parameterizes Amdahl/Gustafson curves.
	SerialFraction float64 `json:"serialFraction,omitempty"`
	// Points holds measured [scale, speedup] pairs for kind "table".
	Points [][2]float64 `json:"points,omitempty"`
}

// Model materializes the speedup model.
func (s SpeedupSpec) Model() (speedup.Model, error) {
	for _, v := range [...]float64{s.Kappa, s.IdealScale, s.SerialFraction} {
		if !finite(v) {
			return nil, fmt.Errorf("%w: speedup parameter %g", ErrSpec, v)
		}
	}
	if s.Kind == "table" {
		samples := make([]speedup.Sample, len(s.Points))
		for i, p := range s.Points {
			if !finite(p[0]) || !finite(p[1]) {
				return nil, fmt.Errorf("%w: speedup point %d %v", ErrSpec, i, p)
			}
			samples[i] = speedup.Sample{N: p[0], Speedup: p[1]}
		}
		m, err := speedup.NewInterpolated(samples)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		return m, nil
	}
	if s.IdealScale <= 0 {
		return nil, fmt.Errorf("%w: idealScale %g", ErrSpec, s.IdealScale)
	}
	switch s.Kind {
	case "", "quadratic":
		if s.Kappa <= 0 {
			return nil, fmt.Errorf("%w: quadratic needs kappa > 0", ErrSpec)
		}
		return speedup.Quadratic{Kappa: s.Kappa, NStar: s.IdealScale}, nil
	case "linear":
		if s.Kappa <= 0 {
			return nil, fmt.Errorf("%w: linear needs kappa > 0", ErrSpec)
		}
		return speedup.Linear{Kappa: s.Kappa, MaxScale: s.IdealScale}, nil
	case "amdahl":
		return speedup.Amdahl{SerialFraction: s.SerialFraction, MaxScale: s.IdealScale}, nil
	case "gustafson":
		return speedup.Gustafson{SerialFraction: s.SerialFraction, MaxScale: s.IdealScale}, nil
	default:
		return nil, fmt.Errorf("%w: unknown speedup kind %q", ErrSpec, s.Kind)
	}
}

// LevelSpec is one checkpoint level's cost model:
// C(N) = CheckpointConst + CheckpointSlope·min(N, SaturationCap),
// R(N) = RecoveryConst + RecoverySlope·min(N, SaturationCap).
// A zero RecoveryConst with zero RecoverySlope defaults recovery to half
// the checkpoint cost (the repository's documented assumption; the paper
// does not publish recovery overheads).
type LevelSpec struct {
	CheckpointConst float64 `json:"checkpointConst"`
	CheckpointSlope float64 `json:"checkpointSlope,omitempty"`
	RecoveryConst   float64 `json:"recoveryConst,omitempty"`
	RecoverySlope   float64 `json:"recoverySlope,omitempty"`
	SaturationCap   float64 `json:"saturationCap,omitempty"`
}

// Spec is a complete problem description.
type Spec struct {
	// TeCoreDays is the workload: failure-free single-core productive time
	// in core-days.
	TeCoreDays float64     `json:"teCoreDays"`
	Speedup    SpeedupSpec `json:"speedup"`
	Levels     []LevelSpec `json:"levels"`
	// AllocSeconds is the resource (re)allocation period A.
	AllocSeconds float64 `json:"allocSeconds"`
	// FailuresPerDay holds r_1..r_L at the baseline scale.
	FailuresPerDay []float64 `json:"failuresPerDay"`
	// BaselineScale is N_b; zero defaults to the speedup model's ideal
	// scale N^(*) (for "table", the scale of the peak sample).
	BaselineScale float64 `json:"baselineScale,omitempty"`
}

// Params materializes the analytic model parameters. Every number must be
// finite, T_e must be positive in seconds, and costs, caps, the allocation
// period and the baseline scale must be non-negative.
func (s Spec) Params() (*model.Params, error) {
	te := s.TeCoreDays * failure.SecondsPerDay
	if !(te > 0) || !finite(te) {
		return nil, fmt.Errorf("%w: teCoreDays %g", ErrSpec, s.TeCoreDays)
	}
	g, err := s.Speedup.Model()
	if err != nil {
		return nil, err
	}
	if len(s.Levels) == 0 {
		return nil, fmt.Errorf("%w: no levels", ErrSpec)
	}
	if len(s.FailuresPerDay) != len(s.Levels) {
		return nil, fmt.Errorf("%w: %d failure rates for %d levels", ErrSpec, len(s.FailuresPerDay), len(s.Levels))
	}
	for i, r := range s.FailuresPerDay {
		if !finiteNonNeg(r) {
			return nil, fmt.Errorf("%w: level %d failure rate %g", ErrSpec, i+1, r)
		}
	}
	if !finiteNonNeg(s.AllocSeconds) {
		return nil, fmt.Errorf("%w: allocSeconds %g", ErrSpec, s.AllocSeconds)
	}
	if !finiteNonNeg(s.BaselineScale) {
		return nil, fmt.Errorf("%w: baselineScale %g", ErrSpec, s.BaselineScale)
	}
	levels := make([]overhead.Level, len(s.Levels))
	for i, l := range s.Levels {
		for _, v := range [...]float64{l.CheckpointConst, l.CheckpointSlope, l.RecoveryConst, l.RecoverySlope, l.SaturationCap} {
			if !finiteNonNeg(v) {
				return nil, fmt.Errorf("%w: level %d cost parameter %g", ErrSpec, i+1, v)
			}
		}
		ck := overhead.Cost{Const: l.CheckpointConst, Coeff: l.CheckpointSlope, H: overhead.LinearN, Cap: l.SaturationCap}
		if l.CheckpointSlope == 0 {
			ck.H = overhead.Zero
		}
		rc := overhead.Cost{Const: l.RecoveryConst, Coeff: l.RecoverySlope, H: overhead.LinearN, Cap: l.SaturationCap}
		if l.RecoveryConst == 0 && l.RecoverySlope == 0 {
			rc = overhead.Cost{Const: ck.Const / 2, Coeff: ck.Coeff / 2, H: ck.H, Cap: ck.Cap}
		} else if l.RecoverySlope == 0 {
			rc.H = overhead.Zero
		}
		levels[i] = overhead.Level{Checkpoint: ck, Recovery: rc}
	}
	baseline := s.BaselineScale
	if baseline <= 0 {
		baseline = g.IdealScale()
	}
	p := &model.Params{
		Te:      te,
		Speedup: g,
		Levels:  levels,
		Alloc:   s.AllocSeconds,
		Rates:   failure.Rates{PerDay: append([]float64(nil), s.FailuresPerDay...), Baseline: baseline},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// finiteNonNeg reports whether v is a finite number ≥ 0.
func finiteNonNeg(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// Plan is an optimized checkpoint configuration.
type Plan struct {
	Policy Policy `json:"policy"`
	// Intervals holds the rounded optimal interval counts for every level
	// of the original problem (1 = no checkpoints at that level).
	Intervals []int `json:"intervals"`
	// X is the unrounded schedule fed to the simulator.
	X []float64 `json:"x"`
	// Scale is the optimal number of processes/cores.
	Scale int `json:"scale"`
	// ExpectedWallClockDays is the analytic E(T_w) estimate.
	ExpectedWallClockDays float64 `json:"expectedWallClockDays"`
	// OuterIterations is Algorithm 1's iteration count.
	OuterIterations int `json:"outerIterations"`
	// Converged reports whether the μ refresh loop met its tolerance.
	Converged bool `json:"converged"`
}

// Optimize solves the spec under the given policy.
func Optimize(s Spec, pol Policy) (Plan, error) {
	return optimizeObs(s, pol, nil, "")
}

// optimizeObs is Optimize with a telemetry sink: the solver records its
// convergence counters through rec and its outer iterations as spans on
// track (content-derived; see internal/obs). Reached via Sweep's options.
func optimizeObs(s Spec, pol Policy, rec obs.Recorder, track string) (Plan, error) {
	p, err := s.Params()
	if err != nil {
		return Plan{}, err
	}
	ip, err := pol.internal()
	if err != nil {
		return Plan{}, err
	}
	sol, err := ip.Solve(p, core.Options{Obs: rec, ObsLabel: track})
	if err != nil {
		return Plan{}, err
	}
	x := ip.ExpandX(p, sol)
	xr := make([]int, len(x))
	for i, v := range x {
		xr[i] = int(v + 0.5)
		if xr[i] < 1 {
			xr[i] = 1
		}
	}
	return Plan{
		Policy:                pol,
		Intervals:             xr,
		X:                     x,
		Scale:                 sol.Scale(),
		ExpectedWallClockDays: sol.WallClock / failure.SecondsPerDay,
		OuterIterations:       sol.OuterIterations,
		Converged:             sol.Converged,
	}, nil
}

// SimOptions tunes Simulate.
type SimOptions struct {
	Runs         int     `json:"runs"`                   // default 100
	Seed         uint64  `json:"seed"`                   // default 1
	Jitter       float64 `json:"jitter"`                 // overhead jitter ratio, default 0.3
	MaxDays      float64 `json:"maxDays"`                // truncation horizon, default 3000
	WeibullShape float64 `json:"weibullShape,omitempty"` // >0 switches to Weibull interarrivals
}

// Report is the stochastic validation of a plan.
type Report struct {
	Runs              int     `json:"runs"`
	MeanWallClockDays float64 `json:"meanWallClockDays"`
	CI95Days          float64 `json:"ci95Days"`
	ProductiveDays    float64 `json:"productiveDays"`
	CheckpointDays    float64 `json:"checkpointDays"`
	RestartDays       float64 `json:"restartDays"`
	RollbackDays      float64 `json:"rollbackDays"`
	MeanFailures      float64 `json:"meanFailures"`
	Efficiency        float64 `json:"efficiency"`
	TruncatedRuns     int     `json:"truncatedRuns"`
}

// SelectionPlan extends Plan with the chosen level subset.
type SelectionPlan struct {
	Plan
	// EnabledLevels marks which of the spec's levels the optimizer kept;
	// disabled levels get Intervals[i] = 1 (no checkpoints).
	EnabledLevels []bool `json:"enabledLevels"`
}

// OptimizeWithSelection jointly optimizes the checkpoint intervals, the
// execution scale, AND the subset of levels to enable (the level-selection
// extension from the authors' prior work): a level whose failure class is
// rare relative to its cost is dropped and its failures escalate to the
// next level up.
func OptimizeWithSelection(s Spec) (SelectionPlan, error) {
	p, err := s.Params()
	if err != nil {
		return SelectionPlan{}, err
	}
	sel, err := core.SelectLevels(p, core.Options{})
	if err != nil {
		return SelectionPlan{}, err
	}
	xr := make([]int, len(sel.X))
	for i, v := range sel.X {
		xr[i] = int(v + 0.5)
		if xr[i] < 1 {
			xr[i] = 1
		}
	}
	return SelectionPlan{
		Plan: Plan{
			Policy:                MLOptScale,
			Intervals:             xr,
			X:                     sel.X,
			Scale:                 sel.Solution.Scale(),
			ExpectedWallClockDays: sel.Solution.WallClock / failure.SecondsPerDay,
			OuterIterations:       sel.Solution.OuterIterations,
			Converged:             sel.Solution.Converged,
		},
		EnabledLevels: sel.Enabled,
	}, nil
}

// Simulate plays the plan through the stochastic execution simulator.
func Simulate(s Spec, plan Plan, opts SimOptions) (Report, error) {
	return simulateObs(s, plan, opts, nil, "")
}

// simulateObs is Simulate with a telemetry sink: run counters record for
// every repetition and the batch's first run traces checkpoint/recovery
// spans on track (empty disables tracing). Reached via Sweep's options.
func simulateObs(s Spec, plan Plan, opts SimOptions, rec obs.Recorder, track string) (Report, error) {
	p, err := s.Params()
	if err != nil {
		return Report{}, err
	}
	if len(plan.X) != p.L() {
		return Report{}, fmt.Errorf("%w: plan has %d levels, spec %d", ErrSpec, len(plan.X), p.L())
	}
	if opts.Runs <= 0 {
		opts.Runs = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Jitter == 0 {
		opts.Jitter = 0.3
	}
	if opts.MaxDays <= 0 {
		opts.MaxDays = 3000
	}
	cfg := sim.Config{
		Params:       p,
		N:            float64(plan.Scale),
		X:            plan.X,
		JitterRatio:  opts.Jitter,
		MaxWallClock: opts.MaxDays * failure.SecondsPerDay,
		Obs:          rec,
		ObsTrack:     track,
	}
	if opts.WeibullShape > 0 {
		cfg.Dist = failure.Weibull
		cfg.WeibullShape = opts.WeibullShape
	}
	results, err := sim.RunMany(cfg, opts.Runs, opts.Seed)
	if err != nil {
		return Report{}, err
	}
	agg := sim.Summarize(results)
	wcts := make([]float64, len(results))
	for i, r := range results {
		wcts[i] = r.WallClock
	}
	d := failure.SecondsPerDay
	return Report{
		Runs:              agg.Runs,
		MeanWallClockDays: agg.WallClock.Mean / d,
		CI95Days:          ci95(wcts) / d,
		ProductiveDays:    agg.Productive.Mean / d,
		CheckpointDays:    agg.Checkpoint.Mean / d,
		RestartDays:       agg.Restart.Mean / d,
		RollbackDays:      agg.Rollback.Mean / d,
		MeanFailures:      agg.Failures.Mean,
		Efficiency:        model.Efficiency(p.Te, agg.WallClock.Mean, float64(plan.Scale)),
		TruncatedRuns:     agg.Truncated,
	}, nil
}
