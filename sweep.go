package mlckpt

import (
	"fmt"

	"mlckpt/internal/obs"
	"mlckpt/internal/stats"
	"mlckpt/internal/sweep"
)

// SweepJob is one cell of a parameter sweep: a problem, a policy, and an
// optional simulation of the optimized plan.
type SweepJob struct {
	// Name labels the job in progress reports and outcomes. Optional.
	Name string `json:"name,omitempty"`
	Spec Spec   `json:"spec"`
	// Policy defaults to MLOptScale when empty.
	Policy Policy `json:"policy,omitempty"`
	// Sim, when non-nil, validates the optimized plan through the
	// stochastic simulator. A zero Sim.Seed gets a deterministic per-job
	// seed derived from SweepOptions.RootSeed and the job's content, so
	// sweep results never depend on worker count or job order.
	Sim *SimOptions `json:"sim,omitempty"`
}

// SweepOutcome is the result of one SweepJob.
type SweepOutcome struct {
	Name   string `json:"name,omitempty"`
	Policy Policy `json:"policy"`
	Plan   Plan   `json:"plan"`
	// Report is the simulation result; nil when the job had no Sim stage
	// or the job failed.
	Report *Report `json:"report,omitempty"`
	// Err reports a per-job failure (invalid spec, diverged solve). Other
	// jobs in the sweep are unaffected.
	Err error `json:"-"`
	// CacheHit reports that the optimization was answered by the sweep's
	// memoization cache rather than recomputed. Execution metadata: it
	// depends on scheduling and is excluded from determinism guarantees.
	CacheHit bool `json:"cacheHit,omitempty"`
}

// SweepOptions tunes Sweep.
type SweepOptions struct {
	// Workers bounds the worker pool; <= 0 uses all CPUs. The setting
	// changes wall-clock time only, never results.
	Workers int `json:"workers,omitempty"`
	// RootSeed feeds per-job seed derivation for jobs whose Sim.Seed is
	// zero; 0 defaults to 1 (matching SimOptions' default).
	RootSeed uint64 `json:"rootSeed,omitempty"`
	// Progress, when non-nil, is called after each finished job.
	Progress func(done, total int, name string) `json:"-"`
	// Obs receives the sweep's telemetry: engine and solver counters plus
	// per-job trace tracks labeled by job content, deterministic for every
	// Workers setting. In-module callers (the CLIs) pass an obs.Collector;
	// external importers cannot construct a Recorder and leave it nil,
	// which disables telemetry entirely.
	Obs obs.Recorder `json:"-"`
	// Clock supplies wall-clock seconds for volatile latency metrics (the
	// CLIs pass obs.WallClock); nil disables them.
	Clock func() float64 `json:"-"`
}

// Sweep evaluates a grid of optimization (and optionally simulation) jobs
// concurrently. It is the batch counterpart of Optimize+Simulate:
//
//   - Jobs with equal (Spec, Policy) share a single Algorithm 1 solve via
//     a content-addressed cache — sweeping simulation knobs over a fixed
//     problem pays for the solve once.
//   - Results are bit-identical for every Workers setting: per-job RNG
//     streams are derived from RootSeed and the job's content, never from
//     scheduling.
//   - Outcomes are returned in job order, and a failing job reports its
//     error in its outcome without aborting the rest of the grid.
func Sweep(jobs []SweepJob, opts SweepOptions) []SweepOutcome {
	root := opts.RootSeed
	if root == 0 {
		root = 1
	}
	outcomes := make([]SweepOutcome, len(jobs))
	engineJobs := make([]sweep.Job, len(jobs))
	for i, job := range jobs {
		job := job
		if job.Policy == "" {
			job.Policy = MLOptScale
		}
		name := job.Name
		if name == "" {
			name = fmt.Sprintf("job-%d/%s", i, job.Policy)
		}
		outcomes[i] = SweepOutcome{Name: name, Policy: job.Policy}

		// Non-marshalable specs (NaN workloads etc.) cannot be cached or
		// seeded by content; solve uncached and derive the seed from the
		// job name instead. Optimize will reject the spec with a proper
		// error.
		solveKey, keyErr := sweep.Key("mlckpt.Optimize", job.Spec, string(job.Policy))
		var postKey string
		var seed uint64
		if job.Sim != nil {
			seed = job.Sim.Seed
			if keyErr == nil {
				postKey, keyErr = sweep.Key("mlckpt.Simulate", job.Spec, string(job.Policy), *job.Sim)
			}
			if seed == 0 {
				if keyErr == nil {
					seed = stats.DeriveSeed(root, postKey)
				} else {
					seed = stats.DeriveSeed(root, name)
				}
			}
		}
		if keyErr != nil {
			solveKey, postKey = "", ""
		}

		// Trace tracks derive from the job's cache keys (equal problems →
		// equal labels, whichever duplicate computes), falling back to the
		// job name for non-marshalable specs — still a pure function of the
		// job list, never of scheduling.
		tag := func(key string) string {
			if key == "" {
				return name
			}
			return sweep.KeyTag(key)
		}
		solveTrack := "opt/" + tag(solveKey)
		simTrack := "sim/" + tag(postKey)
		ej := sweep.Job{
			Name:     name,
			SolveKey: solveKey,
			Solve: func() (any, error) {
				plan, err := optimizeObs(job.Spec, job.Policy, opts.Obs, solveTrack)
				if err != nil {
					return nil, err
				}
				return plan, nil
			},
		}
		if job.Sim != nil {
			simOpts := *job.Sim
			simOpts.Seed = seed
			ej.PostKey = postKey
			ej.Seed = seed
			ej.Post = func(solved any, seed uint64) (any, error) {
				simOpts.Seed = seed
				report, err := simulateObs(job.Spec, solved.(Plan), simOpts, opts.Obs, simTrack)
				if err != nil {
					return nil, err
				}
				return report, nil
			}
		}
		engineJobs[i] = ej
	}

	outs := sweep.Run(engineJobs, sweep.Options{
		Workers:  opts.Workers,
		RootSeed: root,
		Progress: opts.Progress,
		Obs:      opts.Obs,
		Clock:    opts.Clock,
	})
	for i, o := range outs {
		if o.Err != nil {
			outcomes[i].Err = o.Err
			continue
		}
		outcomes[i].Plan = copyPlan(o.Solved.(Plan))
		outcomes[i].CacheHit = o.SolveCached
		if o.Result != nil {
			report := o.Result.(Report)
			outcomes[i].Report = &report
		}
	}
	return outcomes
}

// copyPlan deep-copies the slices of a cached plan so callers mutating
// one outcome cannot corrupt the others sharing the cache entry.
func copyPlan(p Plan) Plan {
	p.Intervals = append([]int(nil), p.Intervals...)
	p.X = append([]float64(nil), p.X...)
	return p
}
