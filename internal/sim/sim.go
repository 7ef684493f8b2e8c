// Package sim is the exascale execution simulator: it plays out one run of
// an application protected by the multilevel checkpoint model, with
// periodic per-level checkpoints, randomly arriving failures whose rates
// grow with the execution scale, level-aware rollback, resource
// reallocation, and recovery — the stochastic counterpart of the analytic
// model in internal/model (Section IV-A of the paper).
//
// The paper's simulator is tick-driven (1 tick = 1 second); this one is
// event-driven in continuous time, which is statistically identical for
// exponential arrivals and orders of magnitude faster, letting the
// 100-run × 6-case × 4-solution sweeps of Figures 5–7 finish in seconds.
// The tick-driven twin behind the event-vs-tick ablation lives in the
// package tests (runTicks, TestEventTickEquivalence).
//
// Semantics:
//
//   - Productive progress is measured in parallel seconds; the run
//     completes when progress reaches P = T_e/g(N).
//   - Level i schedules x_i − 1 checkpoints at equidistant progress marks.
//     When several levels are due at the same mark, only the highest level
//     checkpoints (its file can restore any lower-class failure).
//   - A class-c failure rolls execution back to the furthest completed
//     checkpoint of level ≥ c (or to the start), then pays the allocation
//     period A plus the class's recovery cost R_c(N).
//   - Failures can strike during checkpoints (the checkpoint aborts) and
//     during recovery (recovery restarts, possibly from an older
//     checkpoint if the new failure's class is higher).
//   - Checkpoint/recovery durations are jittered by a uniform relative
//     error (the paper uses up to 30%).
package sim

import (
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/obs"
	"mlckpt/internal/stats"
)

// ErrConfig is returned for invalid simulation configurations.
var ErrConfig = errors.New("sim: invalid configuration")

// Config describes one simulated execution.
type Config struct {
	Params *model.Params // application + checkpoint levels + failure rates
	N      float64       // execution scale (cores)
	X      []float64     // interval counts per level; x_i = 1 means no checkpoints at level i

	JitterRatio  float64              // relative jitter on overheads (paper: up to 0.3)
	Dist         failure.Distribution // interarrival law (default exponential)
	WeibullShape float64              // shape when Dist == Weibull

	// MaxWallClock truncates pathological runs (e.g. single-level
	// checkpointing at full scale under high failure rates, where expected
	// completion time is years). Zero means 20x the analytic-model-free
	// bound of 4000 days.
	MaxWallClock float64

	// CorrelationWindow, when positive, merges failures of class ≤ c that
	// arrive within this many seconds of a class-c failure into that
	// event: they are counted as absorbed and trigger no additional
	// rollback or recovery. This models the paper's footnote 1
	// (simultaneous failures within a 1–2 minute correlated window count
	// as one event).
	CorrelationWindow float64

	// Replay, when non-nil, feeds failures from this fixed trace (sorted
	// by time) instead of sampling the stochastic process — for replaying
	// a recorded run or a real system's failure log deterministically.
	// Rates in Params are ignored for arrival times; events with a level
	// beyond the configured hierarchy are clamped to the top class.
	Replay []failure.Event

	// Obs receives run counters (failures, checkpoints, truncations,
	// wall-clock histograms — all deterministic functions of the seeded
	// run) and, when ObsTrack is also set, checkpoint/recovery/failure
	// spans on the run's virtual clock. Nil disables instrumentation.
	Obs obs.Recorder `json:"-"`
	// ObsTrack names the trace track of this run, which is the run's event
	// log: obs/attrib, cmd/obstool and the experiments package's Replay
	// read it. It must derive from the run's content (scenario, policy,
	// cache key) so traces are identical for every worker count; empty
	// suppresses spans while keeping counters. It has no effect while Obs
	// is nil: no span is built for a run that has no recorder.
	ObsTrack string `json:"-"`
	// ObsMaxEvents bounds the trace events one run may emit: an optimized
	// exascale run takes tens of thousands of checkpoints, which would
	// swamp any timeline viewer. After the budget a single
	// "trace-truncated" instant marks the cut. The cut is count-based, so
	// it is as deterministic as the events themselves. 0 means 1000;
	// negative means unlimited.
	ObsMaxEvents int `json:"-"`
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Params == nil {
		return fmt.Errorf("%w: nil params", ErrConfig)
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.N <= 0 {
		return fmt.Errorf("%w: scale %g", ErrConfig, c.N)
	}
	if len(c.X) != c.Params.L() {
		return fmt.Errorf("%w: %d interval counts for %d levels", ErrConfig, len(c.X), c.Params.L())
	}
	for i, x := range c.X {
		if x < 1 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: x_%d = %g", ErrConfig, i+1, x)
		}
	}
	if c.JitterRatio < 0 || c.JitterRatio >= 1 {
		return fmt.Errorf("%w: jitter ratio %g", ErrConfig, c.JitterRatio)
	}
	// A NaN rate or a NaN Weibull shape makes a class's arrivals NaN,
	// and a shape ≤ 0 or a negative rate makes them +Inf: a class that
	// silently never fails. An infinite rate makes them 0, and the clock
	// never moves again. failure.Process.Next also needs every arrival
	// to be a number, since it orders them by their bits. A zero rate is
	// a class that never fails by design.
	if c.Dist == failure.Weibull && !(c.WeibullShape > 0 && c.WeibullShape <= math.MaxFloat64) {
		return fmt.Errorf("%w: Weibull shape %g", ErrConfig, c.WeibullShape)
	}
	for i := range c.Params.Rates.PerDay {
		if rate := c.Params.Rates.PerSecondAt(i, c.N); !(rate >= 0 && rate <= math.MaxFloat64) {
			return fmt.Errorf("%w: failure rate of level %d at N=%g is %g", ErrConfig, i+1, c.N, rate)
		}
	}
	return nil
}

// Result is the outcome of one simulated run. The four time portions are
// the paper's Figure 5 decomposition; they sum to WallClock.
type Result struct {
	WallClock  float64 // total seconds from launch to completion
	Productive float64 // first-time useful work (≈ T_e/g(N))
	Checkpoint float64 // first-time checkpoint overhead
	Restart    float64 // allocation + recovery time
	Rollback   float64 // re-executed work, re-taken and aborted checkpoints

	Failures         []int // failures observed per level class
	CheckpointsTaken []int // completed checkpoints per level (incl. re-taken)
	Absorbed         int   // failures merged into a correlated window
	Truncated        bool  // MaxWallClock hit before completion
}

// TotalFailures sums the per-class failure counts.
func (r Result) TotalFailures() int {
	t := 0
	for _, v := range r.Failures {
		t += v
	}
	return t
}

// Efficiency returns the wall-clock efficiency of the run for a workload of
// te single-core seconds.
func (r Result) Efficiency(te, n float64) float64 {
	return model.Efficiency(te, r.WallClock, n)
}

// Run simulates one execution with the given RNG.
func Run(cfg Config, rng *stats.RNG) (Result, error) {
	var r runner
	if err := r.bind(cfg, rng); err != nil {
		return Result{}, err
	}
	r.run(newSchedule(r.P, cfg.X))
	return r.res, nil
}

// runner is one execution bound to its configuration. bind resolves every
// quantity that is fixed for the run — the productive time P, each level's
// overheads C_i(N) and R_i(N) and checkpoint period τ_i = P/x_i, the
// truncation horizon and the trace budget — and run plays the event loop
// over them along a schedule, the failure-free sequence of checkpoint
// marks shared by every run of a batch. While the run is on the schedule's
// chain, a checkpoint steps to the next state and a strike whose restore
// point the chain covers jumps to its state; any other strike, and a walk
// off the chain's end, resumes on the mark machine: runRef's per-level
// interval indices, its due scan and its mark advance. The RNG draw
// sequence, the order of every float operation and every obs call match
// the closure-based form kept as runRef in run_ref_test.go, so results
// are bit-identical.
type runner struct {
	cfg     Config // by value: holding a pointer moves the caller's Config to the heap
	rng     *stats.RNG
	L       int
	P       float64 // the run completes when progress reaches P = T_e/g(N)
	maxWall float64 // truncation horizon

	ckptCost     []float64 // C_i(N)
	recCost      []float64 // R_i(N)
	lastCkpt     []float64 // progress of newest completed ckpt per level (0 = start)
	lastEntry    []int     // chain state lastCkpt[i] was taken at; -1 when taken on the machine
	furthestCkpt []float64 // furthest progress ever checkpointed per level

	sched schedule // the failure-free checkpoint schedule for P and x
	pos   int      // the chain state the run is in; -1 while on the machine

	// The mark machine: level i's next checkpoint mark is nextMark[i]·τ_i
	// (markAt). It holds the run's state only while the run is off the
	// chain; leaving the chain loads all of it.
	tau      []float64 // checkpoint period P/x_i in progress seconds
	nextMark []int     // next interval index to checkpoint (1..x_i-1)

	// Failure source: a stochastic process by default, or (proc == nil)
	// the unread rest of a fixed replay trace. The next failure stays
	// pending until consumed.
	proc        *failure.Process
	replay      []failure.Event
	pending     failure.Event
	havePending bool

	wall     float64 // wall-clock seconds
	progress float64 // parallel productive seconds completed
	furthest float64 // furthest progress ever reached
	res      Result

	rec            obs.Recorder
	traced         bool // ObsTrack is set and a recorder is attached
	budget         int  // trace events left; negative means unlimited
	truncatedTrace bool
}

// bind validates cfg and computes every per-run constant. The failure
// process draws its first arrival per level here, as the closure form did.
func (r *runner) bind(cfg Config, rng *stats.RNG) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	P, err := productiveTime(&cfg)
	if err != nil {
		return err
	}
	p := cfg.Params
	L := p.L()
	n := cfg.N
	maxWall := cfg.MaxWallClock
	if maxWall <= 0 {
		maxWall = 4000 * failure.SecondsPerDay * 20
	}
	r.cfg, r.rng, r.L, r.P, r.maxWall = cfg, rng, L, P, maxWall

	// Per-level constants and state live in two slabs (one float64, one
	// int) instead of separate slices: sweeps run this function millions
	// of times, so the fixed per-call allocation count matters. The two
	// slices returned inside Result get their capacity clipped so an
	// appending caller can never spill into a neighboring slab region.
	floats := make([]float64, 5*L)
	ints := make([]int, 4*L)
	r.ckptCost = floats[0*L : 1*L]
	r.recCost = floats[1*L : 2*L]
	r.lastCkpt = floats[2*L : 3*L]
	r.furthestCkpt = floats[3*L : 4*L]
	r.res.Failures = ints[0*L : 1*L : 1*L]
	r.res.CheckpointsTaken = ints[1*L : 2*L : 2*L]
	r.lastEntry = ints[2*L : 3*L]
	for i := 0; i < L; i++ {
		r.ckptCost[i] = p.Levels[i].Checkpoint.At(n)
		r.recCost[i] = p.Levels[i].Recovery.At(n)
		r.furthestCkpt[i] = -1
		r.lastEntry[i] = -1
	}
	r.initMarks(P, floats[4*L:], ints[3*L:])

	if cfg.Replay != nil {
		r.replay = cfg.Replay
	} else {
		r.proc = failure.NewProcess(p.Rates, n, cfg.Dist, cfg.WeibullShape, rng)
	}

	// Telemetry: spans live on the run's virtual clock (wall), so the
	// exported trace is a pure function of (cfg, rng seed) — identical
	// bytes for any worker count. Tracing is gated on ObsTrack because a
	// 100-run batch only traces its first run (see RunMany), on a
	// recorder because spans built for obs.Nop are pure allocation, and
	// bounded by ObsMaxEvents so checkpoint-heavy runs cannot flood the
	// timeline.
	r.rec = obs.OrNop(cfg.Obs)
	if cfg.ObsTrack != "" && r.rec != obs.Nop() {
		r.traced = true
		r.budget = cfg.ObsMaxEvents
		if r.budget == 0 {
			r.budget = 1000
		}
	}
	return nil
}

// productiveTime returns P = T_e/g(N) for a valid configuration, or an
// error where it is not finite and positive.
func productiveTime(cfg *Config) (float64, error) {
	P := cfg.Params.ProductiveTime(cfg.N)
	if math.IsInf(P, 0) || P <= 0 {
		return 0, fmt.Errorf("%w: productive time %g at N=%g", ErrConfig, P, cfg.N)
	}
	return P, nil
}

// initMarks binds the mark machine for periods P/x_i to tau and nextMark
// (r.L values each) and puts it in its initial state: every interval index
// at 1.
func (r *runner) initMarks(P float64, tau []float64, nextMark []int) {
	r.tau, r.nextMark = tau, nextMark
	for i, xi := range r.cfg.X {
		r.tau[i] = P / xi
		r.nextMark[i] = 1
	}
}

// markAt returns level i's next checkpoint mark in progress seconds, or
// +Inf when its interval index has reached x_i: there is no checkpoint at
// the very end of the run.
func (r *runner) markAt(i int) float64 {
	if float64(r.nextMark[i]) >= r.cfg.X[i]-1e-9 {
		return math.Inf(1)
	}
	return float64(r.nextMark[i]) * r.tau[i]
}

// due returns the machine's next due checkpoint mark and its level: the
// earliest mark over levels, where at equal marks the HIGHEST level wins
// and lower ones are skipped. The scan runs downward, so a lower level
// takes over only with a mark earlier by more than the tolerance. It
// returns +Inf and -1 when no level has a mark left.
func (r *runner) due() (float64, int) {
	mark, level := math.Inf(1), -1
	for i := r.L - 1; i >= 0; i-- {
		if m := r.markAt(i); m < mark-1e-9 {
			mark, level = m, i
		}
	}
	return mark, level
}

// failureAt peeks at the next failure at or after from (the run's wall
// clock) and returns its time, or +Inf with havePending false when the
// source is exhausted: no "failure before the horizon" test can pass then,
// whatever the horizon, and a test that acts on a later or absent failure
// checks havePending. The event stays in r.pending until the caller
// consumes it by clearing havePending. A pending failure never lies before
// from: the loop consumes every failure inside a window before it
// advances the clock across it, so only a fresh draw needs clamping, and
// refill does that. The draw stays lazy — the recovery loop draws its
// jitter before it peeks — and sits behind refill, so the peek inlines.
func (r *runner) failureAt(from float64) float64 {
	if !r.havePending {
		return r.refill(from)
	}
	return r.pending.Time
}

// refill draws the next failure into r.pending from the failure source:
// the stochastic process, or the replay trace (recorded from another run,
// or imported from a real system's failure log). Either clamps the time
// forward to from.
func (r *runner) refill(from float64) float64 {
	if r.proc != nil {
		r.pending, r.havePending = r.proc.Next(from)
	} else if len(r.replay) > 0 {
		ev := r.replay[0]
		r.replay = r.replay[1:]
		if ev.Level < 0 || ev.Level >= r.L {
			// Clamp foreign traces with more classes than levels.
			ev.Level = r.L - 1
		}
		if ev.Time < from {
			ev.Time = from
		}
		r.pending, r.havePending = ev, true
	}
	if !r.havePending {
		return math.Inf(1)
	}
	return r.pending.Time
}

// tracing reports whether the next trace event may be emitted. It is
// small enough to inline, so untraced runs pay one compare per event;
// call sites test it before calling an emitter.
func (r *runner) tracing() bool {
	return r.traced && r.spend()
}

// spend takes one unit of the trace budget; the first refusal emits the
// truncation marker.
func (r *runner) spend() bool {
	if r.budget != 0 {
		if r.budget > 0 {
			r.budget--
		}
		return true
	}
	if !r.truncatedTrace {
		r.truncatedTrace = true
		r.rec.Count("sim.trace_truncated", 1)
		r.rec.Instant(r.cfg.ObsTrack, "trace-truncated", r.wall, nil)
	}
	return false
}

func (r *runner) failureInstant(class int) {
	r.rec.Instant(r.cfg.ObsTrack, "failure", r.wall, map[string]float64{
		"class": float64(class + 1), "progress": r.progress,
	})
}

func (r *runner) rollbackInstant(restoreLvl int) {
	r.rec.Instant(r.cfg.ObsTrack, "rollback", r.wall, map[string]float64{
		"to": r.progress, "restore_level": float64(restoreLvl + 1),
	})
}

// strike applies the storage damage and rollback of a class-c failure:
// checkpoints below level c are destroyed (their storage died with the
// failure), and execution restores to the furthest checkpoint of level
// ≥ c (all of which lie at or before that point by construction). It
// returns the level restored from — the cheapest level holding the
// restore point — or -1 when execution restarts from scratch.
//
// A restart, or a restore to a checkpoint taken on the chain, lands on the
// chain state the schedule's enter table names, without a division.
// Otherwise the run resumes on the machine with every interval index
// derived from the restore point.
func (r *runner) strike(c int) int {
	q := 0.0
	for i := c; i < r.L; i++ {
		if r.lastCkpt[i] > q {
			q = r.lastCkpt[i]
		}
	}
	for i := 0; i < c; i++ {
		r.lastCkpt[i] = 0
	}
	if q < r.progress {
		r.progress = q
	}
	restore, to := -1, r.sched.enter[0]
	if q > 0 {
		to = -1
		for i := c; i < r.L; i++ {
			//lint:allow floateq q and lastCkpt[i] are the same stored value when they match (assigned from one expression), so exact identity is the correct test
			if r.lastCkpt[i] == q {
				restore = i
				if j := r.lastEntry[i]; j >= 0 {
					to = r.sched.enter[j+1]
				}
				break
			}
		}
	}
	r.pos = to
	if to < 0 {
		for i := range r.nextMark {
			r.nextMark[i] = r.intervalAt(i, r.progress)
		}
	}
	return restore
}

// intervalAt is the interval index strike derives for level i from
// progress p: the first whose mark lies past p by the tolerance.
func (r *runner) intervalAt(i int, p float64) int {
	return int(p/r.tau[i]+1e-9) + 1
}

// derives reports whether strike's derivation from progress p gives the
// machine's current interval indices on every level that checkpoints at
// all (x_i − 1e-9 > 1). Any other level's mark is +Inf whatever its index.
func (r *runner) derives(p float64) bool {
	for i, idx := range r.nextMark {
		if r.cfg.X[i]-1e-9 > 1 && r.intervalAt(i, p) != idx {
			return false
		}
	}
	return true
}

// handleFailure processes a class-c failure at the current wall time:
// rollback, allocation, recovery, and any failures during recovery.
// The recovery overhead charged is the RESTORING level's, not the
// failure class's: a class-1 fault in a PFS-only deployment still pays
// the PFS read — which is what makes the single-level baselines
// collapse at scale (the paper's ~890-day SL(ori-scale) in Table IV).
func (r *runner) handleFailure(c int) {
	r.res.Failures[c]++
	if r.tracing() {
		r.failureInstant(c)
	}
	restoreLvl := r.strike(c)
	if r.tracing() {
		r.rollbackInstant(restoreLvl)
	}
	// Correlated-window merge (paper footnote 1): failures of class
	// ≤ c arriving within the window belong to this event.
	if r.cfg.CorrelationWindow > 0 {
		for {
			t := r.failureAt(r.wall)
			if !r.havePending || t > r.wall+r.cfg.CorrelationWindow || r.pending.Level > c {
				break
			}
			r.havePending = false
			r.res.Absorbed++
			if r.tracing() {
				r.rec.Instant(r.cfg.ObsTrack, "failure-absorbed", t, map[string]float64{
					"class": float64(r.pending.Level + 1),
				})
			}
		}
	}
	// Allocation + recovery, restarting on failures inside the window.
	for {
		dur := r.cfg.Params.Alloc
		if restoreLvl >= 0 {
			dur += r.rng.Jitter(r.recCost[restoreLvl], r.cfg.JitterRatio)
		}
		t := r.failureAt(r.wall)
		if !r.havePending || t >= r.wall+dur {
			if r.tracing() {
				r.rec.Span(r.cfg.ObsTrack, "recovery", r.wall, dur, map[string]float64{
					"restore_level": float64(restoreLvl + 1),
				})
			}
			r.wall += dur
			r.res.Restart += dur
			return
		}
		// Failure during recovery: the elapsed slice still counts as
		// restart time; recovery begins again, possibly from an older
		// checkpoint if the new class is higher.
		r.havePending = false
		lvl := r.pending.Level
		if r.tracing() {
			r.rec.Span(r.cfg.ObsTrack, "recovery-abort", r.wall, t-r.wall, map[string]float64{
				"restore_level": float64(restoreLvl + 1),
			})
		}
		r.res.Restart += t - r.wall
		r.wall = t
		r.res.Failures[lvl]++
		if r.tracing() {
			r.failureInstant(lvl)
		}
		if lvl > c {
			// Only a higher class can destroy more: at or below c, the
			// last strike's restore point and marks stand, and strike
			// would return the same level.
			c = lvl
			restoreLvl = r.strike(c)
		}
		if r.tracing() {
			r.rollbackInstant(restoreLvl)
		}
	}
}

// run plays the execution along sched to completion (or truncation) and
// reports the run's counters.
func (r *runner) run(sched schedule) {
	r.sched, r.pos = sched, -1
	if len(sched.mark) > 0 {
		r.pos = 0
	}
	for r.progress < r.P {
		if r.wall > r.maxWall {
			r.res.Truncated = true
			break
		}
		// Next due checkpoint mark: the chain state's, or the machine's
		// due scan off the chain.
		var dueProgress float64
		var dueLevel int
		if r.pos >= 0 {
			dueProgress, dueLevel = r.sched.mark[r.pos], r.sched.level[r.pos]
		} else {
			dueProgress, dueLevel = r.due()
		}
		// min(dueProgress, P): neither is NaN and P > progress ≥ 0, so a
		// plain compare is exactly math.Min.
		segEnd := r.P
		if dueProgress < segEnd {
			segEnd = dueProgress
		}

		// --- Productive segment [progress, segEnd) ---
		segDur := segEnd - r.progress
		if segDur > 0 {
			if t := r.failureAt(r.wall); t < r.wall+segDur {
				// Failure mid-segment.
				r.havePending = false
				ran := t - r.wall
				advanceWork(&r.res, r.progress, r.progress+ran, r.furthest)
				r.progress += ran
				if r.progress > r.furthest {
					r.furthest = r.progress
				}
				r.wall = t
				r.handleFailure(r.pending.Level)
				continue
			}
			advanceWork(&r.res, r.progress, segEnd, r.furthest)
			r.wall += segDur
			r.progress = segEnd
			if r.progress > r.furthest {
				r.furthest = r.progress
			}
		}
		if r.progress >= r.P {
			break
		}

		// --- Checkpoint at dueProgress, level dueLevel ---
		dur := r.rng.Jitter(r.ckptCost[dueLevel], r.cfg.JitterRatio)
		redo := r.progress <= r.furthestCkpt[dueLevel]+1e-9
		if t := r.failureAt(r.wall); t < r.wall+dur {
			// Checkpoint aborted by a failure: elapsed time is wasted.
			r.havePending = false
			wasted := t - r.wall
			if redo {
				r.res.Rollback += wasted
			} else {
				r.res.Checkpoint += wasted
			}
			if r.tracing() {
				r.checkpointSpan("checkpoint-abort", dueLevel, wasted, redo)
			}
			r.wall = t
			r.handleFailure(r.pending.Level)
			continue
		}
		if r.tracing() {
			r.checkpointSpan("checkpoint", dueLevel, dur, redo)
		}
		r.wall += dur
		if redo {
			r.res.Rollback += dur
		} else {
			r.res.Checkpoint += dur
		}
		r.res.CheckpointsTaken[dueLevel]++
		r.lastCkpt[dueLevel] = r.progress
		r.lastEntry[dueLevel] = r.pos
		if r.progress > r.furthestCkpt[dueLevel] {
			r.furthestCkpt[dueLevel] = r.progress
		}
		if r.pos >= 0 {
			r.pos++
			if r.pos == len(r.sched.mark) {
				r.leaveChain()
			}
			continue
		}
		r.advance(dueLevel, r.progress)
	}

	r.res.WallClock = r.wall
	if r.tracing() {
		r.rec.Instant(r.cfg.ObsTrack, "complete", r.wall, map[string]float64{"progress": r.progress})
	}
	r.rec.Count("sim.runs", 1)
	r.rec.Count("sim.failures", int64(r.res.TotalFailures()))
	ckpts := 0
	for _, v := range r.res.CheckpointsTaken {
		ckpts += v
	}
	r.rec.Count("sim.checkpoints", int64(ckpts))
	if r.res.Truncated {
		r.rec.Count("sim.truncated", 1)
	}
	r.rec.Observe("sim.wallclock_days", r.wall/failure.SecondsPerDay)
}

// advance moves the machine past a checkpoint of level due at progress p:
// it advances that level's mark and skips any lower-level mark due at the
// same point, since the higher-level file restores those failure classes
// too (the restore lookup scans all levels ≥ c) and a separate
// lower-level checkpoint there would be pure waste. A higher level keeps
// its mark even where it lies within the tolerance of p: the due scan did
// not let it take over, so it is not due here.
func (r *runner) advance(due int, p float64) {
	for i := 0; i <= due; i++ {
		if r.markAt(i) < p+1e-9 { // never true of a +Inf mark
			r.nextMark[i]++
		}
	}
}

// checkpointSpan emits a completed or aborted checkpoint's span.
func (r *runner) checkpointSpan(name string, level int, dur float64, redo bool) {
	redoArg := 0.0
	if redo {
		redoArg = 1
	}
	r.rec.Span(r.cfg.ObsTrack, name, r.wall, dur, map[string]float64{
		"level": float64(level + 1), "progress": r.progress, "redo": redoArg,
	})
}

// advanceWork attributes a slice of executed work [from, to) to Productive
// (first-time) or Rollback (re-execution) based on the furthest progress
// previously reached.
//
//mlckpt:hotpath
func advanceWork(res *Result, from, to, furthest float64) {
	if to <= from {
		return
	}
	if from >= furthest {
		res.Productive += to - from
		return
	}
	if to <= furthest {
		res.Rollback += to - from
		return
	}
	res.Rollback += furthest - from
	res.Productive += to - furthest
}
