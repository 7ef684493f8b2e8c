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

	// RecordEvents captures a full execution trace in Result.Events.
	RecordEvents bool

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
	// ObsTrack names the trace track of this run. It must derive from
	// the run's content (scenario, policy, cache key) so traces are
	// identical for every worker count; empty suppresses spans while
	// keeping counters.
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

	Events []TraceEvent // populated when Config.RecordEvents is set
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
	r.run()
	return r.res, nil
}

// runner is one execution bound to its configuration. bind resolves every
// quantity that is fixed for the run — the productive time P, each level's
// checkpoint period τ_i = P/x_i and overheads C_i(N) and R_i(N), the
// truncation horizon and the trace budget — and run plays the event loop
// over them. Each level's next checkpoint mark is cached and refreshed
// only where its interval index changes. The RNG draw sequence, the order
// of every float operation and every obs call match the closure-based
// form kept as runRef in run_ref_test.go, so results are bit-identical.
type runner struct {
	cfg     Config // by value: holding a pointer moves the caller's Config to the heap
	rng     *stats.RNG
	L       int
	P       float64 // the run completes when progress reaches P = T_e/g(N)
	maxWall float64 // truncation horizon

	tau      []float64 // per-level checkpoint period in progress seconds
	xEnd     []float64 // x_i − 1e-9: a mark index at or past it is the run's end
	ckptCost []float64 // C_i(N)
	recCost  []float64 // R_i(N)

	nextMark     []int     // next interval index to checkpoint (1..x_i-1)
	mark         []float64 // markAt(i), refreshed whenever nextMark[i] changes
	lastCkpt     []float64 // progress of newest completed ckpt per level (0 = start)
	furthestCkpt []float64 // furthest progress ever checkpointed per level

	// Failure source: a stochastic process by default, or (proc == nil)
	// the unread rest of a fixed replay trace. The next failure stays
	// pending until consumed.
	proc        *failure.Process
	replay      []failure.Event
	pendingFail failure.Event
	havePending bool

	wall     float64 // wall-clock seconds
	progress float64 // parallel productive seconds completed
	furthest float64 // furthest progress ever reached
	res      Result

	rec            obs.Recorder
	budget         int // trace events left; negative means unlimited
	truncatedTrace bool
}

// bind validates cfg and computes every per-run constant. The failure
// process draws its first arrival per level here, as the closure form did.
func (r *runner) bind(cfg Config, rng *stats.RNG) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	p := cfg.Params
	L := p.L()
	n := cfg.N
	P := p.ProductiveTime(n)
	if math.IsInf(P, 0) || P <= 0 {
		return fmt.Errorf("%w: productive time %g at N=%g", ErrConfig, P, n)
	}
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
	floats := make([]float64, 7*L)
	ints := make([]int, 3*L)
	r.tau = floats[0*L : 1*L]
	r.xEnd = floats[1*L : 2*L]
	r.ckptCost = floats[2*L : 3*L]
	r.recCost = floats[3*L : 4*L]
	r.mark = floats[4*L : 5*L]
	r.lastCkpt = floats[5*L : 6*L]
	r.furthestCkpt = floats[6*L : 7*L]
	r.nextMark = ints[0*L : 1*L]
	r.res.Failures = ints[1*L : 2*L : 2*L]
	r.res.CheckpointsTaken = ints[2*L : 3*L : 3*L]
	for i := 0; i < L; i++ {
		r.tau[i] = P / cfg.X[i]
		r.xEnd[i] = cfg.X[i] - 1e-9
		r.ckptCost[i] = p.Levels[i].Checkpoint.At(n)
		r.recCost[i] = p.Levels[i].Recovery.At(n)
		r.nextMark[i] = 1
		r.mark[i] = r.markAt(i)
		r.furthestCkpt[i] = -1
	}

	if cfg.Replay != nil {
		r.replay = cfg.Replay
	} else {
		r.proc = failure.NewProcess(p.Rates, n, cfg.Dist, cfg.WeibullShape, rng)
	}

	// Telemetry: spans live on the run's virtual clock (wall), so the
	// exported trace is a pure function of (cfg, rng seed) — identical
	// bytes for any worker count. Tracing is gated on ObsTrack because a
	// 100-run batch only traces its first run (see RunMany), and bounded
	// by ObsMaxEvents so checkpoint-heavy runs cannot flood the timeline.
	r.rec = obs.OrNop(cfg.Obs)
	if cfg.ObsTrack != "" {
		r.budget = cfg.ObsMaxEvents
		if r.budget == 0 {
			r.budget = 1000
		}
	}
	return nil
}

// markAt returns level i's next checkpoint mark in progress seconds, or
// +Inf when its interval index has reached x_i: there is no checkpoint at
// the very end of the run.
func (r *runner) markAt(i int) float64 {
	if float64(r.nextMark[i]) >= r.xEnd[i] {
		return math.Inf(1)
	}
	return float64(r.nextMark[i]) * r.tau[i]
}

// draw takes the next event from the failure source: the stochastic
// process, or the replay trace (recorded from another run, or imported
// from a real system's failure log).
func (r *runner) draw(from float64) (failure.Event, bool) {
	if r.proc != nil {
		return r.proc.Next(from)
	}
	if len(r.replay) == 0 {
		return failure.Event{}, false
	}
	ev := r.replay[0]
	r.replay = r.replay[1:]
	if ev.Level < 0 || ev.Level >= r.L {
		// Clamp foreign traces with more classes than levels.
		ev.Level = r.L - 1
	}
	if ev.Time < from {
		ev.Time = from
	}
	return ev, true
}

// nextFailure peeks at the next failure at or after from. The event stays
// pending, its time clamped forward to the caller's horizon, until the
// caller consumes it by clearing havePending.
func (r *runner) nextFailure(from float64) (failure.Event, bool) {
	if r.havePending {
		if r.pendingFail.Time < from {
			r.pendingFail.Time = from
		}
		return r.pendingFail, true
	}
	ev, ok := r.draw(from)
	if ok {
		r.pendingFail, r.havePending = ev, true
	}
	return ev, ok
}

func (r *runner) record(kind EventKind, level int) {
	if r.cfg.RecordEvents {
		r.res.Events = append(r.res.Events, TraceEvent{Time: r.wall, Kind: kind, Level: level, Progress: r.progress})
	}
}

// tracing reports whether the next trace event may be emitted. It is
// small enough to inline, so untraced runs pay one compare per event.
func (r *runner) tracing() bool {
	return r.cfg.ObsTrack != "" && r.spend()
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
	if r.tracing() {
		r.rec.Instant(r.cfg.ObsTrack, "failure", r.wall, map[string]float64{
			"class": float64(class + 1), "progress": r.progress,
		})
	}
}

func (r *runner) rollbackInstant(restoreLvl int) {
	if r.tracing() {
		r.rec.Instant(r.cfg.ObsTrack, "rollback", r.wall, map[string]float64{
			"to": r.progress, "restore_level": float64(restoreLvl + 1),
		})
	}
}

// strike applies the storage damage and rollback of a class-c failure:
// checkpoints below level c are destroyed (their storage died with the
// failure), and execution restores to the furthest checkpoint of level
// ≥ c (all of which lie at or before that point by construction). It
// returns the level restored from — the cheapest level holding the
// restore point — or -1 when execution restarts from scratch.
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
	for i := range r.nextMark {
		r.nextMark[i] = int(r.progress/r.tau[i]+1e-9) + 1
		r.mark[i] = r.markAt(i)
	}
	if q <= 0 {
		return -1
	}
	for i := c; i < r.L; i++ {
		//lint:allow floateq q and lastCkpt[i] are the same stored value when they match (assigned from one expression), so exact identity is the correct test
		if r.lastCkpt[i] == q {
			return i
		}
	}
	return -1
}

// handleFailure processes a class-c failure at the current wall time:
// rollback, allocation, recovery, and any failures during recovery.
// The recovery overhead charged is the RESTORING level's, not the
// failure class's: a class-1 fault in a PFS-only deployment still pays
// the PFS read — which is what makes the single-level baselines
// collapse at scale (the paper's ~890-day SL(ori-scale) in Table IV).
func (r *runner) handleFailure(c int) {
	r.res.Failures[c]++
	r.record(EvFailure, c)
	r.failureInstant(c)
	restoreLvl := r.strike(c)
	r.rollbackInstant(restoreLvl)
	// Correlated-window merge (paper footnote 1): failures of class
	// ≤ c arriving within the window belong to this event.
	if r.cfg.CorrelationWindow > 0 {
		for {
			ev, ok := r.nextFailure(r.wall)
			if !ok || ev.Time > r.wall+r.cfg.CorrelationWindow || ev.Level > c {
				break
			}
			r.havePending = false
			r.res.Absorbed++
			r.record(EvAbsorbedFailure, ev.Level)
			if r.tracing() {
				r.rec.Instant(r.cfg.ObsTrack, "failure-absorbed", ev.Time, map[string]float64{
					"class": float64(ev.Level + 1),
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
		ev, ok := r.nextFailure(r.wall)
		if !ok || ev.Time >= r.wall+dur {
			if r.tracing() {
				r.rec.Span(r.cfg.ObsTrack, "recovery", r.wall, dur, map[string]float64{
					"restore_level": float64(restoreLvl + 1),
				})
			}
			r.wall += dur
			r.res.Restart += dur
			r.record(EvRecoveryDone, restoreLvl)
			return
		}
		// Failure during recovery: the elapsed slice still counts as
		// restart time; recovery begins again, possibly from an older
		// checkpoint if the new class is higher.
		r.havePending = false
		if r.tracing() {
			r.rec.Span(r.cfg.ObsTrack, "recovery-abort", r.wall, ev.Time-r.wall, map[string]float64{
				"restore_level": float64(restoreLvl + 1),
			})
		}
		r.res.Restart += ev.Time - r.wall
		r.wall = ev.Time
		r.res.Failures[ev.Level]++
		r.record(EvFailure, ev.Level)
		r.failureInstant(ev.Level)
		if ev.Level > c {
			c = ev.Level
		}
		restoreLvl = r.strike(c)
		r.rollbackInstant(restoreLvl)
	}
}

// run plays the execution to completion (or truncation) and reports the
// run's counters.
func (r *runner) run() {
	for r.progress < r.P {
		if r.wall > r.maxWall {
			r.res.Truncated = true
			break
		}
		// Next due checkpoint mark: the earliest mark over levels; at equal
		// marks the HIGHEST level wins and lower ones are skipped. The scan
		// runs downward, so a lower level takes over only with a mark
		// earlier by more than the tolerance.
		dueProgress := math.Inf(1)
		dueLevel := -1
		for i := r.L - 1; i >= 0; i-- {
			if m := r.mark[i]; m < dueProgress-1e-9 {
				dueProgress, dueLevel = m, i
			}
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
			ev, ok := r.nextFailure(r.wall)
			if ok && ev.Time < r.wall+segDur {
				// Failure mid-segment.
				r.havePending = false
				ran := ev.Time - r.wall
				advanceWork(&r.res, r.progress, r.progress+ran, r.furthest)
				r.progress += ran
				if r.progress > r.furthest {
					r.furthest = r.progress
				}
				r.wall = ev.Time
				r.handleFailure(ev.Level)
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
		ev, ok := r.nextFailure(r.wall)
		if ok && ev.Time < r.wall+dur {
			// Checkpoint aborted by a failure: elapsed time is wasted.
			r.havePending = false
			wasted := ev.Time - r.wall
			if redo {
				r.res.Rollback += wasted
			} else {
				r.res.Checkpoint += wasted
			}
			if r.tracing() {
				r.checkpointSpan("checkpoint-abort", dueLevel, wasted, redo)
			}
			r.wall = ev.Time
			r.record(EvCheckpointAbort, dueLevel)
			r.handleFailure(ev.Level)
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
		r.record(EvCheckpointDone, dueLevel)
		r.res.CheckpointsTaken[dueLevel]++
		r.lastCkpt[dueLevel] = r.progress
		if r.progress > r.furthestCkpt[dueLevel] {
			r.furthestCkpt[dueLevel] = r.progress
		}
		// Advance the mark of this level and skip any lower-level mark due
		// at the same progress point: the higher-level file restores those
		// failure classes too (the restore lookup scans all levels ≥ c),
		// so a separate lower-level checkpoint there would be pure waste.
		for i := 0; i <= dueLevel; i++ {
			if m := r.mark[i]; !math.IsInf(m, 1) && m < r.progress+1e-9 {
				r.nextMark[i]++
				r.mark[i] = r.markAt(i)
			}
		}
	}

	r.res.WallClock = r.wall
	r.record(EvCompletion, -1)
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
