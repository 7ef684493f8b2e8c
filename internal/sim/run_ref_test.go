package sim

import (
	"fmt"
	"math"

	"mlckpt/internal/failure"
	"mlckpt/internal/obs"
	"mlckpt/internal/stats"
)

// runRef is the original closure-based body of Run: every per-run
// constant — C_i(N), R_i(N), each level's next checkpoint mark — is
// re-derived on the event that needs it. It is kept verbatim as the
// differential oracle for the bound runner in sim.go —
// TestRunMatchesReference and FuzzRunMatchesReference replay both over
// shared seeds and demand bit-identical results, RNG streams and
// telemetry. Do not "fix" or optimize this function; its value is that it
// is the trivially-auditable reference semantics.
func runRef(cfg Config, rng *stats.RNG) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	p := cfg.Params
	L := p.L()
	n := cfg.N
	P := p.ProductiveTime(n)
	if math.IsInf(P, 0) || P <= 0 {
		return Result{}, fmt.Errorf("%w: productive time %g at N=%g", ErrConfig, P, n)
	}
	maxWall := cfg.MaxWallClock
	if maxWall <= 0 {
		maxWall = 4000 * failure.SecondsPerDay * 20
	}

	// Per-level state lives in two slabs (one float64, one int) instead of
	// six separate slices: sweeps run this function millions of times, so
	// the fixed per-call allocation count matters. The two slices returned
	// inside Result get their capacity clipped so an appending caller can
	// never spill into a neighboring slab region.
	floats := make([]float64, 3*L)
	ints := make([]int, 3*L)

	// Per-level checkpoint period in progress seconds.
	tau := floats[0*L : 1*L]
	nextMark := ints[0*L : 1*L] // next interval index to checkpoint (1..x_i-1)
	for i := range tau {
		tau[i] = P / cfg.X[i]
		nextMark[i] = 1
	}
	markProgress := func(i int) float64 {
		if float64(nextMark[i]) >= cfg.X[i]-1e-9 {
			return math.Inf(1) // no checkpoint at the very end of the run
		}
		return float64(nextMark[i]) * tau[i]
	}

	res := Result{
		Failures:         ints[1*L : 2*L : 2*L],
		CheckpointsTaken: ints[2*L : 3*L : 3*L],
	}
	lastCkpt := floats[1*L : 2*L]     // progress of newest completed ckpt per level (0 = start)
	furthestCkpt := floats[2*L : 3*L] // furthest progress ever checkpointed per level
	for i := range furthestCkpt {
		furthestCkpt[i] = -1
	}

	// Failure source: a stochastic process by default, or a fixed replay
	// trace (recorded from another run, or imported from a real system's
	// failure log).
	var draw func(from float64) (failure.Event, bool)
	if cfg.Replay != nil {
		idx := 0
		trace := cfg.Replay
		draw = func(from float64) (failure.Event, bool) {
			if idx >= len(trace) {
				return failure.Event{}, false
			}
			ev := trace[idx]
			idx++
			if ev.Level < 0 || ev.Level >= L {
				// Clamp foreign traces with more classes than levels.
				ev.Level = L - 1
			}
			if ev.Time < from {
				ev.Time = from
			}
			return ev, true
		}
	} else {
		proc := failure.NewProcess(p.Rates, n, cfg.Dist, cfg.WeibullShape, rng)
		draw = proc.Next
	}
	var pendingFail failure.Event
	havePending := false
	nextFailure := func(from float64) (failure.Event, bool) {
		if havePending {
			if pendingFail.Time < from {
				pendingFail.Time = from
			}
			return pendingFail, true
		}
		ev, ok := draw(from)
		if ok {
			pendingFail, havePending = ev, true
		}
		return ev, ok
	}
	consumeFailure := func() { havePending = false }

	wall := 0.0     // wall-clock seconds
	progress := 0.0 // parallel productive seconds completed
	furthest := 0.0 // furthest progress ever reached

	record := func(kind EventKind, level int) {
		if cfg.RecordEvents {
			res.Events = append(res.Events, TraceEvent{Time: wall, Kind: kind, Level: level, Progress: progress})
		}
	}

	// Telemetry: spans live on the run's virtual clock (wall), so the
	// exported trace is a pure function of (cfg, rng seed) — identical
	// bytes for any worker count. Tracing is gated on ObsTrack because a
	// 100-run batch only traces its first run (see RunMany), and bounded
	// by ObsMaxEvents so checkpoint-heavy runs cannot flood the timeline.
	rec := obs.OrNop(cfg.Obs)
	budget := 0
	if cfg.ObsTrack != "" {
		budget = cfg.ObsMaxEvents
		if budget == 0 {
			budget = 1000
		}
	}
	truncatedTrace := false
	tracing := func() bool {
		if cfg.ObsTrack == "" {
			return false
		}
		if budget != 0 {
			if budget > 0 {
				budget--
			}
			return true
		}
		if !truncatedTrace {
			truncatedTrace = true
			rec.Count("sim.trace_truncated", 1)
			rec.Instant(cfg.ObsTrack, "trace-truncated", wall, nil)
		}
		return false
	}
	failureInstant := func(class int) {
		if tracing() {
			rec.Instant(cfg.ObsTrack, "failure", wall, map[string]float64{
				"class": float64(class + 1), "progress": progress,
			})
		}
	}

	// strike applies the storage damage and rollback of a class-c failure:
	// checkpoints below level c are destroyed (their storage died with the
	// failure), and execution restores to the furthest checkpoint of level
	// ≥ c (all of which lie at or before that point by construction). It
	// returns the level restored from — the cheapest level holding the
	// restore point — or -1 when execution restarts from scratch.
	strike := func(c int) int {
		q := 0.0
		for i := c; i < L; i++ {
			if lastCkpt[i] > q {
				q = lastCkpt[i]
			}
		}
		for i := 0; i < c; i++ {
			lastCkpt[i] = 0
		}
		if q < progress {
			progress = q
		}
		for i := range nextMark {
			nextMark[i] = int(progress/tau[i]+1e-9) + 1
		}
		if q <= 0 {
			return -1
		}
		for i := c; i < L; i++ {
			//lint:allow floateq q and lastCkpt[i] are the same stored value when they match (assigned from one expression), so exact identity is the correct test
			if lastCkpt[i] == q {
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
	handleFailure := func(c int) {
		res.Failures[c]++
		record(EvFailure, c)
		failureInstant(c)
		restoreLvl := strike(c)
		rollbackInstant := func() {
			if tracing() {
				rec.Instant(cfg.ObsTrack, "rollback", wall, map[string]float64{
					"to": progress, "restore_level": float64(restoreLvl + 1),
				})
			}
		}
		rollbackInstant()
		// Correlated-window merge (paper footnote 1): failures of class
		// ≤ c arriving within the window belong to this event.
		if cfg.CorrelationWindow > 0 {
			for {
				ev, ok := nextFailure(wall)
				if !ok || ev.Time > wall+cfg.CorrelationWindow || ev.Level > c {
					break
				}
				consumeFailure()
				res.Absorbed++
				record(EvAbsorbedFailure, ev.Level)
				if tracing() {
					rec.Instant(cfg.ObsTrack, "failure-absorbed", ev.Time, map[string]float64{
						"class": float64(ev.Level + 1),
					})
				}
			}
		}
		// Allocation + recovery, restarting on failures inside the window.
		for {
			dur := p.Alloc
			if restoreLvl >= 0 {
				dur += rng.Jitter(p.Levels[restoreLvl].Recovery.At(n), cfg.JitterRatio)
			}
			ev, ok := nextFailure(wall)
			if !ok || ev.Time >= wall+dur {
				if tracing() {
					rec.Span(cfg.ObsTrack, "recovery", wall, dur, map[string]float64{
						"restore_level": float64(restoreLvl + 1),
					})
				}
				wall += dur
				res.Restart += dur
				record(EvRecoveryDone, restoreLvl)
				return
			}
			// Failure during recovery: the elapsed slice still counts as
			// restart time; recovery begins again, possibly from an older
			// checkpoint if the new class is higher.
			consumeFailure()
			if tracing() {
				rec.Span(cfg.ObsTrack, "recovery-abort", wall, ev.Time-wall, map[string]float64{
					"restore_level": float64(restoreLvl + 1),
				})
			}
			res.Restart += ev.Time - wall
			wall = ev.Time
			res.Failures[ev.Level]++
			record(EvFailure, ev.Level)
			failureInstant(ev.Level)
			if ev.Level > c {
				c = ev.Level
			}
			restoreLvl = strike(c)
			rollbackInstant()
		}
	}

	for progress < P {
		if wall > maxWall {
			res.Truncated = true
			break
		}
		// Next due checkpoint mark: the earliest mark over levels; at equal
		// marks the HIGHEST level wins and lower ones are skipped.
		dueProgress := math.Inf(1)
		dueLevel := -1
		for i := L - 1; i >= 0; i-- {
			m := markProgress(i)
			if m < dueProgress-1e-9 {
				dueProgress, dueLevel = m, i
			} else if m < dueProgress+1e-9 && i > dueLevel {
				dueLevel = i
			}
		}
		segEnd := math.Min(dueProgress, P)

		// --- Productive segment [progress, segEnd) ---
		segDur := segEnd - progress
		if segDur > 0 {
			ev, ok := nextFailure(wall)
			if ok && ev.Time < wall+segDur {
				// Failure mid-segment.
				consumeFailure()
				ran := ev.Time - wall
				advanceWork(&res, progress, progress+ran, furthest)
				progress += ran
				if progress > furthest {
					furthest = progress
				}
				wall = ev.Time
				handleFailure(ev.Level)
				continue
			}
			advanceWork(&res, progress, segEnd, furthest)
			wall += segDur
			progress = segEnd
			if progress > furthest {
				furthest = progress
			}
		}
		if progress >= P {
			break
		}

		// --- Checkpoint at dueProgress, level dueLevel ---
		dur := rng.Jitter(p.Levels[dueLevel].Checkpoint.At(n), cfg.JitterRatio)
		redo := progress <= furthestCkpt[dueLevel]+1e-9
		ev, ok := nextFailure(wall)
		if ok && ev.Time < wall+dur {
			// Checkpoint aborted by a failure: elapsed time is wasted.
			consumeFailure()
			wasted := ev.Time - wall
			if redo {
				res.Rollback += wasted
			} else {
				res.Checkpoint += wasted
			}
			if tracing() {
				redoArg := 0.0
				if redo {
					redoArg = 1
				}
				rec.Span(cfg.ObsTrack, "checkpoint-abort", wall, wasted, map[string]float64{
					"level": float64(dueLevel + 1), "progress": progress, "redo": redoArg,
				})
			}
			wall = ev.Time
			record(EvCheckpointAbort, dueLevel)
			handleFailure(ev.Level)
			continue
		}
		if tracing() {
			redoArg := 0.0
			if redo {
				redoArg = 1
			}
			rec.Span(cfg.ObsTrack, "checkpoint", wall, dur, map[string]float64{
				"level": float64(dueLevel + 1), "progress": progress, "redo": redoArg,
			})
		}
		wall += dur
		if redo {
			res.Rollback += dur
		} else {
			res.Checkpoint += dur
		}
		record(EvCheckpointDone, dueLevel)
		res.CheckpointsTaken[dueLevel]++
		lastCkpt[dueLevel] = progress
		if progress > furthestCkpt[dueLevel] {
			furthestCkpt[dueLevel] = progress
		}
		// Advance the mark of this level and skip any lower-level mark due
		// at the same progress point: the higher-level file restores those
		// failure classes too (the restore lookup scans all levels ≥ c),
		// so a separate lower-level checkpoint there would be pure waste.
		for i := 0; i <= dueLevel; i++ {
			if m := markProgress(i); !math.IsInf(m, 1) && m < progress+1e-9 {
				nextMark[i]++
			}
		}
	}

	res.WallClock = wall
	record(EvCompletion, -1)
	if tracing() {
		rec.Instant(cfg.ObsTrack, "complete", wall, map[string]float64{"progress": progress})
	}
	rec.Count("sim.runs", 1)
	rec.Count("sim.failures", int64(res.TotalFailures()))
	ckpts := 0
	for _, v := range res.CheckpointsTaken {
		ckpts += v
	}
	rec.Count("sim.checkpoints", int64(ckpts))
	if res.Truncated {
		rec.Count("sim.truncated", 1)
	}
	rec.Observe("sim.wallclock_days", wall/failure.SecondsPerDay)
	return res, nil
}
