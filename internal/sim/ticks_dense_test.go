package sim

import (
	"fmt"
	"math"

	"mlckpt/internal/failure"
	"mlckpt/internal/stats"
)

// runTicks simulates one execution with the paper's original tick-driven
// scheme (one tick = tick seconds; the paper uses 1 s). Every simulated
// tick is one loop iteration, whether or not anything interesting happens
// in it. It implements the same semantics as Run, quantized to tick
// boundaries: work, checkpoint and recovery durations are consumed tick by
// tick, and a failure scheduled inside a tick fires at that tick's end.
//
// It is the tick-driven twin for the event-vs-tick ablation
// (TestEventTickEquivalence); Run is the production path. Do not "fix" or
// optimize this function: its value is that it is the trivially auditable
// paper semantics.
func runTicks(cfg Config, tick float64, rng *stats.RNG) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.SilentCorruptionProb > 0 {
		// The tick twin exists only for the event-vs-tick equivalence
		// ablation, which predates the silent-error class; fail loudly
		// rather than silently dropping injected corruption.
		return Result{}, fmt.Errorf("%w: RunTicks does not support silent-error injection", ErrConfig)
	}
	if tick <= 0 {
		tick = 1
	}
	p := cfg.Params
	L := p.L()
	n := cfg.N
	P := p.ProductiveTime(n)
	maxWall := cfg.MaxWallClock
	if maxWall <= 0 {
		maxWall = 4000 * failure.SecondsPerDay * 20
	}

	tau := make([]float64, L)
	for i := range tau {
		tau[i] = P / cfg.X[i]
	}

	res := Result{Failures: make([]int, L), CheckpointsTaken: make([]int, L)}
	lastCkpt := make([]float64, L)
	furthestCkpt := make([]float64, L)
	for i := range furthestCkpt {
		furthestCkpt[i] = -1
	}
	nextMark := make([]int, L)
	for i := range nextMark {
		nextMark[i] = 1
	}
	markProgress := func(i int) float64 {
		if float64(nextMark[i]) >= cfg.X[i]-1e-9 {
			return math.Inf(1)
		}
		return float64(nextMark[i]) * tau[i]
	}

	proc := failure.NewProcess(p.Rates, n, cfg.Dist, cfg.WeibullShape, rng)
	pending, havePending := failure.Event{}, false
	peek := func(from float64) (failure.Event, bool) {
		if !havePending {
			ev, ok := proc.Next(from)
			if !ok {
				return failure.Event{}, false
			}
			pending, havePending = ev, true
		}
		if pending.Time < from {
			pending.Time = from
		}
		return pending, true
	}

	wall, progress, furthest := 0.0, 0.0, 0.0

	// Mode state machine: working, checkpointing (level, remaining),
	// recovering (class, remaining).
	const (
		working = iota
		checkpointing
		recovering
	)
	mode := working
	var remaining float64
	var ckptLevel int
	var recClass int
	var ckptRedo bool

	// strike mirrors the event engine: it applies storage damage and
	// rollback, returning the restoring level (-1 = from scratch).
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
	recoveryDur := func(restoreLvl int) float64 {
		dur := p.Alloc
		if restoreLvl >= 0 {
			dur += rng.Jitter(p.Levels[restoreLvl].Recovery.At(n), cfg.JitterRatio)
		}
		return dur
	}

	for progress < P && wall <= maxWall {
		// Failure at this tick?
		failed := false
		var failClass int
		suppress := (mode == checkpointing && cfg.DisableFailuresDuringCkpt) ||
			(mode == recovering && cfg.DisableFailuresDuringRecovery)
		if ev, ok := peek(wall); ok && ev.Time < wall+tick && !suppress {
			havePending = false
			failed = true
			failClass = ev.Level
		}

		switch mode {
		case working:
			if failed {
				// The partial tick before the failure still progresses.
				res.Failures[failClass]++
				lvl := strike(failClass)
				mode = recovering
				recClass = failClass
				remaining = recoveryDur(lvl)
				wall += tick
				res.Restart += tick
				continue
			}
			// Work until the next checkpoint mark or completion.
			due := math.Inf(1)
			dueLevel := -1
			for i := L - 1; i >= 0; i-- {
				if m := markProgress(i); m < due-1e-9 {
					due, dueLevel = m, i
				} else if m < due+1e-9 && i > dueLevel {
					dueLevel = i
				}
			}
			step := math.Min(tick, math.Min(due, P)-progress)
			if step < 0 {
				step = 0
			}
			advanceWork(&res, progress, progress+step, furthest)
			progress += step
			if progress > furthest {
				furthest = progress
			}
			wall += tick
			if progress >= math.Min(due, P)-1e-9 && progress < P {
				mode = checkpointing
				ckptLevel = dueLevel
				ckptRedo = progress <= furthestCkpt[dueLevel]+1e-9
				remaining = rng.Jitter(p.Levels[dueLevel].Checkpoint.At(n), cfg.JitterRatio)
			}
		case checkpointing:
			spent := math.Min(tick, remaining)
			if ckptRedo {
				res.Rollback += spent
			} else {
				res.Checkpoint += spent
			}
			wall += tick
			if failed {
				res.Failures[failClass]++
				lvl := strike(failClass)
				mode = recovering
				recClass = failClass
				remaining = recoveryDur(lvl)
				continue
			}
			remaining -= tick
			if remaining <= 0 {
				res.CheckpointsTaken[ckptLevel]++
				lastCkpt[ckptLevel] = progress
				if progress > furthestCkpt[ckptLevel] {
					furthestCkpt[ckptLevel] = progress
				}
				for i := 0; i <= ckptLevel; i++ {
					if m := markProgress(i); !math.IsInf(m, 1) && m < progress+1e-9 {
						nextMark[i]++
					}
				}
				mode = working
			}
		case recovering:
			res.Restart += math.Min(tick, remaining)
			wall += tick
			if failed {
				res.Failures[failClass]++
				if failClass > recClass {
					recClass = failClass
				}
				lvl := strike(recClass)
				remaining = recoveryDur(lvl)
				continue
			}
			remaining -= tick
			if remaining <= 0 {
				mode = working
			}
		}
	}
	if progress < P {
		res.Truncated = true
	}
	res.WallClock = wall
	return res, nil
}
