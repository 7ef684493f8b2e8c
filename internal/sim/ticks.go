package sim

import (
	"fmt"
	"math"

	"mlckpt/internal/eventq"
	"mlckpt/internal/failure"
	"mlckpt/internal/stats"
)

// Wake-up kinds scheduled by the tick jump engine. Only the earliest
// wake-up matters each round; the payload exists for readability and for
// the queue's deterministic tie-break on equal times.
const (
	tickEvHorizon  int64 = iota // MaxWallClock would be crossed
	tickEvFailure               // the pending failure's tick is near
	tickEvBoundary              // checkpoint mark / ckpt-or-recovery completion
)

// boringTicks clamps a conservative skip estimate to a queue-safe range:
// negative estimates mean the very next tick must run through the dense
// per-tick logic, and the cap keeps float→int64 conversion in range for
// pathologically distant failure draws.
func boringTicks(k float64) float64 {
	if k < 0 {
		return 0
	}
	if k > 1e15 {
		return 1e15
	}
	return k
}

// RunTicks simulates one execution with the paper's original tick-driven
// scheme (one tick = tick seconds, the paper uses 1 s). It implements the
// same semantics as Run but quantized to tick boundaries: work, checkpoint
// and recovery durations are consumed tick by tick, and a failure scheduled
// inside a tick fires at that tick's end.
//
// It exists for the event-vs-tick equivalence ablation; Run is the
// production path (identical statistics, far faster).
//
// Internally RunTicks is a jump engine on the same event loop as the
// mpisim rank scheduler: instead of iterating every tick, it queues the
// next interesting tick boundaries in an eventq.Queue — the pending
// failure, the next checkpoint mark or completion, the wall-clock horizon
// — pops the earliest, skips the provably boring run of whole ticks before
// it in O(1), and executes only the interesting tick through the exact
// per-tick state machine. The per-tick loop survives verbatim as
// runTicksDense (ticks_dense_test.go), the differential oracle: every skip
// is conservative (it stops at least one tick short of the event), so the
// two engines consume the failure stream and draw jitter at identical ticks,
// and for ticks whose multiples are exactly representable (integers,
// power-of-two fractions) the wall clocks and all integer outcome fields
// match the dense loop exactly. The float work accumulators may differ by
// one rounding per jump — a jump adds k ticks in one float operation where
// the dense loop performs k additions — which TestTickJumpMatchesDense
// bounds at 1e-9 relative.
func RunTicks(cfg Config, tick float64, rng *stats.RNG) (Result, error) {
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

	var q eventq.Queue

	for progress < P && wall <= maxWall {
		suppress := (mode == checkpointing && cfg.DisableFailuresDuringCkpt) ||
			(mode == recovering && cfg.DisableFailuresDuringRecovery)
		ev, okEv := peek(wall)
		failNow := okEv && !suppress && ev.Time < wall+tick

		// The next checkpoint mark is needed both for the boundary wake-up
		// and for the dense tick below.
		due := math.Inf(1)
		dueLevel := -1
		if mode == working {
			for i := L - 1; i >= 0; i-- {
				if m := markProgress(i); m < due-1e-9 {
					due, dueLevel = m, i
				} else if m < due+1e-9 && i > dueLevel {
					dueLevel = i
				}
			}
		}

		if !failNow {
			// Queue conservative wake-ups, measured in whole ticks from
			// now. Each estimate stops short of the tick in which its
			// event can fire, so every skipped tick is provably a no-event
			// tick whose only effect is one uniform accumulator update.
			q.Reset()
			q.Push(boringTicks(math.Floor((maxWall-wall)/tick)-1), tickEvHorizon)
			if okEv && !suppress {
				q.Push(boringTicks(math.Floor((ev.Time-wall)/tick)-1), tickEvFailure)
			}
			switch mode {
			case working:
				dist := math.Min(due, P) - progress
				q.Push(boringTicks(math.Ceil((dist-1e-9)/tick)-2), tickEvBoundary)
			default:
				q.Push(boringTicks(math.Ceil(remaining/tick)-2), tickEvBoundary)
			}
			if boring := int64(q.Pop().Time); boring > 0 {
				delta := float64(boring) * tick
				switch mode {
				case working:
					advanceWork(&res, progress, progress+delta, furthest)
					progress += delta
					if progress > furthest {
						furthest = progress
					}
				case checkpointing:
					if ckptRedo {
						res.Rollback += delta
					} else {
						res.Checkpoint += delta
					}
					remaining -= delta
				case recovering:
					res.Restart += delta
					remaining -= delta
				}
				wall += delta
				continue
			}
		}

		// An interesting tick: run it through the exact per-tick state
		// machine (the same transitions as runTicksDense).
		failed := false
		var failClass int
		if failNow {
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
