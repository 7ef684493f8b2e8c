package experiments

import (
	"fmt"

	"mlckpt/internal/core"
	"mlckpt/internal/failure"
	"mlckpt/internal/obs"
	"mlckpt/internal/sim"
	"mlckpt/internal/stats"
)

// ReplayResult is one deterministic re-execution of a recorded failure
// trace against the canonical evaluation scenario.
type ReplayResult struct {
	Spec   string
	Trace  int // events in the input trace
	Res    sim.Result
	events []obs.TrackEvent // the run's whole trace track: its event log
}

// Replay runs the canonical evaluation scenario (Te = 3M core-days,
// 16-12-8-4 hierarchy) at its optimized scale and intervals, but with
// failures fed from the fixed trace instead of the stochastic process —
// replaying a recorded run or a real system's failure log. Jitter is
// disabled, so the wall clock is a pure function of the trace.
func Replay(trace []failure.Event) (ReplayResult, error) {
	const spec = "16-12-8-4"
	out := ReplayResult{Spec: spec, Trace: len(trace)}
	sc := EvalScenario(3e6, spec)
	p := sc.Params()
	opt, err := core.Optimize(p, core.Options{})
	if err != nil {
		return out, err
	}
	const track = "replay"
	col := obs.NewCollector()
	cfg := sim.Config{
		Params: p, N: opt.N, X: opt.X,
		MaxWallClock: sc.MaxDays * failure.SecondsPerDay,
		Replay:       trace,
		Obs:          col, ObsTrack: track, ObsMaxEvents: -1,
	}
	// The seed is irrelevant in replay mode with zero jitter; any fixed
	// value yields the identical run.
	const replaySeed uint64 = 1
	out.Res, err = sim.Run(cfg, stats.NewRNG(replaySeed))
	out.events = col.Trace.Events(track)
	return out, err
}

// Render prints the replayed run: summary rows, then the execution trace
// (capped — a full exascale run takes tens of thousands of checkpoints).
func (r ReplayResult) Render() string {
	t := NewTable(fmt.Sprintf("Replay (%s, Te=3m core-days, %d trace events)", r.Spec, r.Trace),
		"quantity", "value")
	t.Add("wall clock (days)", fmt.Sprintf("%.3f", r.Res.WallClock/failure.SecondsPerDay))
	t.Add("failures replayed", fmt.Sprintf("%v", r.Res.Failures))
	t.Add("checkpoints taken", fmt.Sprintf("%v", r.Res.CheckpointsTaken))
	t.Add("restart time (s)", fmt.Sprintf("%.1f", r.Res.Restart))
	t.Add("rollback time (s)", fmt.Sprintf("%.1f", r.Res.Rollback))
	t.Add("truncated", fmt.Sprintf("%v", r.Res.Truncated))
	s := t.String()
	// Failures, aborted checkpoints, recoveries and the completion are the
	// interesting rows of a replay. Completed checkpoints dominate the
	// track, so they stay out of the listing with every other event. A
	// span is listed at its end; a recovery span carries no progress, so
	// its row shows where the last rollback left the run.
	line := func(at float64, what string, level, progress float64) string {
		return fmt.Sprintf("  %.1fs %s L%d p=%.0f\n", at, what, int(level), progress)
	}
	var kept []string
	restored := 0.0
	for _, e := range r.events {
		switch e.Name {
		case "rollback":
			restored = e.Arg("to")
		case "failure":
			kept = append(kept, line(e.TS, "failure", e.Arg("class"), e.Arg("progress")))
		case "checkpoint-abort":
			kept = append(kept, line(e.TS+e.Dur, "checkpoint-abort", e.Arg("level"), e.Arg("progress")))
		case "recovery":
			kept = append(kept, line(e.TS+e.Dur, "recovery", e.Arg("restore_level"), restored))
		case "complete":
			kept = append(kept, line(e.TS, "completion", 0, e.Arg("progress")))
		}
	}
	const maxEvents = 40
	for i, l := range kept {
		if i == maxEvents {
			s += fmt.Sprintf("  ... %d more events\n", len(kept)-maxEvents)
			break
		}
		s += l
	}
	return s
}
