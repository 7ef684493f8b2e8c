package sim

import (
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/obs"
	"mlckpt/internal/stats"
	"mlckpt/internal/trace"
)

// failureTrace lists a track's failure instants as a failure trace.
func failureTrace(track []obs.TrackEvent) []failure.Event {
	var out []failure.Event
	for _, e := range track {
		if e.Name == "failure" {
			out = append(out, failure.Event{Time: e.TS, Level: int(e.Arg("class")) - 1})
		}
	}
	return out
}

// runTrack plays one run with a private collector on an unlimited trace
// track and returns the result with the track's events: the run's event
// log, as experiments.Replay, obs/attrib and cmd/obstool read it.
func runTrack(cfg Config, rng *stats.RNG) (Result, []obs.TrackEvent, error) {
	const track = "sim/run"
	col := obs.NewCollector()
	cfg.Obs, cfg.ObsTrack, cfg.ObsMaxEvents = col, track, -1
	res, err := Run(cfg, rng)
	return res, col.Trace.Events(track), err
}

func TestRecordedTraceOrderingAndCounts(t *testing.T) {
	cfg := testConfig("24-12-6-3", 8000, []float64{60, 30, 12, 6})
	r, events, err := runTrack(cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	// Monotone in time: each event starts where the previous one ended.
	for i := 1; i < len(events); i++ {
		prev, e := events[i-1], events[i]
		if end := prev.TS + prev.Dur; e.TS < end-1e-9*end {
			t.Fatalf("events out of order at %d: %+v after %+v", i, e, prev)
		}
	}
	// Counts must match the scalar counters.
	failures, ckpts, recoveries := 0, 0, 0
	for _, e := range events {
		switch e.Name {
		case "failure":
			failures++
		case "checkpoint":
			ckpts++
		case "recovery":
			recoveries++
		}
	}
	if failures != r.TotalFailures() {
		t.Errorf("trace failures %d != counter %d", failures, r.TotalFailures())
	}
	total := 0
	for _, c := range r.CheckpointsTaken {
		total += c
	}
	if ckpts != total {
		t.Errorf("trace checkpoints %d != counter %d", ckpts, total)
	}
	// Ends with completion.
	if last := events[len(events)-1]; last.Name != "complete" {
		t.Errorf("last event %+v, want completion", last)
	}
	// Every failure is followed (eventually) by a recovery event.
	if recoveries == 0 && failures > 0 {
		t.Error("failures recorded but no recovery events")
	}
}

func TestCorrelationWindowAbsorbsFailures(t *testing.T) {
	// Very high class-4 rate with a wide window: many events should fold
	// into each strike, reducing the effective failure count.
	base := testConfig("0-0-0-200", 1e4, []float64{1, 1, 1, 40})
	base.Params.Te = 2000 * 86400 // long run: P ≈ 160 MTBFs, many strikes
	plain, err := Run(base, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	corr := base
	corr.CorrelationWindow = 120
	merged, err := Run(corr, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Absorbed == 0 {
		t.Fatal("no failures absorbed despite a 2-minute window at 200/day")
	}
	if plain.Absorbed != 0 {
		t.Error("absorption without a window")
	}
	// Treating a burst as one event can only reduce recovery work.
	if merged.Restart > plain.Restart*1.1 {
		t.Errorf("windowed restart %g > plain %g", merged.Restart, plain.Restart)
	}
}

func TestCorrelationWindowDoesNotAbsorbHigherClass(t *testing.T) {
	// A higher-class failure inside the window must NOT be swallowed: it
	// needs its own (deeper) recovery.
	cfg := testConfig("2000-0-0-2000", 1e4, []float64{100, 1, 1, 10})
	cfg.CorrelationWindow = 300
	cfg.Params.Te = 500 * 86400
	cfg.MaxWallClock = 50 * 86400
	r, err := Run(cfg, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures[3] == 0 {
		t.Error("class-4 failures all disappeared; higher classes must survive the window")
	}
}

func TestRecordedTraceFeedsTraceAnalysis(t *testing.T) {
	// The simulator's recorded failure events must have the statistics the
	// trace package expects: per-level rates proportional to the input.
	cfg := testConfig("24-12-6-3", 1e4, []float64{200, 100, 40, 20})
	cfg.Params.Te = 2000 * 86400
	r, track, err := runTrack(cfg, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	events := failureTrace(track)
	st, err := trace.Analyze(events, 4, r.WallClock)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{24, 12, 6, 3} {
		if st[i].Count < 10 {
			continue // too few events for a rate assertion
		}
		if st[i].RatePerDay < 0.6*want || st[i].RatePerDay > 1.4*want {
			t.Errorf("level %d: %.2f failures/day, want ≈%g", i+1, st[i].RatePerDay, want)
		}
	}
	// The dominant level's interarrivals look exponential.
	if st[0].Count >= 30 && !st[0].LooksExponential(0.3) {
		t.Errorf("level-1 interarrivals CV=%g not exponential-like", st[0].CV)
	}
}
