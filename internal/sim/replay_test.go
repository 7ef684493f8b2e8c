package sim

import (
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/stats"
)

func TestReplayDeterministicAcrossSeeds(t *testing.T) {
	// With a fixed trace and no jitter, the run is fully deterministic:
	// different RNG seeds must produce the identical result.
	cfg := testConfig("8-4-2-1", 8000, []float64{60, 30, 12, 6})
	trace := failure.Trace(cfg.Params.Rates, 8000, 30*failure.SecondsPerDay,
		failure.Exponential, 0, stats.NewRNG(55))
	cfg.Replay = trace
	a, err := Run(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, stats.NewRNG(999))
	if err != nil {
		t.Fatal(err)
	}
	if a.WallClock != b.WallClock || a.TotalFailures() != b.TotalFailures() {
		t.Errorf("replay not deterministic: %g/%d vs %g/%d",
			a.WallClock, a.TotalFailures(), b.WallClock, b.TotalFailures())
	}
}

func TestReplayConsumesTraceInOrder(t *testing.T) {
	// A handcrafted trace: the run must see exactly the failures that fall
	// inside its wall clock, in their classes.
	cfg := testConfig("1-1-1-1", 8000, []float64{60, 30, 12, 6})
	P := cfg.Params.ProductiveTime(8000)
	cfg.Replay = []failure.Event{
		{Time: P * 0.2, Level: 0},
		{Time: P * 0.5, Level: 2},
		{Time: P * 1e6, Level: 3}, // far beyond completion: never fires
	}
	r, err := Run(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures[0] != 1 || r.Failures[2] != 1 {
		t.Errorf("failures = %v, want one class-1 and one class-3", r.Failures)
	}
	if r.Failures[3] != 0 {
		t.Errorf("event beyond completion fired: %v", r.Failures)
	}
}

func TestReplayEmptyTraceIsFailureFree(t *testing.T) {
	cfg := testConfig("16-12-8-4", 8000, []float64{60, 30, 12, 6})
	cfg.Replay = []failure.Event{} // non-nil empty: replay mode, no failures
	r, err := Run(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalFailures() != 0 || r.Restart != 0 {
		t.Errorf("empty replay produced failures: %+v", r)
	}
}

func TestReplayClampsForeignLevels(t *testing.T) {
	cfg := testConfig("1-1-1-1", 8000, []float64{60, 30, 12, 6})
	P := cfg.Params.ProductiveTime(8000)
	cfg.Replay = []failure.Event{{Time: P * 0.3, Level: 9}} // 10-class log
	r, err := Run(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures[3] != 1 {
		t.Errorf("foreign level not clamped to the top class: %v", r.Failures)
	}
}

func TestReplayRoundTripFromRecordedRun(t *testing.T) {
	// Record a stochastic run's failures, replay them, and compare: with
	// jitter off the replayed run must reproduce the original wall clock
	// (failures during recovery are clamped forward in the replay, which
	// the recorded event times already reflect).
	cfg := testConfig("8-4-2-1", 8000, []float64{60, 30, 12, 6})
	orig, track, err := runTrack(cfg, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	replay := cfg
	replay.Replay = failureTrace(track)
	rep, err := Run(replay, stats.NewRNG(999))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFailures() != orig.TotalFailures() {
		t.Errorf("failure counts differ: %d vs %d", rep.TotalFailures(), orig.TotalFailures())
	}
	if d := rep.WallClock - orig.WallClock; d > 1e-6*orig.WallClock || d < -1e-6*orig.WallClock {
		t.Errorf("replayed wall clock %g != original %g", rep.WallClock, orig.WallClock)
	}
}
