package sim

import (
	"testing"

	"mlckpt/internal/stats"
)

func TestRunTicksFailureFree(t *testing.T) {
	cfg := testConfig("0-0-0-0", 5000, []float64{40, 20, 10, 5})
	ev, err := Run(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	tk, err := runTicks(cfg, 1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Tick quantization rounds each duration up to whole ticks; with a few
	// hundred state transitions the drift stays far below 1%.
	if stats.RelErr(ev.WallClock, tk.WallClock) > 0.01 {
		t.Errorf("event %g vs tick %g wall clock", ev.WallClock, tk.WallClock)
	}
	if tk.TotalFailures() != 0 || tk.Restart != 0 {
		t.Errorf("failure-free tick run has failures/restart: %+v", tk)
	}
	if tk.CheckpointsTaken[3] != ev.CheckpointsTaken[3] {
		t.Errorf("checkpoint counts differ: %v vs %v", tk.CheckpointsTaken, ev.CheckpointsTaken)
	}
}

// TestEventTickEquivalence is the ablation behind Figure 4's simulator
// validation methodology: the event-driven engine and the paper-style
// 1-second tick engine must agree statistically (< 4% on mean wall clock,
// the same bound the paper reports between its simulator and the real
// cluster).
func TestEventTickEquivalence(t *testing.T) {
	cfg := testConfig("16-8-4-2", 8000, []float64{60, 30, 12, 6})
	const runs = 60
	root := stats.NewRNG(99)
	var evSum, tkSum float64
	for i := 0; i < runs; i++ {
		r1, err := Run(cfg, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := runTicks(cfg, 1, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		evSum += r1.WallClock
		tkSum += r2.WallClock
	}
	evMean, tkMean := evSum/runs, tkSum/runs
	if stats.RelErr(evMean, tkMean) > 0.04 {
		t.Errorf("event mean %g vs tick mean %g differ by %.1f%% (>4%%)",
			evMean, tkMean, 100*stats.RelErr(evMean, tkMean))
	}
}

func TestRunTicksPortionsSum(t *testing.T) {
	cfg := testConfig("16-8-4-2", 8000, []float64{60, 30, 12, 6})
	r, err := runTicks(cfg, 1, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	sum := r.Productive + r.Checkpoint + r.Restart + r.Rollback
	// Tick accounting quantizes: productive slices are exact, overhead
	// slices are whole ticks; the sum may undercount idle tick remainders
	// by at most one tick per transition.
	if sum > r.WallClock*1.001 {
		t.Errorf("portions %g exceed wall clock %g", sum, r.WallClock)
	}
	if sum < r.WallClock*0.9 {
		t.Errorf("portions %g far below wall clock %g", sum, r.WallClock)
	}
}

func TestRunTicksValidation(t *testing.T) {
	bad := testConfig("8-4-2-1", 0, []float64{1, 1, 1, 1})
	if _, err := runTicks(bad, 1, stats.NewRNG(1)); err == nil {
		t.Error("invalid config accepted")
	}
	silent := testConfig("8-4-2-1", 5000, []float64{8, 4, 2, 1})
	silent.SilentCorruptionProb = 0.1
	if _, err := runTicks(silent, 1, stats.NewRNG(1)); err == nil {
		t.Error("silent-error config accepted")
	}
}
