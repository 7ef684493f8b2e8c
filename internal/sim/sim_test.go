package sim

import (
	"errors"
	"math"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
	"mlckpt/internal/stats"
)

// testParams builds a small, fast scenario: 100 core-days of work, ideal
// scale 10k cores, modest constant costs.
func testParams(spec string) *model.Params {
	return &model.Params{
		Te:      100 * failure.SecondsPerDay,
		Speedup: speedup.Quadratic{Kappa: 0.5, NStar: 1e4},
		Levels: overhead.SymmetricLevels([]overhead.Cost{
			overhead.Constant(1),
			overhead.Constant(3),
			overhead.Constant(5),
			overhead.Constant(20),
		}, 0.5),
		Alloc: 10,
		Rates: failure.MustParseRates(spec, 1e4),
	}
}

func testConfig(spec string, n float64, x []float64) Config {
	return Config{Params: testParams(spec), N: n, X: x}
}

func TestValidate(t *testing.T) {
	good := testConfig("4-3-2-1", 5000, []float64{40, 20, 10, 5})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.N = 0
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("zero N: %v", err)
	}
	bad = good
	bad.X = []float64{1, 2}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("short X: %v", err)
	}
	bad = good
	bad.X = []float64{0.5, 2, 3, 4}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("x<1: %v", err)
	}
	bad = good
	bad.JitterRatio = 1.5
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("jitter: %v", err)
	}
	var nilCfg Config
	if err := nilCfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("nil params: %v", err)
	}
}

func TestFailureFreeRun(t *testing.T) {
	// Zero failure rates: wall clock = productive + checkpoints exactly,
	// no restart, no rollback.
	cfg := testConfig("0-0-0-0", 5000, []float64{40, 20, 10, 5})
	r, err := Run(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	P := cfg.Params.ProductiveTime(cfg.N)
	if math.Abs(r.Productive-P) > 1e-6*P {
		t.Errorf("productive = %g, want %g", r.Productive, P)
	}
	if r.Restart != 0 || r.Rollback != 0 {
		t.Errorf("failure-free run has restart %g rollback %g", r.Restart, r.Rollback)
	}
	if r.TotalFailures() != 0 {
		t.Errorf("failures = %v", r.Failures)
	}
	// Expected checkpoint counts: the level-4 marks at k/5 coincide with
	// level-1/2/3 marks periodically, which are then skipped.
	// Level 4 takes exactly x4-1 = 4 checkpoints.
	if r.CheckpointsTaken[3] != 4 {
		t.Errorf("level-4 checkpoints = %d, want 4", r.CheckpointsTaken[3])
	}
	sum := r.Productive + r.Checkpoint + r.Restart + r.Rollback
	if math.Abs(sum-r.WallClock) > 1e-6*r.WallClock {
		t.Errorf("portions sum %g != wall clock %g", sum, r.WallClock)
	}
}

func TestCoincidentMarksSkipLowerLevels(t *testing.T) {
	// x = (8, 4, 2, 1): every level-2 mark coincides with a level-1 mark,
	// and the level-3 mark coincides with both. Expected completed
	// checkpoints: L3: 1 (at 1/2), L2: 2 (at 1/4, 3/4), L1: 4 (odd 1/8s).
	cfg := testConfig("0-0-0-0", 5000, []float64{8, 4, 2, 1})
	r, err := Run(cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 2, 1, 0}
	for i, w := range want {
		if r.CheckpointsTaken[i] != w {
			t.Errorf("level %d checkpoints = %d, want %d (got %v)", i+1, r.CheckpointsTaken[i], w, r.CheckpointsTaken)
		}
	}
}

func TestPortionsAlwaysSumToWallClock(t *testing.T) {
	cfg := testConfig("24-12-6-3", 8000, []float64{60, 30, 12, 6})
	results, err := RunMany(cfg, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		sum := r.Productive + r.Checkpoint + r.Restart + r.Rollback
		if math.Abs(sum-r.WallClock) > 1e-6*(1+r.WallClock) {
			t.Fatalf("run %d: portions %g != wall %g", i, sum, r.WallClock)
		}
		P := cfg.Params.ProductiveTime(cfg.N)
		if !r.Truncated && math.Abs(r.Productive-P) > 1e-6*P {
			t.Fatalf("run %d: productive %g != P %g", i, r.Productive, P)
		}
	}
}

func TestFailuresIncreaseWallClock(t *testing.T) {
	x := []float64{60, 30, 12, 6}
	quiet, err := Simulate(testConfig("1-0.5-0.25-0.125", 8000, x), 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Simulate(testConfig("32-16-8-4", 8000, x), 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.WallClock.Mean <= quiet.WallClock.Mean {
		t.Errorf("more failures did not slow the run: %g vs %g", noisy.WallClock.Mean, quiet.WallClock.Mean)
	}
	if noisy.Rollback.Mean <= quiet.Rollback.Mean {
		t.Errorf("rollback did not grow with failures")
	}
}

func TestFailureCountsMatchRates(t *testing.T) {
	// Empirical failure counts per level ≈ rate × wall-clock. Use a long
	// workload so even the rarest level accumulates enough events.
	cfg := testConfig("12-6-3-1.5", 1e4, []float64{120, 60, 24, 12})
	cfg.Params.Te = 1000 * failure.SecondsPerDay
	results, err := RunMany(cfg, 120, 11)
	if err != nil {
		t.Fatal(err)
	}
	var wall float64
	counts := make([]float64, 4)
	for _, r := range results {
		wall += r.WallClock
		for i, c := range r.Failures {
			counts[i] += float64(c)
		}
	}
	days := wall / failure.SecondsPerDay
	for i, want := range []float64{12, 6, 3, 1.5} {
		got := counts[i] / days
		if math.Abs(got-want) > 0.25*want {
			t.Errorf("level %d: %.2f failures/day, want ≈%g", i+1, got, want)
		}
	}
}

func TestRollbackScopeByLevel(t *testing.T) {
	// Only level-1 failures, frequent level-1 checkpoints: rollback should
	// be small. Same rate as class-4 failures with only x4 checkpoints at
	// the same frequency... but level-4 recovery is costlier and rollback
	// similar; instead verify: with class-4 failures and ONLY level-1
	// checkpoints (x = [many,1,1,1]), rollback is huge (level-1 files
	// cannot restore class-4 failures).
	lowClass, err := Simulate(testConfig("8-0-0-0", 8000, []float64{100, 1, 1, 1}), 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfgHigh := testConfig("0-0-0-8", 8000, []float64{100, 1, 1, 1})
	cfgHigh.MaxWallClock = 400 * failure.SecondsPerDay
	highClass, err := Simulate(cfgHigh, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if highClass.Rollback.Mean <= 5*lowClass.Rollback.Mean {
		t.Errorf("class-4 failures with only L1 checkpoints should devastate: rollback %g vs %g",
			highClass.Rollback.Mean, lowClass.Rollback.Mean)
	}
}

func TestHigherLevelCheckpointRestoresLowerClass(t *testing.T) {
	// Only level-4 checkpoints but only class-1 failures: the PFS file
	// must serve as the restore point (rollback bounded by interval size).
	cfg := testConfig("8-0-0-0", 8000, []float64{1, 1, 1, 20})
	results, err := RunMany(cfg, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	P := cfg.Params.ProductiveTime(cfg.N)
	for _, r := range results {
		if r.Truncated {
			t.Fatal("run truncated; restore from higher level not working")
		}
		_ = P
	}
}

func TestClassCFailureDestroysLowerCheckpoints(t *testing.T) {
	// Deterministic scenario via a single engineered failure: use a
	// level-2-only failure rate so every failure wipes L1 checkpoints.
	// With x1 large and x2 = 1 (no L2 checkpoints), every class-2 failure
	// rolls all the way back to the start, no matter how many L1
	// checkpoints completed. With a long MaxWallClock the run truncates
	// rather than completes if failures are frequent enough.
	p := testParams("0-40-0-0")
	cfg := Config{
		Params:       p,
		N:            1e4,
		X:            []float64{200, 1, 1, 1},
		MaxWallClock: 30 * failure.SecondsPerDay,
	}
	r, err := Run(cfg, stats.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	// P at 1e4 = 100 core-days / 2500 = 0.04 days... here g(1e4) = κN/2 =
	// 2500, P = 100/2500 days = 3456 s. MTBF(class2) = 2160 s < P: the run
	// must roll back to zero repeatedly, inflating rollback well beyond P.
	if r.Rollback < r.Productive {
		t.Errorf("expected rollback >> productive when L2 failures wipe everything; rollback=%g productive=%g",
			r.Rollback, r.Productive)
	}
}

func TestJitterChangesDurationsNotCorrectness(t *testing.T) {
	base := testConfig("8-4-2-1", 8000, []float64{60, 30, 12, 6})
	jit := base
	jit.JitterRatio = 0.3
	r1, err := Simulate(base, 50, 17)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(jit, 50, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Means should agree within noise (jitter is symmetric).
	if stats.RelErr(r1.WallClock.Mean, r2.WallClock.Mean) > 0.1 {
		t.Errorf("jitter shifted the mean too much: %g vs %g", r1.WallClock.Mean, r2.WallClock.Mean)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig("8-4-2-1", 8000, []float64{60, 30, 12, 6})
	a, err := RunMany(cfg, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMany(cfg, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].WallClock != b[i].WallClock || a[i].TotalFailures() != b[i].TotalFailures() {
			t.Fatalf("run %d differs across identical seeds", i)
		}
	}
}

func TestSimulateAgainstAnalyticModel(t *testing.T) {
	// The mean simulated wall clock should track the analytic E(T_w) at
	// the model's own optimal solution within ~15% (the model is
	// first-order; the simulator compounds).
	p := testParams("8-4-2-1")
	n := 6000.0
	tEst := p.ProductiveTime(n)
	var wct float64
	x := []float64{1, 1, 1, 1}
	for k := 0; k < 50; k++ {
		mu := p.MuOfN(n, tEst)
		for i := range x {
			x[i] = p.YoungX(n, mu, i)
		}
		wct = p.WallClock(x, n, mu)
		if math.Abs(wct-tEst) < 1 {
			break
		}
		tEst = wct
	}
	agg, err := Simulate(Config{Params: p, N: n, X: x}, 200, 23)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(agg.WallClock.Mean, wct) > 0.15 {
		t.Errorf("simulated %g vs analytic %g (rel %.1f%%)",
			agg.WallClock.Mean, wct, 100*stats.RelErr(agg.WallClock.Mean, wct))
	}
}

func TestWeibullDistributionRuns(t *testing.T) {
	cfg := testConfig("8-4-2-1", 8000, []float64{60, 30, 12, 6})
	cfg.Dist = failure.Weibull
	cfg.WeibullShape = 0.7
	agg, err := Simulate(cfg, 30, 29)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Failures.Mean <= 0 {
		t.Error("no failures under Weibull")
	}
}

func TestRunManyErrors(t *testing.T) {
	cfg := testConfig("8-4-2-1", 8000, []float64{60, 30, 12, 6})
	if _, err := RunMany(cfg, 0, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("runs=0: %v", err)
	}
	bad := cfg
	bad.N = -5
	if _, err := RunMany(bad, 10, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("bad config: %v", err)
	}
}

func TestTruncation(t *testing.T) {
	cfg := testConfig("0-0-0-40", 1e4, []float64{1, 1, 1, 1})
	cfg.MaxWallClock = 2 * failure.SecondsPerDay
	r, err := Run(cfg, stats.NewRNG(37))
	if err != nil {
		t.Fatal(err)
	}
	// No checkpoints (x=1 everywhere) with 40 class-4 failures/day and
	// P ≈ 3456 s (MTBF 2160 s): essentially certain to truncate.
	if !r.Truncated {
		t.Skip("run completed against the odds; acceptable at this probability")
	}
	if r.WallClock < cfg.MaxWallClock {
		t.Errorf("truncated run reports wall clock %g < cap %g", r.WallClock, cfg.MaxWallClock)
	}
}

func TestAggregateSummaries(t *testing.T) {
	cfg := testConfig("8-4-2-1", 8000, []float64{60, 30, 12, 6})
	agg, err := Simulate(cfg, 25, 41)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 25 {
		t.Errorf("Runs = %d", agg.Runs)
	}
	if agg.WallClock.Count != 25 || agg.WallClock.Mean <= 0 {
		t.Errorf("WallClock summary: %+v", agg.WallClock)
	}
	approx := agg.Productive.Mean + agg.Checkpoint.Mean + agg.Restart.Mean + agg.Rollback.Mean
	if math.Abs(approx-agg.WallClock.Mean) > 1e-6*agg.WallClock.Mean {
		t.Errorf("mean portions %g != mean wall clock %g", approx, agg.WallClock.Mean)
	}
}

func TestEfficiencyMetric(t *testing.T) {
	cfg := testConfig("0-0-0-0", 5000, []float64{1, 1, 1, 1})
	r, err := Run(cfg, stats.NewRNG(43))
	if err != nil {
		t.Fatal(err)
	}
	// Failure-free, checkpoint-free: efficiency = g(N)/N.
	g := cfg.Params.Speedup.Speedup(5000)
	want := g / 5000
	if got := r.Efficiency(cfg.Params.Te, 5000); math.Abs(got-want) > 1e-9 {
		t.Errorf("efficiency = %g, want %g", got, want)
	}
}
