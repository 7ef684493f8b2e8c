package experiments

import (
	"errors"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/fti"
	"mlckpt/internal/heat"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/storage"
)

func realCfg(seed uint64) RealConfig {
	return RealConfig{
		Ranks:     16,
		Heat:      heat.Config{GridX: 64, GridY: 64, Iterations: 120, CellTime: 2e-4, TopTemp: 100},
		FTI:       fti.Config{GroupSize: 8, Parity: 2, Hierarchy: testHierarchy()},
		Intervals: [fti.Levels]int{24, 12, 6, 3},
		Rates:     failure.MustParseRates("200-100-50-25", 16),
		Alloc:     2,
		Cost:      mpisim.DefaultCostModel(),
		Seed:      seed,
	}
}

func testHierarchy() storage.Hierarchy { return storage.DefaultHierarchy() }

func TestRunRealCompletesWithFailures(t *testing.T) {
	res, err := RunReal(realCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	total := 0
	for _, c := range res.Failures {
		total += c
	}
	recov := res.FromScratch
	for _, c := range res.Recoveries {
		recov += c
	}
	if total > 0 && recov == 0 {
		t.Errorf("%d failures but no recoveries", total)
	}
	if res.WallClock <= 0 {
		t.Errorf("wall clock %g", res.WallClock)
	}
}

func TestRunRealDeterministic(t *testing.T) {
	a, err := RunReal(realCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReal(realCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.WallClock != b.WallClock {
		t.Errorf("same seed, different wall clocks: %g vs %g", a.WallClock, b.WallClock)
	}
}

func TestRunRealRejectsBadShape(t *testing.T) {
	cfg := realCfg(1)
	cfg.Ranks = 10 // not a multiple of the group size 8
	if _, err := RunReal(cfg); !errors.Is(err, ErrReal) {
		t.Errorf("err = %v", err)
	}
}

func TestRunRealFailureFree(t *testing.T) {
	cfg := realCfg(1)
	cfg.Rates = failure.MustParseRates("0-0-0-0", 16)
	res, err := RunReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.FromScratch != 0 {
		t.Errorf("failure-free run: %+v", res)
	}
	for _, c := range res.Failures {
		if c != 0 {
			t.Errorf("phantom failures: %v", res.Failures)
		}
	}
	// Checkpoint durations observed for every level that has intervals > 1.
	for lvl, d := range res.CkptDuration {
		if cfg.Intervals[lvl] > 1 && d <= 0 {
			t.Errorf("level %d checkpoint never observed", lvl+1)
		}
	}
}
