package attrib

import (
	"math"
	"strings"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/obs"
	"mlckpt/internal/overhead"
	"mlckpt/internal/sim"
	"mlckpt/internal/speedup"
	"mlckpt/internal/stats"
)

// testParams mirrors the sim package's small fast scenario: 100 core-days
// of work, ideal scale 10k cores, four levels with modest constant costs.
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

func runTraced(t *testing.T, spec string, seed uint64, mutate func(*sim.Config)) (*obs.Collector, sim.Result) {
	t.Helper()
	col := obs.NewCollector()
	cfg := sim.Config{
		Params:       testParams(spec),
		N:            5000,
		X:            []float64{40, 20, 10, 5},
		Obs:          col,
		ObsTrack:     "sim/attrib-test",
		ObsMaxEvents: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := sim.Run(cfg, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return col, res
}

func TestIdentityExactOnFailingRun(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		col, res := runTraced(t, "40-20-10-5", seed, func(c *sim.Config) {
			c.JitterRatio = 0.3
		})
		rep, err := FromTrace(col.Trace, "sim/attrib-test")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Exact {
			t.Fatalf("seed %d: identity not exact (clipped %g)", seed, rep.Clipped)
		}
		if rep.WallClock != res.WallClock {
			t.Fatalf("seed %d: wall %g != sim %g", seed, rep.WallClock, res.WallClock)
		}
		if rep.Clipped > 1e-6 {
			t.Fatalf("seed %d: clipped %g beyond rounding scale", seed, rep.Clipped)
		}
		// The coarse portions must agree with the simulator's own
		// accounting: same buckets, independently tallied.
		p := rep.Portions()
		tol := 1e-6 * res.WallClock
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"productive", p.Productive, res.Productive},
			{"checkpoint", p.Checkpoint, res.Checkpoint},
			{"restart", p.Restart, res.Restart},
			{"rollback", p.Rollback, res.Rollback},
		} {
			if math.Abs(c.got-c.want) > tol {
				t.Errorf("seed %d: %s = %.9g, sim says %.9g (tol %g)", seed, c.name, c.got, c.want, tol)
			}
		}
		if rep.TotalFailures() != res.TotalFailures() {
			t.Errorf("seed %d: %d failures attributed, sim saw %d", seed, rep.TotalFailures(), res.TotalFailures())
		}
	}
}

func TestZeroFailurePropertyOnlyWorkAndCheckpoints(t *testing.T) {
	col, res := runTraced(t, "0-0-0-0", 3, nil)
	rep, err := FromTrace(col.Trace, "sim/attrib-test")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact {
		t.Fatal("identity not exact on failure-free run")
	}
	if rep.Redo != 0 || rep.CkptRedo != 0 || rep.CkptAborted != 0 || rep.CkptAbortedRedo != 0 ||
		rep.RecoveryAborted != 0 || rep.Alloc != 0 || rep.Detection != 0 || len(rep.Recovery) != 0 {
		t.Fatalf("failure-free run has waste buckets: %+v", rep)
	}
	if rep.TotalFailures() != 0 || rep.Absorbed != 0 {
		t.Fatalf("failure-free run attributed failures: %+v", rep.Failures)
	}
	if rep.Work <= 0 || len(rep.Ckpt) == 0 {
		t.Fatalf("work %g, ckpt levels %d — expected both nonzero", rep.Work, len(rep.Ckpt))
	}
	ckptSum := 0.0
	for _, lvl := range sortedKeys(rep.Ckpt) {
		ckptSum += rep.Ckpt[lvl]
	}
	if math.Abs(rep.Work-res.Productive) > 1e-9 || math.Abs(ckptSum-res.Checkpoint) > 1e-9 {
		t.Fatalf("work %g / ckpt %g, sim says %g / %g", rep.Work, ckptSum, res.Productive, res.Checkpoint)
	}
}

func TestSilentCorruptionFillsDetection(t *testing.T) {
	var rep *Report
	for seed := uint64(1); seed <= 50; seed++ {
		col, res := runTraced(t, "40-20-10-5", seed, func(c *sim.Config) {
			c.SilentCorruptionProb = 0.3
		})
		if res.SilentDetected == 0 {
			continue
		}
		r, err := FromTrace(col.Trace, "sim/attrib-test")
		if err != nil {
			t.Fatal(err)
		}
		rep = r
		break
	}
	if rep == nil {
		t.Fatal("no seed produced a detected silent corruption")
	}
	if rep.Detection <= 0 {
		t.Fatalf("detection bucket empty despite detected corruption: %+v", rep)
	}
	if !rep.Exact {
		t.Fatal("identity not exact with silent-detect spans")
	}
}

func TestCorrelatedAbsorptionCounted(t *testing.T) {
	var rep *Report
	for seed := uint64(1); seed <= 80; seed++ {
		col, res := runTraced(t, "200-100-50-25", seed, func(c *sim.Config) {
			c.CorrelationWindow = 120
		})
		if res.Absorbed == 0 {
			continue
		}
		r, err := FromTrace(col.Trace, "sim/attrib-test")
		if err != nil {
			t.Fatal(err)
		}
		if r.Absorbed != res.Absorbed {
			t.Fatalf("seed %d: absorbed %d, sim says %d", seed, r.Absorbed, res.Absorbed)
		}
		rep = r
		break
	}
	if rep == nil {
		t.Fatal("no seed produced an absorbed failure")
	}
	if !rep.Exact {
		t.Fatal("identity not exact with absorbed-failure instants")
	}
}

func TestJSONRoundTripPreservesReport(t *testing.T) {
	col, _ := runTraced(t, "40-20-10-5", 11, func(c *sim.Config) { c.JitterRatio = 0.3 })
	direct, err := FromTrace(col.Trace, "sim/attrib-test")
	if err != nil {
		t.Fatal(err)
	}
	data, err := col.Trace.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.DecodeTraceJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := FromTrace(decoded, "sim/attrib-test")
	if err != nil {
		t.Fatal(err)
	}
	if !fromFile.Exact {
		t.Fatal("identity lost through the JSON round-trip")
	}
	if direct.Render() != fromFile.Render() {
		t.Fatalf("report changed through the JSON round-trip:\n%s\nvs\n%s", direct.Render(), fromFile.Render())
	}
}

func TestTruncatedTraceRefused(t *testing.T) {
	col, _ := runTraced(t, "40-20-10-5", 5, func(c *sim.Config) { c.ObsMaxEvents = 10 })
	if _, err := FromTrace(col.Trace, "sim/attrib-test"); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated trace accepted: %v", err)
	}
}

func TestForeignTrackRefused(t *testing.T) {
	col := obs.NewCollector()
	col.Span("mpisim/w", "barrier", 0, 1, map[string]float64{"seq": 0})
	if _, err := FromTrace(col.Trace, "mpisim/w"); err == nil {
		t.Fatal("mpisim track accepted as a run track")
	}
	if _, err := FromTrace(col.Trace, "absent"); err == nil {
		t.Fatal("empty track accepted")
	}
}

func TestCompareModelCloseOnGentleScenario(t *testing.T) {
	// Average many seeds so the measured fractions approach Formula 21's
	// expectation; on a gentle failure scenario the per-portion fractions
	// should land within a few percent.
	p := testParams("40-20-10-5")
	x := []float64{40, 20, 10, 5}
	agg := model.Portions{}
	wall := 0.0
	const runs = 40
	for seed := uint64(1); seed <= runs; seed++ {
		col, _ := runTraced(t, "40-20-10-5", seed, nil)
		rep, err := FromTrace(col.Trace, "sim/attrib-test")
		if err != nil {
			t.Fatal(err)
		}
		pr := rep.Portions()
		agg.Productive += pr.Productive
		agg.Checkpoint += pr.Checkpoint
		agg.Restart += pr.Restart
		agg.Rollback += pr.Rollback
		wall += rep.WallClock
	}
	mean := &Report{WallClock: wall, Work: agg.Productive}
	mc, err := mean.CompareModel(p, x, 5000)
	if err != nil {
		t.Fatal(err)
	}
	measured := model.Portions{
		Productive: agg.Productive / wall,
		Checkpoint: agg.Checkpoint / wall,
		Restart:    agg.Restart / wall,
		Rollback:   agg.Rollback / wall,
	}
	for _, c := range []struct {
		name           string
		got, predicted float64
	}{
		{"productive", measured.Productive, mc.Predicted.Productive},
		{"checkpoint", measured.Checkpoint, mc.Predicted.Checkpoint},
		{"restart", measured.Restart, mc.Predicted.Restart},
		{"rollback", measured.Rollback, mc.Predicted.Rollback},
	} {
		if math.Abs(c.got-c.predicted) > 0.05 {
			t.Errorf("%s: measured fraction %.4f vs model %.4f (tol 0.05)", c.name, c.got, c.predicted)
		}
	}
}
