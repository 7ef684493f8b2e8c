package sim

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/obs"
	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
	"mlckpt/internal/stats"
)

// logUniform draws from [lo, hi) on a log scale.
func logUniform(g *stats.RNG, lo, hi float64) float64 {
	return math.Exp(g.Uniform(math.Log(lo), math.Log(hi)))
}

// randomRefCost draws a checkpoint or recovery cost of up to budget
// seconds at scale n, over every overhead baseline, with no cap or a
// saturation cap below or above n.
func randomRefCost(g *stats.RNG, n, budget float64) overhead.Cost {
	t := g.Uniform(0, budget)
	a := g.Float64()
	c := overhead.Cost{Const: a * t, H: overhead.Baseline(g.Intn(2))}
	if h := c.H.Eval(n); h > 0 {
		c.Coeff = (1 - a) * t / h
	}
	if g.Intn(2) == 0 {
		c.Cap = n * g.Uniform(0.3, 3)
	}
	return c
}

// randomRefX draws level i's interval count: no checkpoints (x = 1),
// whole and fractional counts, counts a hair off a whole number (the 1e-9
// end-of-run tolerance), and multiples of a lower level's count, whose
// marks coincide and exercise the highest-level-wins tie rule.
func randomRefX(g *stats.RNG, x []float64, i int) float64 {
	switch g.Intn(6) {
	case 0:
		return 1
	case 1:
		return g.Uniform(1, 40)
	case 2:
		return float64(2+g.Intn(30)) + (g.Float64()-0.5)*2e-9
	case 3:
		if i > 0 && x[i-1] < 100 {
			return x[i-1] * float64(1+g.Intn(3))
		}
	}
	return float64(1 + g.Intn(60))
}

// randomRefConfig draws a configuration reaching every Config feature:
// 1–5 levels, every overhead baseline with and without a cap, zero-rate
// levels, Weibull arrivals, MaxWallClock truncation, correlated windows,
// replay traces (empty, and with levels outside the hierarchy), and an obs
// collector with ObsMaxEvents 0, 5 and −1. Half the configurations log
// the run's whole trace track (ObsMaxEvents −1), the run's event log.
//
// Costs and rates are drawn against the checkpoint spacing so every run
// finishes in tens to thousands of events: each cost stays below 30%
// of its level's period, and class i expects under 0.4 failures between
// two restore points that cover it. Without that bound a class with no
// covering checkpoint rolls back to scratch at an exponential rate and
// only the 80,000-day horizon ends the run.
func randomRefConfig(g *stats.RNG) Config {
	L := 1 + g.Intn(5)
	n := logUniform(g, 50, 5e4)
	P := logUniform(g, 1e3, 3e5)
	var sp speedup.Model = speedup.Linear{Kappa: 1, MaxScale: 1e6}
	if g.Intn(10) == 0 {
		// Quadratic past its root 2N^(*): g(N) < 0, a bind-time error.
		sp = speedup.Quadratic{Kappa: 1, NStar: n * g.Uniform(0.2, 0.45)}
	}
	x := make([]float64, L)
	for i := range x {
		x[i] = randomRefX(g, x, i)
	}
	if g.Intn(20) == 0 {
		// A long run: thousands of events, past the default trace budget.
		for i := range x {
			x[i] *= 25
		}
	}
	levels := make([]overhead.Level, L)
	for i := range levels {
		levels[i] = overhead.Level{
			Checkpoint: randomRefCost(g, n, 0.3*P/x[i]),
			Recovery:   randomRefCost(g, n, 0.3*P/x[i]),
		}
	}
	baseline := logUniform(g, 100, 1e5)
	perDay := make([]float64, L)
	stretch := 1 + 0.3*float64(L) // wall seconds per progress second, failure-free bound
	cover := 1.0                  // max x_j over j ≥ i: restore points covering class i
	for i := L - 1; i >= 0; i-- {
		cover = math.Max(cover, x[i])
		if g.Intn(4) == 0 {
			continue // a level that never fails
		}
		perSecond := g.Uniform(0, 0.4) / (P / cover * stretch)
		perDay[i] = perSecond * failure.SecondsPerDay * baseline / n
	}
	p := &model.Params{
		Te:      P * n,
		Speedup: sp,
		Levels:  levels,
		Alloc:   g.Uniform(0, 0.3*P/cover),
		Rates:   failure.Rates{PerDay: perDay, Baseline: baseline},
	}
	// A failure during recovery restarts it, so a recovery completes with
	// probability e^−load at recovery load λ·(A + R), and a high load
	// multiplies the events per run. Keep it under 0.3.
	maxRec := 0.0
	for _, lv := range levels {
		maxRec = math.Max(maxRec, 1.5*lv.Recovery.At(n)) // 1.5: the jitter ceiling
	}
	if load := p.Rates.TotalPerSecondAt(n) * (p.Alloc + maxRec); load > 0.3 {
		for i := range perDay {
			perDay[i] *= 0.3 / load
		}
	}
	cfg := Config{Params: p, N: n, X: x}
	if g.Intn(50) == 0 {
		cfg.X[g.Intn(L)] = 0.5 // invalid: Validate fails in bind
	}
	if g.Intn(3) > 0 {
		cfg.JitterRatio = g.Uniform(0, 0.5)
	}
	if g.Intn(4) == 0 {
		cfg.Dist, cfg.WeibullShape = failure.Weibull, g.Uniform(0.5, 2)
	}
	switch g.Intn(4) {
	case 0:
		cfg.MaxWallClock = P * g.Uniform(0.2, 1.5) // often truncates
	case 1:
		cfg.MaxWallClock = P * 50
	}
	if g.Intn(3) == 0 {
		cfg.CorrelationWindow = g.Uniform(0, 0.03*P)
	}
	fullTrack := g.Intn(2) == 0
	switch g.Intn(6) {
	case 0:
		cfg.Replay = []failure.Event{} // replay mode with no failures
	case 1, 2:
		trace := failure.Trace(p.Rates, n, 3*P, failure.Exponential, 0, g.Split())
		for k := range trace {
			if g.Intn(8) == 0 {
				trace[k].Level = L + g.Intn(3) // foreign: clamped to the top class
			} else if g.Intn(16) == 0 {
				trace[k].Level = -1
			}
		}
		cfg.Replay = trace
	}
	switch g.Intn(3) {
	case 0:
		cfg.ObsTrack = "sim/ref"
		cfg.ObsMaxEvents = []int{0, 5, -1}[g.Intn(3)]
	case 1:
		cfg.ObsMaxEvents = 5 // counters only: no track
	}
	if fullTrack {
		cfg.ObsTrack, cfg.ObsMaxEvents = "sim/ref", -1
	}
	return cfg
}

// diffRun runs Run and runRef on the same configuration and seed and
// describes the first difference: the error, any Result field by float64
// bits, the RNG's next draw after the run, and — when withObs, or always
// when the run logs its whole trace track — both collectors' traces and
// metrics snapshots.
func diffRun(cfg Config, seed uint64, withObs bool) string {
	withObs = withObs || cfg.ObsTrack != "" && cfg.ObsMaxEvents < 0
	var colGot, colWant *obs.Collector
	cfgGot, cfgWant := cfg, cfg
	if withObs {
		colGot, colWant = obs.NewCollector(), obs.NewCollector()
		cfgGot.Obs, cfgWant.Obs = colGot, colWant
	}
	rngGot, rngWant := stats.NewRNG(seed), stats.NewRNG(seed)
	got, errGot := Run(cfgGot, rngGot)
	want, errWant := runRef(cfgWant, rngWant)
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		return fmt.Sprintf("error %v, want %v", errGot, errWant)
	}
	if d := diffResult(got, want); d != "" {
		return d
	}
	if a, b := rngGot.Uint64(), rngWant.Uint64(); a != b {
		return fmt.Sprintf("RNG next draw %#x, want %#x", a, b)
	}
	if !withObs {
		return ""
	}
	return diffCollectors(colGot, colWant)
}

// diffCollectors describes the first difference between two collectors'
// traces, event by event with every time and argument compared by float64
// bits, which is stricter than comparing their JSON, and between their
// metrics snapshots.
func diffCollectors(colGot, colWant *obs.Collector) string {
	tracks := colWant.Trace.Tracks()
	if got := colGot.Trace.Tracks(); fmt.Sprint(got) != fmt.Sprint(tracks) {
		return fmt.Sprintf("tracks %q, want %q", got, tracks)
	}
	for _, track := range tracks {
		got, want := colGot.Trace.Events(track), colWant.Trace.Events(track)
		if len(got) != len(want) {
			return fmt.Sprintf("track %s: %d events, want %d", track, len(got), len(want))
		}
		for i, w := range want {
			if !sameEvent(got[i], w) {
				return fmt.Sprintf("track %s event %d = %+v, want %+v", track, i, got[i], w)
			}
		}
	}
	metricsGot, err1 := colGot.Registry.Snapshot().MarshalIndent()
	metricsWant, err2 := colWant.Registry.Snapshot().MarshalIndent()
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("metrics marshal: %v / %v", err1, err2)
	}
	if !bytes.Equal(metricsGot, metricsWant) {
		return fmt.Sprintf("metrics differ:\n%s\nwant:\n%s", metricsGot, metricsWant)
	}
	return ""
}

// sameEvent reports whether two trace events agree in name, phase, and
// every time and argument by float64 bits.
func sameEvent(a, b obs.TrackEvent) bool {
	if a.Name != b.Name || a.Phase != b.Phase || len(a.Args) != len(b.Args) ||
		math.Float64bits(a.TS) != math.Float64bits(b.TS) || math.Float64bits(a.Dur) != math.Float64bits(b.Dur) {
		return false
	}
	for k, v := range a.Args {
		if w, ok := b.Args[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func diffResult(got, want Result) string {
	for _, f := range []struct {
		name string
		a, b float64
	}{
		{"WallClock", got.WallClock, want.WallClock},
		{"Productive", got.Productive, want.Productive},
		{"Checkpoint", got.Checkpoint, want.Checkpoint},
		{"Restart", got.Restart, want.Restart},
		{"Rollback", got.Rollback, want.Rollback},
	} {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.a, f.b)
		}
	}
	if fmt.Sprint(got.Failures) != fmt.Sprint(want.Failures) {
		return fmt.Sprintf("Failures %v, want %v", got.Failures, want.Failures)
	}
	if fmt.Sprint(got.CheckpointsTaken) != fmt.Sprint(want.CheckpointsTaken) {
		return fmt.Sprintf("CheckpointsTaken %v, want %v", got.CheckpointsTaken, want.CheckpointsTaken)
	}
	if got.Absorbed != want.Absorbed || got.Truncated != want.Truncated {
		return fmt.Sprintf("counts %d/%t, want %d/%t",
			got.Absorbed, got.Truncated, want.Absorbed, want.Truncated)
	}
	return ""
}

// TestRunMatchesReference is the differential gate for the bound runner:
// Run against runRef, the closure-based loop it replaced, over random
// configurations reaching every Config feature. Everything must match bit
// for bit — results, the RNG stream after the run and the telemetry both
// emit, which in over half the trials is the run's whole trace track.
func TestRunMatchesReference(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	g := stats.NewRNG(20261017)
	for k := 0; k < trials; k++ {
		seed := g.Uint64()
		cfg := randomRefConfig(stats.NewRNG(seed))
		if d := diffRun(cfg, seed^0x5eed, k%2 == 0); d != "" {
			t.Fatalf("trial %d (generator seed %#x): %s", k, seed, d)
		}
	}
}

// FuzzRunMatchesReference drives the TestRunMatchesReference generator
// from fuzzed seeds, with and without an obs collector.
func FuzzRunMatchesReference(f *testing.F) {
	for _, s := range []uint64{1, 2, 3, 42, 20261017, 0x5eed} {
		f.Add(s, uint64(7), true)
		f.Add(s, s, false)
	}
	f.Fuzz(func(t *testing.T, cfgSeed, runSeed uint64, withObs bool) {
		cfg := randomRefConfig(stats.NewRNG(cfgSeed))
		if d := diffRun(cfg, runSeed, withObs); d != "" {
			t.Fatal(d)
		}
	})
}

// serialRuns is RunMany's contract written as a plain loop: one generator
// per run split from the seed in run order, and only run 0 keeping its
// trace track.
func serialRuns(cfg Config, runs int, seed uint64) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := stats.NewRNG(seed)
	quiet := cfg
	quiet.ObsTrack = ""
	out := make([]Result, runs)
	for i := range out {
		c := quiet
		if i == 0 {
			c = cfg
		}
		var err error
		if out[i], err = Run(c, root.Split()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestRunManyMatchesSerialRuns holds the parallel batch to serialRuns over
// the TestRunMatchesReference generator, at several GOMAXPROCS values:
// the same error, every result by float64 bits with its per-level counts,
// and — with a collector attached — the same trace and metrics snapshot,
// whatever the workers' interleaving.
func TestRunManyMatchesSerialRuns(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 40
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g := stats.NewRNG(20261019)
			for k := 0; k < trials; k++ {
				cfgSeed, seed := g.Uint64(), g.Uint64()
				runs := 1 + g.Intn(12)
				cfg := randomRefConfig(stats.NewRNG(cfgSeed))
				cfgGot, cfgWant := cfg, cfg
				var colGot, colWant *obs.Collector
				if k%2 == 0 {
					colGot, colWant = obs.NewCollector(), obs.NewCollector()
					cfgGot.Obs, cfgWant.Obs = colGot, colWant
				}
				got, errGot := RunMany(cfgGot, runs, seed)
				want, errWant := serialRuns(cfgWant, runs, seed)
				if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
					t.Fatalf("trial %d (config seed %#x): error %v, want %v", k, cfgSeed, errGot, errWant)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d (config seed %#x): %d results, want %d", k, cfgSeed, len(got), len(want))
				}
				for i := range got {
					if d := diffResult(got[i], want[i]); d != "" {
						t.Fatalf("trial %d (config seed %#x) run %d: %s", k, cfgSeed, i, d)
					}
				}
				if colGot == nil {
					continue
				}
				if d := diffCollectors(colGot, colWant); d != "" {
					t.Fatalf("trial %d (config seed %#x): %s", k, cfgSeed, d)
				}
			}
		})
	}
}
