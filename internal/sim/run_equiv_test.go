package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
	c := overhead.Cost{Const: a * t, H: overhead.Baseline(g.Intn(4))}
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
// event recording, replay traces (empty, and with levels outside the
// hierarchy), and an obs collector with ObsMaxEvents 0, 5 and −1.
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
	cfg.RecordEvents = g.Intn(2) == 0
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
	return cfg
}

// diffRun runs Run and runRef on the same configuration and seed and
// describes the first difference: the error, any Result field by float64
// bits, the recorded events, the RNG's next draw after the run, and —
// when withObs — both collectors' trace JSON and metrics snapshots.
func diffRun(cfg Config, seed uint64, withObs bool) string {
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
	traceGot, err1 := json.Marshal(colGot.Trace)
	traceWant, err2 := json.Marshal(colWant.Trace)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("trace marshal: %v / %v", err1, err2)
	}
	if !bytes.Equal(traceGot, traceWant) {
		return fmt.Sprintf("trace JSON differs:\n%s\nwant:\n%s", traceGot, traceWant)
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
	if len(got.Events) != len(want.Events) || (got.Events == nil) != (want.Events == nil) {
		return fmt.Sprintf("%d events, want %d", len(got.Events), len(want.Events))
	}
	for k, e := range got.Events {
		w := want.Events[k]
		if e.Kind != w.Kind || e.Level != w.Level ||
			math.Float64bits(e.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(e.Progress) != math.Float64bits(w.Progress) {
			return fmt.Sprintf("event %d = %+v, want %+v", k, e, w)
		}
	}
	return ""
}

// TestRunMatchesReference is the differential gate for the bound runner:
// Run against runRef, the closure-based loop it replaced, over random
// configurations reaching every Config feature. Everything must match bit
// for bit — results, recorded events, the RNG stream after the run and
// the telemetry both emit.
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
