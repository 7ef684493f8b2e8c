package failure

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mlckpt/internal/stats"
)

func TestParseRates(t *testing.T) {
	r, err := ParseRates("16-12-8-4", 1e6)
	if err != nil {
		t.Fatalf("ParseRates: %v", err)
	}
	if r.Levels() != 4 {
		t.Fatalf("levels = %d", r.Levels())
	}
	want := []float64{16, 12, 8, 4}
	for i, w := range want {
		if r.PerDay[i] != w {
			t.Errorf("level %d rate = %g, want %g", i+1, r.PerDay[i], w)
		}
	}
	if s := rateSpec(r); s != "16-12-8-4" {
		t.Errorf("rateSpec = %q", s)
	}
}

func TestParseRatesFractional(t *testing.T) {
	r, err := ParseRates("4-2-1-0.5", 1e6)
	if err != nil {
		t.Fatalf("ParseRates: %v", err)
	}
	if r.PerDay[3] != 0.5 {
		t.Errorf("level 4 rate = %g", r.PerDay[3])
	}
}

func TestParseRatesErrors(t *testing.T) {
	cases := []struct {
		spec     string
		baseline float64
	}{
		{"", 1e6},
		{"1-x-3", 1e6},
		{"1--3", 1e6},
		{"1-2", 0},
		{"-1-2", 1e6},
	}
	for _, tc := range cases {
		if _, err := ParseRates(tc.spec, tc.baseline); !errors.Is(err, ErrSpec) {
			t.Errorf("ParseRates(%q, %g) err = %v, want ErrSpec", tc.spec, tc.baseline, err)
		}
	}
}

func TestMustParseRatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseRates did not panic on bad input")
		}
	}()
	MustParseRates("bad", 1e6)
}

func TestRateScaling(t *testing.T) {
	r := MustParseRates("8-4-2-1", 1e6)
	// At the baseline scale the per-second rate is PerDay/86400.
	if got, want := r.PerSecondAt(0, 1e6), 8.0/86400; math.Abs(got-want) > 1e-15 {
		t.Errorf("PerSecondAt baseline = %g, want %g", got, want)
	}
	// Failure rates increase proportionally with the number of cores.
	if got, want := r.PerSecondAt(0, 5e5), 4.0/86400; math.Abs(got-want) > 1e-15 {
		t.Errorf("PerSecondAt half scale = %g, want %g", got, want)
	}
	// Total is the sum over levels — the single-level model's rate.
	if got, want := r.TotalPerSecondAt(1e6), 15.0/86400; math.Abs(got-want) > 1e-15 {
		t.Errorf("TotalPerSecondAt = %g, want %g", got, want)
	}
}

func TestExpectedFailures(t *testing.T) {
	r := MustParseRates("16-12-8-4", 1e6)
	// One day at baseline scale: μ_1 = 16.
	if got := r.ExpectedFailures(0, 1e6, SecondsPerDay); math.Abs(got-16) > 1e-12 {
		t.Errorf("μ_1 = %g, want 16", got)
	}
	// Half scale halves the expectation.
	if got := r.ExpectedFailures(3, 5e5, SecondsPerDay); math.Abs(got-2) > 1e-12 {
		t.Errorf("μ_4 at 500k = %g, want 2", got)
	}
}

func TestTraceRateRecovery(t *testing.T) {
	r := MustParseRates("16-12-8-4", 1e6)
	rng := stats.NewRNG(99)
	horizon := 30 * SecondsPerDay
	events := Trace(r, 1e6, horizon, Exponential, 0, rng)
	counts := make([]float64, 4)
	for _, e := range events {
		counts[e.Level]++
	}
	for i, want := range []float64{16, 12, 8, 4} {
		perDay := counts[i] / 30
		if math.Abs(perDay-want) > 0.15*want {
			t.Errorf("level %d empirical rate %.2f/day, want %g/day", i+1, perDay, want)
		}
	}
	// Trace must be sorted.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("trace not sorted")
		}
	}
}

func TestTraceZeroRateLevelNeverFires(t *testing.T) {
	r := MustParseRates("4-0-2", 1e6)
	rng := stats.NewRNG(7)
	events := Trace(r, 1e6, 100*SecondsPerDay, Exponential, 0, rng)
	for _, e := range events {
		if e.Level == 1 {
			t.Fatal("zero-rate level produced an event")
		}
	}
}

func TestTraceWeibullMeanMatchesExponential(t *testing.T) {
	r := MustParseRates("24", 1e6)
	expN := len(Trace(r, 1e6, 100*SecondsPerDay, Exponential, 0, stats.NewRNG(1)))
	weiN := len(Trace(r, 1e6, 100*SecondsPerDay, Weibull, 0.7, stats.NewRNG(2)))
	// Same mean interarrival: counts should agree within sampling noise.
	if math.Abs(float64(expN-weiN)) > 0.15*float64(expN) {
		t.Errorf("exponential %d vs weibull %d events over equal horizon", expN, weiN)
	}
}

func TestProcessNextOrdering(t *testing.T) {
	r := MustParseRates("16-12-8-4", 1e6)
	p := NewProcess(r, 1e6, Exponential, 0, stats.NewRNG(5))
	prev := 0.0
	for i := 0; i < 1000; i++ {
		ev, ok := p.Next(prev)
		if !ok {
			t.Fatal("process dried up")
		}
		if ev.Time < prev {
			t.Fatalf("event %d at %g before horizon %g", i, ev.Time, prev)
		}
		if ev.Level < 0 || ev.Level > 3 {
			t.Fatalf("bad level %d", ev.Level)
		}
		prev = ev.Time
	}
}

func TestProcessAllZeroRates(t *testing.T) {
	r := MustParseRates("0-0", 1e6)
	p := NewProcess(r, 1e6, Exponential, 0, stats.NewRNG(5))
	if _, ok := p.Next(0); ok {
		t.Error("zero-rate process produced an event")
	}
}

func TestProcessEmpiricalRates(t *testing.T) {
	r := MustParseRates("8-4", 1e6)
	p := NewProcess(r, 1e6, Exponential, 0, stats.NewRNG(11))
	horizon := 200 * SecondsPerDay
	counts := [2]float64{}
	t0 := 0.0
	for {
		ev, ok := p.Next(t0)
		if !ok || ev.Time > horizon {
			break
		}
		counts[ev.Level]++
		t0 = ev.Time
	}
	if math.Abs(counts[0]/200-8) > 1 {
		t.Errorf("level 1 rate %.2f/day, want 8", counts[0]/200)
	}
	if math.Abs(counts[1]/200-4) > 0.8 {
		t.Errorf("level 2 rate %.2f/day, want 4", counts[1]/200)
	}
}

func TestDistributionString(t *testing.T) {
	if Exponential.String() != "exponential" || Weibull.String() != "weibull" {
		t.Error("distribution names wrong")
	}
}

// Property: interarrival times from Process at any positive scale are
// strictly positive and finite when at least one rate is positive.
func TestProcessProperty(t *testing.T) {
	prop := func(seed uint64, scaleRaw float64) bool {
		scale := 1e3 + math.Abs(math.Mod(scaleRaw, 1e6))
		r := MustParseRates("2-1", 1e6)
		p := NewProcess(r, scale, Exponential, 0, stats.NewRNG(seed))
		t0 := 0.0
		for i := 0; i < 50; i++ {
			ev, ok := p.Next(t0)
			if !ok || ev.Time < t0 || math.IsInf(ev.Time, 0) {
				return false
			}
			t0 = ev.Time
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: doubling the scale roughly doubles the event count over a long
// horizon (rates proportional to N).
func TestRateProportionalityProperty(t *testing.T) {
	r := MustParseRates("8-4-2-1", 1e6)
	n1 := len(Trace(r, 5e5, 100*SecondsPerDay, Exponential, 0, stats.NewRNG(21)))
	n2 := len(Trace(r, 1e6, 100*SecondsPerDay, Exponential, 0, stats.NewRNG(22)))
	ratio := float64(n2) / float64(n1)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("scale doubling produced event ratio %.2f, want ≈2", ratio)
	}
}

// TestProcessMatchesUnboundRates pins Process, which binds λ_i(N) once at
// construction, to the unbound formula: a reference loop beside it draws
// every arrival at r.PerSecondAt(i, n) from its own RNG at the same seed —
// exponential arrivals through stats.RNG.Exponential, which interarrival
// writes out, Weibull ones through interarrival. The simulator's oracle
// calls the same Process, so this test is what holds the sampler itself.
// Events, the no-event flag and the RNG stream after the last step must
// be identical, including steps whose horizon skips past pending
// arrivals.
func TestProcessMatchesUnboundRates(t *testing.T) {
	specs := []string{"16-12-8-4", "4-0-2-0", "0-0-0", "0.5", "1000-0.001-3"}
	scales := []float64{1, 64, 1024, 5e5, 3e6}
	for _, spec := range specs {
		r := MustParseRates(spec, 1024)
		for _, n := range scales {
			for _, dist := range []Distribution{Exponential, Weibull} {
				shape := 0.0
				if dist == Weibull {
					shape = 0.7
				}
				seed := uint64(len(spec))*1000 + uint64(n)
				rng, refRNG := stats.NewRNG(seed), stats.NewRNG(seed)
				proc := NewProcess(r, n, dist, shape, rng)
				draw := func(rate float64) float64 {
					if dist == Exponential {
						return refRNG.Exponential(rate)
					}
					return interarrival(refRNG, rate, dist, shape)
				}
				next := make([]float64, r.Levels())
				for i := range next {
					next[i] = draw(r.PerSecondAt(i, n))
				}
				horizon := stats.NewRNG(seed + 1)
				from := 0.0
				for step := 0; step < 300; step++ {
					got, gotOK := proc.Next(from)
					best, lvl := math.Inf(1), -1
					for i, at := range next {
						if at < best {
							best, lvl = at, i
						}
					}
					wantOK := lvl >= 0 && !math.IsInf(best, 1)
					var want Event
					if wantOK {
						want = Event{Time: best, Level: lvl}
						next[lvl] = best + draw(r.PerSecondAt(lvl, n))
						if want.Time < from {
							want.Time = from
						}
					}
					if gotOK != wantOK || got.Level != want.Level ||
						math.Float64bits(got.Time) != math.Float64bits(want.Time) {
						t.Fatalf("%s n=%g %v step %d: Next(%g) = %+v %t, want %+v %t",
							spec, n, dist, step, from, got, gotOK, want, wantOK)
					}
					if !gotOK {
						break
					}
					from = got.Time
					if horizon.Intn(4) == 0 {
						// Skip ahead: later arrivals re-issue at the horizon.
						from += horizon.Exponential(r.TotalPerSecondAt(n))
					}
				}
				if a, b := rng.Uint64(), refRNG.Uint64(); a != b {
					t.Fatalf("%s n=%g %v: RNG next draw %#x, want %#x", spec, n, dist, a, b)
				}
			}
		}
	}
}

// TestProcessNextMatchesArgmin holds Next's mask-based selection to the
// strict-< argmin it replaced (lowest level wins a tie, +Inf never fires)
// on crafted arrival vectors: ties, +Inf and zero-rate levels, all levels
// at +Inf, arrivals of 0 and arrivals across magnitudes from subnormal to
// MaxFloat64, then on random vectors built from those values. It also
// checks the precondition the bit compare rests on: every arrival that
// NewProcess and Next hold under exponential and Weibull draws is +0 or
// more (sign bit clear) and never NaN.
func TestProcessNextMatchesArgmin(t *testing.T) {
	inf := math.Inf(1)
	argmin := func(next []float64) (float64, int) {
		best, lvl := inf, -1
		for i, at := range next {
			if at < best {
				best, lvl = at, i
			}
		}
		return best, lvl
	}
	check := func(next, rate []float64, from float64) {
		t.Helper()
		p := &Process{rng: stats.NewRNG(1), next: append([]float64(nil), next...), rate: rate}
		best, lvl := argmin(next)
		ev, ok := p.Next(from)
		if ok != (lvl >= 0) {
			t.Fatalf("Next(%g) over %v: ok %t, want level %d", from, next, ok, lvl)
		}
		if !ok {
			return
		}
		want := math.Max(best, from)
		if ev.Level != lvl || math.Float64bits(ev.Time) != math.Float64bits(want) {
			t.Fatalf("Next(%g) over %v = %+v, want level %d at %v", from, next, ev, lvl, want)
		}
		if rate[lvl] <= 0 && !math.IsInf(p.next[lvl], 1) {
			t.Fatalf("zero-rate level %d rescheduled at %v", lvl, p.next[lvl])
		}
		for i := range next {
			if i != lvl && math.Float64bits(p.next[i]) != math.Float64bits(next[i]) {
				t.Fatalf("level %d moved from %v to %v", i, next[i], p.next[i])
			}
		}
	}
	ones := func(n int) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = 1
		}
		return r
	}
	for _, next := range [][]float64{
		{5, 3, 3, 7},               // tie: the lower level wins
		{2, 2, 2, 2},               //
		{inf, 4, 4},                //
		{inf, 9, inf, 1},           // +Inf levels
		{inf, inf},                 // nothing can fail
		{inf},                      //
		{},                         // no levels
		{0, 0, 1},                  // arrivals at 0
		{5, 0},                     //
		{1e300, 5e-324, 1e-300, 1}, // across magnitudes, subnormal smallest
		{math.MaxFloat64, inf},     //
		{1e15 + 0.125, 1e15, 1e15}, // one ulp apart
		{math.Nextafter(2, 3), 2},  //
		{3, math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64},
	} {
		check(next, ones(len(next)), 0)
		check(next, ones(len(next)), 4) // re-issued at a later horizon
		zero := ones(len(next))
		for i := range zero {
			zero[i] = float64(i % 2) // every other level never fails again
		}
		check(next, zero, 0)
	}
	pool := []float64{0, 5e-324, 1e-300, 0.5, 1, 1, 2, 1e15, 1e300, math.MaxFloat64, inf, inf}
	g := stats.NewRNG(20261019)
	for k := 0; k < 5000; k++ {
		next := make([]float64, 1+g.Intn(6))
		rate := make([]float64, len(next))
		for i := range next {
			next[i] = pool[g.Intn(len(pool))]
			rate[i] = float64(g.Intn(3)) // zero for a third of the levels
		}
		check(next, rate, 0)
	}

	// The precondition, over rates from zero to far past any run's and
	// Weibull shapes on both sides of 1.
	rates := Rates{PerDay: []float64{0, 1e-6, 16, 1e6, 1e12}, Baseline: 1}
	for _, dist := range []Distribution{Exponential, Weibull} {
		for _, shape := range []float64{0.3, 0.7, 1, 2, 8} {
			if dist == Exponential && shape != 1 {
				continue
			}
			p := NewProcess(rates, 1, dist, shape, stats.NewRNG(uint64(shape*10)))
			for step := 0; step < 2000; step++ {
				for i, at := range p.next {
					if math.IsNaN(at) || math.Signbit(at) {
						t.Fatalf("%v shape %g step %d: level %d arrival %v", dist, shape, step, i, at)
					}
				}
				if _, ok := p.Next(0); !ok {
					t.Fatalf("%v shape %g step %d: process dried up", dist, shape, step)
				}
			}
		}
	}
}
