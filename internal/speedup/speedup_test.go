package speedup

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mlckpt/internal/numopt"
)

func TestQuadraticShape(t *testing.T) {
	q := Quadratic{Kappa: 0.46, NStar: 1e5}
	if g := q.Speedup(0); g != 0 {
		t.Errorf("g(0) = %g, want 0 (curve passes through origin)", g)
	}
	// Peak at N* with value κN*/2.
	peak := q.Speedup(q.NStar)
	if math.Abs(peak-0.46*1e5/2) > 1e-9 {
		t.Errorf("peak = %g, want %g", peak, 0.46*1e5/2)
	}
	// Derivative is zero at the peak, positive below it.
	if d := q.Derivative(q.NStar); math.Abs(d) > 1e-12 {
		t.Errorf("g'(N*) = %g, want 0", d)
	}
	if d := q.Derivative(q.NStar / 2); d <= 0 {
		t.Errorf("g'(N*/2) = %g, want > 0", d)
	}
}

func TestQuadraticDerivativeMatchesNumeric(t *testing.T) {
	q := Quadratic{Kappa: 0.46, NStar: 1e5}
	for _, n := range []float64{100, 5000, 50000, 99999} {
		analytic := q.Derivative(n)
		numeric := numopt.Derivative(q.Speedup, n)
		if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(analytic)) {
			t.Errorf("at N=%g: analytic %g vs numeric %g", n, analytic, numeric)
		}
	}
}

func TestLinearModel(t *testing.T) {
	l := Linear{Kappa: 0.9, MaxScale: 1e6}
	if g := l.Speedup(1000); g != 900 {
		t.Errorf("g(1000) = %g", g)
	}
	if d := l.Derivative(12345); d != 0.9 {
		t.Errorf("g' = %g", d)
	}
	if l.IdealScale() != 1e6 {
		t.Errorf("IdealScale = %g", l.IdealScale())
	}
}

func TestAmdahlBoundedSpeedup(t *testing.T) {
	a := Amdahl{SerialFraction: 0.01, MaxScale: 1e6}
	if g := a.Speedup(1); math.Abs(g-1) > 1e-12 {
		t.Errorf("g(1) = %g, want 1", g)
	}
	limit := 1 / a.SerialFraction
	if g := a.Speedup(1e9); g > limit {
		t.Errorf("g exceeded Amdahl bound: %g > %g", g, limit)
	}
	// Monotone increasing.
	prev := 0.0
	for n := 1.0; n <= 1e6; n *= 10 {
		g := a.Speedup(n)
		if g <= prev {
			t.Errorf("Amdahl speedup not increasing at N=%g", n)
		}
		prev = g
	}
	for _, n := range []float64{10, 1000, 1e5} {
		analytic := a.Derivative(n)
		numeric := numopt.Derivative(a.Speedup, n)
		if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(analytic)) {
			t.Errorf("Amdahl derivative mismatch at %g: %g vs %g", n, analytic, numeric)
		}
	}
}

func TestGustafson(t *testing.T) {
	g := Gustafson{SerialFraction: 0.05, MaxScale: 1e6}
	if v := g.Speedup(1); math.Abs(v-1) > 1e-12 {
		t.Errorf("g(1) = %g, want 1", v)
	}
	if v := g.Speedup(100); math.Abs(v-(100-0.05*99)) > 1e-12 {
		t.Errorf("g(100) = %g", v)
	}
	if d := g.Derivative(42); d != 0.95 {
		t.Errorf("g' = %g", d)
	}
}

func TestParallelTime(t *testing.T) {
	q := Quadratic{Kappa: 0.46, NStar: 1e5}
	te := 4000.0 * 86400 // 4000 core-days in seconds
	pt := ParallelTime(q, te, 81746)
	if pt <= 0 || math.IsInf(pt, 0) {
		t.Fatalf("parallel time = %g", pt)
	}
	// g(81746) ≈ 22234, so pt ≈ te/22234.
	if math.Abs(pt-te/q.Speedup(81746)) > 1e-9 {
		t.Errorf("ParallelTime inconsistent")
	}
	if !math.IsInf(ParallelTime(q, te, 0), 1) {
		t.Error("zero scale should give infinite time")
	}
}

func TestFitQuadraticRecovery(t *testing.T) {
	want := Quadratic{Kappa: 0.46, NStar: 1e5}
	var samples []Sample
	for n := 1000.0; n <= 90000; n += 2000 {
		samples = append(samples, Sample{N: n, Speedup: want.Speedup(n)})
	}
	got, err := FitQuadratic(samples)
	if err != nil {
		t.Fatalf("FitQuadratic: %v", err)
	}
	if math.Abs(got.Kappa-want.Kappa) > 1e-6 {
		t.Errorf("κ = %g, want %g", got.Kappa, want.Kappa)
	}
	if math.Abs(got.NStar-want.NStar) > 1 {
		t.Errorf("N* = %g, want %g", got.NStar, want.NStar)
	}
	if r2 := GoodnessOfFit(got, samples); r2 < 0.999999 {
		t.Errorf("R² = %g", r2)
	}
}

func TestFitQuadraticLinearData(t *testing.T) {
	// Pure linear data should not produce a bogus nearby peak.
	var samples []Sample
	for n := 1.0; n <= 100; n++ {
		samples = append(samples, Sample{N: n, Speedup: 0.8 * n})
	}
	got, err := FitQuadratic(samples)
	if err != nil {
		t.Fatalf("FitQuadratic: %v", err)
	}
	if got.NStar < 1000 {
		t.Errorf("linear data produced close peak N* = %g", got.NStar)
	}
}

func TestFitQuadraticErrors(t *testing.T) {
	if _, err := FitQuadratic(nil); !errors.Is(err, ErrFit) {
		t.Errorf("err = %v", err)
	}
	// Negative slope data.
	samples := []Sample{{1, -1}, {2, -2}, {3, -3}}
	if _, err := FitQuadratic(samples); !errors.Is(err, ErrFit) {
		t.Errorf("negative-slope fit err = %v", err)
	}
}

func TestFitQuadraticRisingTruncatesAtPeak(t *testing.T) {
	// Eddy_uv-like curve: rises to a peak near N=100, then decays. Fitting
	// the full range would be skewed by the falling tail; the rising fit
	// must place N* near the true peak.
	truth := Quadratic{Kappa: 1.2, NStar: 100}
	var samples []Sample
	for n := 5.0; n <= 100; n += 5 {
		samples = append(samples, Sample{N: n, Speedup: truth.Speedup(n)})
	}
	// Falling tail beyond the peak (communication collapse, steeper than
	// the parabola).
	for n := 110.0; n <= 300; n += 10 {
		samples = append(samples, Sample{N: n, Speedup: truth.Speedup(100) * 100 / n})
	}
	got, err := FitQuadraticRising(samples)
	if err != nil {
		t.Fatalf("FitQuadraticRising: %v", err)
	}
	if math.Abs(got.NStar-100) > 10 {
		t.Errorf("N* = %g, want ≈100", got.NStar)
	}
}

func TestModelStrings(t *testing.T) {
	models := []Model{
		Linear{0.5, 1e6},
		Quadratic{0.46, 1e5},
		Amdahl{0.01, 1e6},
		Gustafson{0.05, 1e6},
	}
	for _, m := range models {
		if m.String() == "" {
			t.Errorf("%T has empty String()", m)
		}
	}
}

// Property: fitted quadratic reproduces samples generated from any valid
// quadratic (κ in (0, 2], N* in [1e3, 1e7]).
func TestFitQuadraticProperty(t *testing.T) {
	prop := func(rawKappa, rawNStar float64) bool {
		kappa := 0.05 + math.Abs(math.Mod(rawKappa, 2))
		nstar := 1e3 + math.Abs(math.Mod(rawNStar, 1e7))
		truth := Quadratic{Kappa: kappa, NStar: nstar}
		var samples []Sample
		for i := 1; i <= 20; i++ {
			n := nstar * float64(i) / 22
			samples = append(samples, Sample{N: n, Speedup: truth.Speedup(n)})
		}
		got, err := FitQuadratic(samples)
		if err != nil {
			return false
		}
		return math.Abs(got.Kappa-kappa) < 1e-4*kappa && math.Abs(got.NStar-nstar) < 1e-3*nstar
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the quadratic speedup is concave — midpoint value above chord.
func TestQuadraticConcaveProperty(t *testing.T) {
	prop := func(a, b float64) bool {
		q := Quadratic{Kappa: 0.46, NStar: 1e5}
		x := math.Abs(math.Mod(a, 1e5))
		y := math.Abs(math.Mod(b, 1e5))
		mid := (x + y) / 2
		return q.Speedup(mid) >= (q.Speedup(x)+q.Speedup(y))/2-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
