package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/numopt"
	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
)

// fig3Model is the Figure 3 setup: Heat Distribution speedup (κ=0.46,
// N^(*)=1e5), 4,000 core-days, b=0.005, A=0.
func fig3Speedup() speedup.Quadratic { return speedup.Quadratic{Kappa: 0.46, NStar: 1e5} }

const (
	fig3Te = 4000.0 * failure.SecondsPerDay
	fig3B  = 0.005
)

// LinearSolution is the closed-form result of the linear-speedup
// single-level model.
type LinearSolution struct {
	X float64 // optimal number of checkpoint intervals (Formula 10)
	N float64 // optimal scale (Formula 11)
}

// SolveSingleLevelLinear computes the closed forms of Section III-C.1 for a
// linear-speedup application with constant checkpoint cost eps0, constant
// recovery cost eta0, allocation period alloc, failure coefficient b
// (μ(N) = b·N) and slope kappa:
//
//	x* = sqrt( b·T_e / (2·κ·ε₀) )        (Formula 10)
//	N* = sqrt( T_e / (κ·b·(η₀ + A)) )    (Formula 11)
//
// The scale is capped at maxScale (linear speedup has no interior optimum of
// its own). te is in seconds.
func SolveSingleLevelLinear(te, kappa, eps0, eta0, alloc, b, maxScale float64) (LinearSolution, error) {
	if te <= 0 || kappa <= 0 || eps0 <= 0 || b <= 0 {
		return LinearSolution{}, fmt.Errorf("%w: need positive te, κ, ε₀, b", model.ErrParams)
	}
	if eta0+alloc <= 0 {
		return LinearSolution{}, fmt.Errorf("%w: η₀ + A must be positive", model.ErrParams)
	}
	s := LinearSolution{
		X: math.Sqrt(b * te / (2 * kappa * eps0)),
		N: math.Sqrt(te / (kappa * b * (eta0 + alloc))),
	}
	if maxScale > 0 && s.N > maxScale {
		s.N = maxScale
	}
	if s.X < 1 {
		s.X = 1
	}
	return s, nil
}

func TestSolveSingleLevelLinearClosedForm(t *testing.T) {
	te := 1000.0 * failure.SecondsPerDay
	kappa, eps0, eta0, alloc, b := 0.5, 10.0, 20.0, 60.0, 1e-4
	s, err := SolveSingleLevelLinear(te, kappa, eps0, eta0, alloc, b, 1e7)
	if err != nil {
		t.Fatalf("SolveSingleLevelLinear: %v", err)
	}
	wantX := math.Sqrt(b * te / (2 * kappa * eps0))
	wantN := math.Sqrt(te / (kappa * b * (eta0 + alloc)))
	if math.Abs(s.X-wantX) > 1e-9 || math.Abs(s.N-wantN) > 1e-9 {
		t.Errorf("got (%g, %g), want (%g, %g)", s.X, s.N, wantX, wantN)
	}
}

func TestSolveSingleLevelLinearIsTrueMinimum(t *testing.T) {
	// The closed form must coincide with a brute-force 2-D grid minimum of
	// Formula (7).
	te := 1000.0 * failure.SecondsPerDay
	kappa, eps0, eta0, alloc, b := 0.5, 10.0, 20.0, 60.0, 1e-4
	s, err := SolveSingleLevelLinear(te, kappa, eps0, eta0, alloc, b, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(x, n float64) float64 {
		return te/(kappa*n) + eps0*(x-1) + b*n*(te/(kappa*n)/(2*x)+eta0+alloc)
	}
	base := obj(s.X, s.N)
	for _, dx := range []float64{0.9, 0.95, 1.05, 1.1} {
		for _, dn := range []float64{0.9, 0.95, 1.05, 1.1} {
			if obj(s.X*dx, s.N*dn) < base-1e-9 {
				t.Errorf("grid point (%g·x*, %g·N*) beats the closed form", dx, dn)
			}
		}
	}
}

func TestSolveSingleLevelLinearCapsAtMaxScale(t *testing.T) {
	s, err := SolveSingleLevelLinear(1e9, 0.5, 10, 20, 0, 1e-9, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5000 {
		t.Errorf("N = %g, want capped 5000", s.N)
	}
}

func TestSolveSingleLevelLinearRejectsBadInput(t *testing.T) {
	if _, err := SolveSingleLevelLinear(0, 1, 1, 1, 1, 1, 0); !errors.Is(err, model.ErrParams) {
		t.Errorf("err = %v", err)
	}
	if _, err := SolveSingleLevelLinear(1, 1, 1, 0, 0, 1, 0); !errors.Is(err, model.ErrParams) {
		t.Errorf("η₀+A=0 err = %v", err)
	}
}

// TestFigure3ConstantCost reproduces the paper's numerical confirmation:
// with C(N)=R(N)=5 s the optimal solution is x*=797, N*=81,746
// (Section III-C.2).
func TestFigure3ConstantCost(t *testing.T) {
	s, err := SolveSingleLevelFixedB(fig3Te, fig3Speedup(),
		overhead.Constant(5), overhead.Constant(5), 0, fig3B, 100000, 1e-6, 10000)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(s.X-797) > 2 {
		t.Errorf("x* = %.1f, want ≈797", s.X)
	}
	if math.Abs(s.N-81746) > 120 {
		t.Errorf("N* = %.0f, want ≈81,746", s.N)
	}
}

// TestFigure3LinearCost reproduces the linear-increasing-cost case:
// C(N)=R(N)=5+0.005N gives x*=140, N*=20,215.
func TestFigure3LinearCost(t *testing.T) {
	c := overhead.LinearCost(5, 0.005)
	s, err := SolveSingleLevelFixedB(fig3Te, fig3Speedup(), c, c, 0, fig3B, 100000, 1e-6, 10000)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(s.X-140) > 2 {
		t.Errorf("x* = %.1f, want ≈140", s.X)
	}
	if math.Abs(s.N-20215) > 120 {
		t.Errorf("N* = %.0f, want ≈20,215", s.N)
	}
}

// TestFigure3IsMinimum sweeps the single-level objective around the solved
// point, confirming it is the 2-D minimum (what Figure 3 shows graphically).
func TestFigure3IsMinimum(t *testing.T) {
	g := fig3Speedup()
	c := overhead.Constant(5)
	s, err := SolveSingleLevelFixedB(fig3Te, g, c, c, 0, fig3B, 100000, 1e-6, 10000)
	if err != nil {
		t.Fatal(err)
	}
	base := model.SingleLevelWallClock(fig3Te, g, c, c, 0, fig3B, s.X, s.N)
	for _, fx := range []float64{0.5, 0.8, 1.25, 2} {
		v := model.SingleLevelWallClock(fig3Te, g, c, c, 0, fig3B, s.X*fx, s.N)
		if v < base {
			t.Errorf("x sweep %gx beats optimum: %g < %g", fx, v, base)
		}
	}
	for _, fn := range []float64{0.5, 0.8, 1.2, 1.22} {
		n := s.N * fn
		if n > g.IdealScale() {
			continue
		}
		v := model.SingleLevelWallClock(fig3Te, g, c, c, 0, fig3B, s.X, n)
		if v < base {
			t.Errorf("N sweep %gx beats optimum: %g < %g", fn, v, base)
		}
	}
}

func TestSolveSingleLevelFixedBFastConvergence(t *testing.T) {
	// The paper reports 30–40 iterations from x⁰=100,000 at threshold 1e-6.
	s, err := SolveSingleLevelFixedB(fig3Te, fig3Speedup(),
		overhead.Constant(5), overhead.Constant(5), 0, fig3B, 100000, 1e-6, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iterations > 100 {
		t.Errorf("converged in %d iterations; paper reports 30–40", s.Iterations)
	}
}

func TestSolveSingleLevelFixedBNoFailuresUsesIdealScale(t *testing.T) {
	// Tiny b: no interior root of Formula (17); the solver must return
	// N^(*) (the "very few failures" case discussed after Formula 17).
	s, err := SolveSingleLevelFixedB(fig3Te, fig3Speedup(),
		overhead.Constant(5), overhead.Constant(5), 0, 1e-12, 100000, 1e-6, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if s.N < 0.999e5 {
		t.Errorf("N* = %g, want ≈ the ideal scale 1e5", s.N)
	}
}

// paperParams builds the Section IV evaluation problem: exascale Table II
// costs (level-4 saturating; see overhead.ExascaleCosts), recovery at half
// the checkpoint cost, allocation period 60 s.
func paperParams(teCoreDays float64, spec string) *model.Params {
	return &model.Params{
		Te:      teCoreDays * failure.SecondsPerDay,
		Speedup: speedup.Quadratic{Kappa: 0.46, NStar: 1e6},
		Levels:  overhead.SymmetricLevels(overhead.ExascaleCosts(), 0.5),
		Alloc:   60,
		Rates:   failure.MustParseRates(spec, 1e6),
	}
}

func TestOptimizeConvergesQuickly(t *testing.T) {
	p := paperParams(3e6, "16-12-8-4")
	sol, err := Optimize(p, Options{OuterTol: 1e-12})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !sol.Converged {
		t.Fatal("not converged")
	}
	// Paper: 7–15 outer iterations at δ=1e-12.
	if sol.OuterIterations > 40 {
		t.Errorf("outer iterations = %d, expected < 40", sol.OuterIterations)
	}
	if len(sol.X) != 4 || sol.N <= 0 {
		t.Fatalf("malformed solution: %+v", sol)
	}
}

func TestOptimizeStationarity(t *testing.T) {
	// At the converged solution, the analytic gradients must vanish (or N
	// must sit at the boundary).
	p := paperParams(3e6, "16-12-8-4")
	sol, err := Optimize(p, Options{OuterTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	b := p.BOfT(sol.WallClock)
	mu := make([]float64, len(b))
	for i := range b {
		mu[i] = b[i] * sol.N
	}
	for i := range sol.X {
		g := p.GradX(sol.X, sol.N, mu, i)
		// Scale-free check: gradient times x_i relative to wall clock.
		rel := math.Abs(g) * sol.X[i] / sol.WallClock
		if rel > 1e-3 {
			t.Errorf("∂E/∂x_%d = %g (relative %g) at optimum", i+1, g, rel)
		}
	}
	if sol.N < p.Speedup.IdealScale()-1 {
		gn := p.GradN(sol.X, sol.N, b)
		rel := math.Abs(gn) * sol.N / sol.WallClock
		if rel > 1e-2 {
			t.Errorf("∂E/∂N = %g (relative %g) at interior optimum", gn, rel)
		}
	}
}

func TestOptimizeBeatsNeighborhood(t *testing.T) {
	// The converged (x, N) must beat perturbed schedules under the
	// self-consistent wall-clock evaluation.
	p := paperParams(3e6, "16-12-8-4")
	sol, err := Optimize(p, Options{OuterTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	eval := func(x []float64, n float64) float64 {
		// Self-consistent wall clock: iterate T = WallClock(x, n, λ(n)·T).
		tEst := p.ProductiveTime(n)
		for k := 0; k < 200; k++ {
			next := p.WallClock(x, n, p.MuOfN(n, tEst))
			if math.Abs(next-tEst) < 1e-9*tEst {
				return next
			}
			tEst = next
		}
		return tEst
	}
	base := eval(sol.X, sol.N)
	if math.Abs(base-sol.WallClock)/base > 0.01 {
		t.Errorf("reported wall clock %g vs self-consistent %g", sol.WallClock, base)
	}
	for _, scale := range []float64{0.7, 0.9, 1.1, 1.3} {
		xx := append([]float64(nil), sol.X...)
		for i := range xx {
			xx[i] *= scale
		}
		if v := eval(xx, sol.N); v < base-1e-6*base {
			t.Errorf("interval perturbation %gx wins: %g < %g", scale, v, base)
		}
		n2 := sol.N * scale
		if n2 <= p.Speedup.IdealScale() {
			if v := eval(sol.X, n2); v < base-1e-6*base {
				t.Errorf("scale perturbation %gx wins: %g < %g", scale, v, base)
			}
		}
	}
}

func TestOptimizedScaleBelowIdeal(t *testing.T) {
	// Key paper finding: the optimized scale is 40–95% below N^(*) under
	// the Table II costs (Table III).
	for _, spec := range []string{"16-12-8-4", "8-6-4-2", "4-3-2-1", "16-8-4-2", "8-4-2-1", "4-2-1-0.5"} {
		p := paperParams(3e6, spec)
		sol, err := Optimize(p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		frac := sol.N / 1e6
		if frac >= 1 {
			t.Errorf("%s: optimized scale %g not below N^(*)", spec, sol.N)
		}
		if frac < 0.05 {
			t.Errorf("%s: optimized scale %g implausibly small", spec, sol.N)
		}
	}
}

func TestOptimizeScaleMonotoneInFailureRate(t *testing.T) {
	// Higher failure rates should push the optimum to smaller scales
	// (Table III: 472k for 16-12-8-4 vs 734k for 4-2-1-0.5).
	pHigh := paperParams(3e6, "16-12-8-4")
	pLow := paperParams(3e6, "4-2-1-0.5")
	sHigh, err := Optimize(pHigh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sLow, err := Optimize(pLow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sHigh.N >= sLow.N {
		t.Errorf("scale not monotone: high-rate N=%g >= low-rate N=%g", sHigh.N, sLow.N)
	}
}

func TestOptimizeFixedN(t *testing.T) {
	p := paperParams(3e6, "16-12-8-4")
	sol, err := Optimize(p, Options{FixedN: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if sol.N != 1e6 {
		t.Errorf("FixedN ignored: N = %g", sol.N)
	}
	// Joint optimization must beat the pinned-scale variant.
	opt, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.WallClock >= sol.WallClock {
		t.Errorf("ML(opt-scale) %g not better than ML(ori-scale) %g", opt.WallClock, sol.WallClock)
	}
}

func TestOptimizeIntervalOrdering(t *testing.T) {
	// Cheaper levels with higher failure rates should checkpoint more
	// often: x_1 >= x_2 >= x_3 >= x_4 for the paper's scenarios.
	p := paperParams(3e6, "16-12-8-4")
	sol, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sol.X); i++ {
		if sol.X[i] > sol.X[i-1]*1.001 {
			t.Errorf("interval counts not decreasing: x=%v", sol.X)
		}
	}
}

func TestOptimizeNumericGradNAblation(t *testing.T) {
	p := paperParams(3e6, "16-12-8-4")
	analytic, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := Optimize(p, Options{NumericGradN: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic.N-numeric.N)/analytic.N > 0.01 {
		t.Errorf("analytic N=%g vs numeric N=%g", analytic.N, numeric.N)
	}
	if math.Abs(analytic.WallClock-numeric.WallClock)/analytic.WallClock > 0.01 {
		t.Errorf("analytic WCT=%g vs numeric WCT=%g", analytic.WallClock, numeric.WallClock)
	}
}

func TestOptimizeExtremeRatesStillConverges(t *testing.T) {
	// The paper notes 40 failures/day is "already very high" and still
	// converges. Push to 80/day total.
	p := paperParams(3e6, "32-24-16-8")
	sol, err := Optimize(p, Options{})
	if err != nil {
		t.Fatalf("extreme rates: %v", err)
	}
	if !sol.Converged {
		t.Error("not converged at high rates")
	}
}

func TestOptimizeInvalidParams(t *testing.T) {
	p := paperParams(3e6, "16-12-8-4")
	p.Te = -1
	if _, err := Optimize(p, Options{}); !errors.Is(err, model.ErrParams) {
		t.Errorf("err = %v", err)
	}
}

func TestSingleLevelParams(t *testing.T) {
	p := paperParams(3e6, "16-12-8-4")
	sl := SingleLevelParams(p)
	if sl.L() != 1 {
		t.Fatalf("levels = %d", sl.L())
	}
	if sl.Rates.PerDay[0] != 40 {
		t.Errorf("folded rate = %g, want 40", sl.Rates.PerDay[0])
	}
	// Top-level (PFS) cost models carried over.
	if sl.Levels[0].Checkpoint.At(1e6) != p.Levels[3].Checkpoint.At(1e6) {
		t.Error("top-level cost not preserved")
	}
	// Original params untouched.
	if p.L() != 4 {
		t.Error("caller's params mutated")
	}
}

func TestPolicySolveOrdering(t *testing.T) {
	// Figure 5's headline on the analytic model: ML(opt-scale) beats both
	// ML(ori-scale) and SL(opt-scale). SL(ori-scale) is excluded here: its
	// classic-Young estimate is first-order (no failure-count refresh) and
	// not comparable analytically — the simulator comparison in
	// internal/experiments covers it.
	p := paperParams(3e6, "16-12-8-4")
	wct := map[Policy]float64{}
	for _, pol := range Policies {
		sol, err := pol.Solve(p, Options{})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		wct[pol] = sol.WallClock
	}
	if !(wct[MLOptScale] < wct[MLOriScale]) {
		t.Errorf("ML(opt) %g !< ML(ori) %g", wct[MLOptScale], wct[MLOriScale])
	}
	if !(wct[MLOptScale] < wct[SLOptScale]) {
		t.Errorf("ML(opt) %g !< SL(opt) %g", wct[MLOptScale], wct[SLOptScale])
	}
}

func TestSLOriScaleIsClassicYoung(t *testing.T) {
	// The SL(ori-scale) baseline must pin N at N^(*) and produce the
	// Young interval count computed from the failure-free productive time.
	p := paperParams(3e6, "16-12-8-4")
	sol, err := SLOriScale.Solve(p, Options{})
	if err != nil {
		t.Fatalf("SLOriScale: %v", err)
	}
	if sol.N != 1e6 {
		t.Errorf("N = %g, want pinned 1e6", sol.N)
	}
	sl := SingleLevelParams(p)
	pt := sl.ProductiveTime(1e6)
	mu := sl.MuOfN(1e6, pt)
	want := sl.YoungX(1e6, mu, 0)
	if math.Abs(sol.X[0]-want)/want > 0.01 {
		t.Errorf("x = %g, want Young %g", sol.X[0], want)
	}
}

func TestPolicyExpandX(t *testing.T) {
	p := paperParams(3e6, "16-12-8-4")
	slSol, err := SLOptScale.Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := SLOptScale.ExpandX(p, slSol)
	if len(x) != 4 {
		t.Fatalf("expanded length %d", len(x))
	}
	if x[0] != 1 || x[1] != 1 || x[2] != 1 {
		t.Errorf("lower levels should have x=1 (no checkpoints): %v", x)
	}
	if x[3] != slSol.X[0] {
		t.Errorf("top level x = %g, want %g", x[3], slSol.X[0])
	}
	mlSol, err := MLOptScale.Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mx := MLOptScale.ExpandX(p, mlSol)
	if len(mx) != 4 {
		t.Errorf("multilevel expand length %d", len(mx))
	}
}

func TestPolicyStrings(t *testing.T) {
	names := map[Policy]string{
		MLOptScale: "ML(opt-scale)",
		SLOptScale: "SL(opt-scale)",
		MLOriScale: "ML(ori-scale)",
		SLOriScale: "SL(ori-scale)",
	}
	for pol, want := range names {
		if pol.String() != want {
			t.Errorf("%d.String() = %q, want %q", pol, pol.String(), want)
		}
	}
}

func TestSolutionRounding(t *testing.T) {
	s := Solution{X: []float64{796.6, 0.2}, N: 81745.7}
	iv := s.Intervals()
	if iv[0] != 797 || iv[1] != 1 {
		t.Errorf("Intervals = %v", iv)
	}
	if s.Scale() != 81746 {
		t.Errorf("Scale = %d", s.Scale())
	}
}

func TestGradNConsistencyAtSolution(t *testing.T) {
	// The analytic and numeric scale gradients agree along the solve path.
	p := paperParams(3e6, "8-6-4-2")
	sol, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := p.BOfT(sol.WallClock)
	f := func(n float64) float64 {
		mu := make([]float64, len(b))
		for i := range b {
			mu[i] = b[i] * n
		}
		return p.WallClock(sol.X, n, mu)
	}
	for _, n := range []float64{sol.N * 0.5, sol.N, sol.N * 1.2} {
		if n >= p.Speedup.IdealScale() {
			continue
		}
		an := p.GradN(sol.X, n, b)
		nu := numopt.DerivativeStep(f, n, 1.0)
		if math.Abs(an-nu) > 1e-3*(1+math.Abs(an)) {
			t.Errorf("gradient mismatch at N=%g: %g vs %g", n, an, nu)
		}
	}
}
