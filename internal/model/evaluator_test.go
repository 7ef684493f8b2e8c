package model

import (
	"math"
	"math/rand"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
)

// opaqueSpeedup hides a model behind a type the Evaluator cannot
// devirtualize, so its interface fallback is exercised.
type opaqueSpeedup struct{ speedup.Model }

// randCoeff draws a cost coefficient, including the zero, negative and
// non-finite values the Evaluator must not hoist wrongly.
func randCoeff(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return -rng.Float64() * 0.05
	case 3:
		return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
	default:
		return rng.Float64() * 0.05
	}
}

// randParams draws a structurally valid Params with randomized speedup
// kind, cost baselines, coefficients, saturation caps, and failure rates.
func randParams(rng *rand.Rand) *Params {
	L := 1 + rng.Intn(5)
	levels := make([]overhead.Level, L)
	baselines := []overhead.Baseline{overhead.Zero, overhead.LinearN}
	randCost := func() overhead.Cost {
		c := overhead.Cost{
			Const: rng.Float64() * 10,
			Coeff: rng.Float64() * 0.05,
			H:     baselines[rng.Intn(len(baselines))],
		}
		if rng.Intn(3) == 0 {
			c.Coeff = randCoeff(rng)
		}
		if rng.Intn(3) == 0 {
			c.Cap = 1e3 + rng.Float64()*1e5
		}
		return c
	}
	for i := range levels {
		levels[i] = overhead.Level{Checkpoint: randCost(), Recovery: randCost()}
	}
	var g speedup.Model
	switch rng.Intn(6) {
	case 0:
		g = speedup.Quadratic{Kappa: 0.1 + rng.Float64(), NStar: 1e4 + rng.Float64()*1e6}
	case 1:
		g = speedup.Linear{Kappa: 0.1 + rng.Float64(), MaxScale: 1e4 + rng.Float64()*1e6}
	case 2:
		g = speedup.Amdahl{SerialFraction: rng.Float64() * 1e-4, MaxScale: 1e4 + rng.Float64()*1e6}
	case 3:
		g = speedup.Gustafson{SerialFraction: rng.Float64() * 0.5, MaxScale: 1e4 + rng.Float64()*1e6}
	case 4:
		g = opaqueSpeedup{speedup.Quadratic{Kappa: 0.1 + rng.Float64(), NStar: 1e4 + rng.Float64()*1e6}}
	default:
		m, err := speedup.NewInterpolated([]speedup.Sample{{N: 1, Speedup: 1}, {N: 1e3, Speedup: 400}, {N: 1e5, Speedup: 9e3}, {N: 1e6, Speedup: 5e3}})
		if err != nil {
			panic(err)
		}
		g = m
	}
	perDay := make([]float64, L)
	for i := range perDay {
		perDay[i] = rng.Float64() * 20
	}
	return &Params{
		Te:      (1 + rng.Float64()*9e5) * failure.SecondsPerDay,
		Speedup: g,
		Levels:  levels,
		Alloc:   rng.Float64() * 120,
		Rates:   failure.Rates{PerDay: perDay, Baseline: 1e6},
	}
}

// randGrid draws scales across the whole plausible range, including the
// edges the scalar path special-cases: 0 and negative scales, the ideal
// scale, scales far enough beyond it that g(N) ≤ 0, and every saturation
// cap exactly.
func randGrid(rng *rand.Rand, p *Params, pts int) []float64 {
	ns := make([]float64, pts)
	ceiling := p.Speedup.IdealScale()
	for i := range ns {
		switch rng.Intn(9) {
		case 0:
			ns[i] = 0
		case 1:
			ns[i] = ceiling
		case 2:
			ns[i] = ceiling * (1 + 2*rng.Float64()) // beyond the peak: g may go <= 0
		case 3:
			ns[i] = -rng.Float64() * 10
		default:
			ns[i] = 1 + rng.Float64()*ceiling
		}
	}
	for _, lv := range p.Levels {
		for _, c := range [2]overhead.Cost{lv.Checkpoint, lv.Recovery} {
			if c.Cap > 0 {
				ns = append(ns, c.Cap, math.Nextafter(c.Cap, 0), math.Nextafter(c.Cap, math.Inf(1)))
			}
		}
	}
	return ns
}

// randIterate draws an (x, b) iterate of length L.
func randIterate(rng *rand.Rand, L int) (x, b []float64) {
	x = make([]float64, L)
	b = make([]float64, L)
	for i := range x {
		x[i] = 1 + rng.Float64()*200
		b[i] = rng.Float64() * 1e-3
	}
	return x, b
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameResult is bit equality, except that any two NaNs match: which NaN an
// operation on two NaN operands returns depends on the operand order the
// compiler picks for each call site, so NaN payloads are not pinned.
func sameResult(a, b float64) bool {
	return bitsEqual(a, b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkEvaluator compares the bound Evaluator with the scalar oracle at
// every scale of ns.
func checkEvaluator(t *testing.T, p *Params, e *Evaluator, x, b, ns []float64) {
	t.Helper()
	mu := make([]float64, len(b))
	for _, n := range ns {
		if got, want := e.GradN(n), p.GradN(x, n, b); !sameResult(got, want) {
			t.Fatalf("GradN(%v) = %v, oracle %v (speedup %v, levels %+v)", n, got, want, p.Speedup, p.Levels)
		}
		for i := range mu {
			mu[i] = b[i] * n
		}
		if got, want := e.WallClock(n), p.WallClock(x, n, mu); !sameResult(got, want) {
			t.Fatalf("WallClock(%v) = %v, oracle %v (speedup %v, levels %+v)", n, got, want, p.Speedup, p.Levels)
		}
	}
}

// TestSlabMatchesScalarBitExact is the oracle contract over a slab of
// scales: GradN and WallClock reproduce Params.GradN and Params.WallClock
// bit for bit at every point of a randomized scale grid, on randomized
// params and iterates, with each Evaluator re-bound to several iterates in
// turn.
func TestSlabMatchesScalarBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		p := randParams(rng)
		e := p.NewEvaluator()
		ns := randGrid(rng, p, 1+rng.Intn(40))
		for bind := 0; bind < 3; bind++ {
			x, b := randIterate(rng, p.L())
			e.Bind(x, b)
			checkEvaluator(t, p, e, x, b, ns)
		}
	}
}

// TestSlabReuse reuses one Evaluator across scale grids of changing size,
// each with a fresh iterate, and walks every grid forwards and backwards,
// so GradN and WallClock interleave at different scales: the per-point
// terms one scale or iterate leaves behind must not leak into the next.
func TestSlabReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		p := randParams(rng)
		e := p.NewEvaluator()
		for _, pts := range []int{4, 2, 64, 1, 33} {
			ns := randGrid(rng, p, pts)
			x, b := randIterate(rng, p.L())
			e.Bind(x, b)
			checkEvaluator(t, p, e, x, b, ns)
			rev := make([]float64, len(ns))
			for i, n := range ns {
				rev[len(ns)-1-i] = n
			}
			checkEvaluator(t, p, e, x, b, rev)
		}
	}
}

// TestEvaluatorCostShapes walks every baseline, and a value that names
// none (it evaluates as Zero), against caps below, at and above the
// evaluated scales, with zero, negative and non-finite coefficients, on
// every level position (so both the hoisted prefix and the per-point tail
// of each Σ_{k≤i} sum see every shape).
func TestEvaluatorCostShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	baselines := []overhead.Baseline{overhead.Zero, overhead.LinearN, overhead.Baseline(2)}
	coeffs := []float64{0, math.Copysign(0, -1), 0.02, -0.02, math.Inf(1), math.Inf(-1), math.NaN()}
	caps := []float64{0, 10, 5e4, 1e6}
	ns := []float64{0, 1, 10, 11, 5e4, 7e4, 1e6, 3e6}
	for _, h := range baselines {
		for _, coeff := range coeffs {
			for _, cp := range caps {
				for pos := 0; pos < 3; pos++ {
					levels := overhead.SymmetricLevels([]overhead.Cost{
						overhead.Constant(1), overhead.Constant(2), overhead.Constant(4),
					}, 0.5)
					levels[pos].Checkpoint = overhead.Cost{Const: 3, Coeff: coeff, H: h, Cap: cp}
					levels[pos].Recovery = overhead.Cost{Const: 1, Coeff: coeff / 2, H: h, Cap: cp}
					p := &Params{
						Te:      1e6 * failure.SecondsPerDay,
						Speedup: speedup.Quadratic{Kappa: 0.46, NStar: 1e6},
						Levels:  levels,
						Alloc:   60,
						Rates:   failure.Rates{PerDay: []float64{8, 4, 2}, Baseline: 1e6},
					}
					e := p.NewEvaluator()
					x, b := randIterate(rng, p.L())
					e.Bind(x, b)
					checkEvaluator(t, p, e, x, b, ns)
				}
			}
		}
	}
}

// TestIntoVariantsMatch pins the allocation-free scalar helpers against the
// allocating originals.
func TestIntoVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		p := randParams(rng)
		n := rng.Float64() * 2e6
		wct := rng.Float64() * 1e7
		dst := make([]float64, p.L())
		p.MuOfNInto(dst, n, wct)
		for i, want := range p.MuOfN(n, wct) {
			if !bitsEqual(dst[i], want) {
				t.Fatalf("MuOfNInto[%d] = %v, want %v", i, dst[i], want)
			}
		}
		p.BOfTInto(dst, wct)
		for i, want := range p.BOfT(wct) {
			if !bitsEqual(dst[i], want) {
				t.Fatalf("BOfTInto[%d] = %v, want %v", i, dst[i], want)
			}
		}
	}
}

// TestEvaluatorZeroAlloc is the steady-state allocation gate: binding and
// evaluating must not allocate (the compiler half of this contract is
// cmd/allocgate).
func TestEvaluatorZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		p := randParams(rng)
		e := p.NewEvaluator()
		x, b := randIterate(rng, p.L())
		steps := map[string]func(){
			"Bind":      func() { e.Bind(x, b) },
			"GradN":     func() { e.GradN(5e4) },
			"WallClock": func() { e.WallClock(5e4) },
			"MuOfNInto": func() { p.MuOfNInto(b, 1e5, 1e6) },
			"BOfTInto":  func() { p.BOfTInto(b, 1e6) },
		}
		for name, fn := range steps {
			if avg := testing.AllocsPerRun(100, fn); avg != 0 {
				t.Errorf("%s allocates %.1f times per call (speedup %v)", name, avg, p.Speedup)
			}
		}
	}
}

// FuzzEvaluatorMatchesScalar drives the Evaluator with fuzzer-chosen
// workload, speedup, allocation period, scale, and one level's cost
// coefficient and cap, and requires bit-identical agreement with the
// scalar oracle.
func FuzzEvaluatorMatchesScalar(f *testing.F) {
	f.Add(int64(1), 3.0e6, 0.46, 1e6, 60.0, 1e5, 0.0212, 262144.0)
	f.Add(int64(7), 1.0, 0.01, 10.0, 0.0, 0.5, 0.0, 0.0)
	f.Add(int64(42), 9e5, 1.4, 5e5, 120.0, 2e6, -0.5, 2e6)
	f.Fuzz(func(t *testing.T, seed int64, teDays, kappa, nstar, alloc, n0, coeff, cap float64) {
		if !(teDays > 0) || !(kappa > 0) || !(nstar > 1) || math.IsInf(teDays, 0) ||
			math.IsInf(nstar, 0) || alloc < 0 || math.IsNaN(alloc) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		p := randParams(rng)
		p.Te = teDays * failure.SecondsPerDay
		if _, ok := p.Speedup.(opaqueSpeedup); ok {
			p.Speedup = opaqueSpeedup{speedup.Quadratic{Kappa: kappa, NStar: nstar}}
		} else {
			p.Speedup = speedup.Quadratic{Kappa: kappa, NStar: nstar}
		}
		p.Alloc = alloc
		lv := &p.Levels[rng.Intn(p.L())]
		lv.Checkpoint.Coeff, lv.Checkpoint.Cap = coeff, cap
		lv.Recovery.Coeff, lv.Recovery.Cap = coeff/2, cap
		ns := append(randGrid(rng, p, 17), n0)
		e := p.NewEvaluator()
		x, b := randIterate(rng, p.L())
		e.Bind(x, b)
		checkEvaluator(t, p, e, x, b, ns)
	})
}

// BenchmarkGradN times one Formula 24 evaluation on the Section IV problem
// (exascale costs, the PFS level saturating at 2^18 cores) through the
// Evaluator and through the scalar oracle, at scales on both sides of the
// cap.
func BenchmarkGradN(b *testing.B) {
	p := paperParams(3e6, "16-12-8-4")
	p.Levels = overhead.SymmetricLevels(overhead.ExascaleCosts(), 0.5)
	x := []float64{800, 300, 120, 40}
	bs := p.BOfT(40 * failure.SecondsPerDay)
	ns := []float64{1e5, 2e5, 3e5, 6e5}
	b.Run("evaluator", func(b *testing.B) {
		e := p.NewEvaluator()
		e.Bind(x, bs)
		for i := 0; i < b.N; i++ {
			gradSink = e.GradN(ns[i&3])
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gradSink = p.GradN(x, ns[i&3], bs)
		}
	})
}

// gradSink keeps BenchmarkGradN's calls from being optimized away.
var gradSink float64
