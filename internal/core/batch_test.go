package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/obs"
	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
)

// batchSpecs builds a spread of problem instances across failure regimes,
// level counts, speedup kinds, and option variants — wide enough to
// exercise cost caps, FixedN, SinglePass, Aitken, and both convergent and
// hard instances.
func batchSpecs() []Problem {
	rng := rand.New(rand.NewSource(11))
	var out []Problem
	for _, spec := range []string{"16-12-8-4", "160-120-80-40", "1-1-1-1", "320-240-160-80"} {
		out = append(out, Problem{
			Params: &model.Params{
				Te:      3e6 * failure.SecondsPerDay,
				Speedup: speedup.Quadratic{Kappa: 0.46, NStar: 1e6},
				Levels:  overhead.SymmetricLevels(overhead.ExascaleCosts(), 0.5),
				Alloc:   60,
				Rates:   failure.MustParseRates(spec, 1e6),
			},
			Opts: Options{OuterTol: 1e-12},
		})
	}
	// Option variants on the paper problem.
	base := out[0].Params
	out = append(out,
		Problem{Params: base, Opts: Options{FixedN: 5e5}},
		Problem{Params: base, Opts: Options{SinglePass: true}},
		Problem{Params: base, Opts: Options{Accelerate: true, OuterTol: 1e-12}},
	)
	// Randomized smaller problems.
	for i := 0; i < 8; i++ {
		L := 1 + rng.Intn(4)
		costs := make([]overhead.Cost, L)
		for j := range costs {
			costs[j] = overhead.Cost{Const: 0.5 + rng.Float64()*5*float64(j+1), Coeff: rng.Float64() * 0.01, H: overhead.LinearN}
			if rng.Intn(2) == 0 {
				costs[j].Cap = 1e4 + rng.Float64()*4e5
			}
		}
		perDay := make([]float64, L)
		for j := range perDay {
			perDay[j] = 1 + rng.Float64()*30
		}
		out = append(out, Problem{
			Params: &model.Params{
				Te:      (1e5 + rng.Float64()*3e6) * failure.SecondsPerDay,
				Speedup: speedup.Quadratic{Kappa: 0.2 + rng.Float64(), NStar: 1e5 + rng.Float64()*9e5},
				Levels:  overhead.SymmetricLevels(costs, 0.5+rng.Float64()),
				Alloc:   rng.Float64() * 120,
				Rates:   failure.Rates{PerDay: perDay, Baseline: 1e6},
			},
			Opts: Options{},
		})
	}
	// An invalid problem: the batch must report its error without
	// poisoning its neighbors.
	out = append(out, Problem{Params: &model.Params{}, Opts: Options{}})
	return out
}

func solutionsEqual(t *testing.T, lane int, got, want Solution) {
	t.Helper()
	bits := math.Float64bits
	if len(got.X) != len(want.X) {
		t.Fatalf("lane %d: X length %d vs %d", lane, len(got.X), len(want.X))
	}
	for i := range want.X {
		if bits(got.X[i]) != bits(want.X[i]) {
			t.Fatalf("lane %d: X[%d] = %v, want %v", lane, i, got.X[i], want.X[i])
		}
	}
	if bits(got.N) != bits(want.N) || bits(got.WallClock) != bits(want.WallClock) {
		t.Fatalf("lane %d: (N, WallClock) = (%v, %v), want (%v, %v)", lane, got.N, got.WallClock, want.N, want.WallClock)
	}
	for i := range want.Mu {
		if bits(got.Mu[i]) != bits(want.Mu[i]) {
			t.Fatalf("lane %d: Mu[%d] = %v, want %v", lane, i, got.Mu[i], want.Mu[i])
		}
	}
	if got.OuterIterations != want.OuterIterations || got.InnerIterations != want.InnerIterations || got.Converged != want.Converged {
		t.Fatalf("lane %d: iterations/converged (%d, %d, %v), want (%d, %d, %v)",
			lane, got.OuterIterations, got.InnerIterations, got.Converged,
			want.OuterIterations, want.InnerIterations, want.Converged)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("lane %d: history length %d vs %d", lane, len(got.History), len(want.History))
	}
	for i := range want.History {
		g, w := got.History[i], want.History[i]
		if bits(g.N) != bits(w.N) || bits(g.WallClock) != bits(w.WallClock) || bits(g.MuDelta) != bits(w.MuDelta) {
			t.Fatalf("lane %d: history[%d] (%v, %v, %v), want (%v, %v, %v)",
				lane, i, g.N, g.WallClock, g.MuDelta, w.N, w.WallClock, w.MuDelta)
		}
		for j := range w.Mu {
			if bits(g.Mu[j]) != bits(w.Mu[j]) {
				t.Fatalf("lane %d: history[%d].Mu[%d] = %v, want %v", lane, i, j, g.Mu[j], w.Mu[j])
			}
		}
	}
}

// TestOptimizeBatchMatchesSequential: OptimizeBatch must reproduce a
// sequential Optimize loop bit for bit — solutions, histories, iteration
// counts, and errors alike.
func TestOptimizeBatchMatchesSequential(t *testing.T) {
	problems := batchSpecs()
	got := OptimizeBatch(problems)
	if len(got) != len(problems) {
		t.Fatalf("%d outcomes for %d problems", len(got), len(problems))
	}
	for i, pr := range problems {
		want, wantErr := Optimize(pr.Params, pr.Opts)
		if (got[i].Err == nil) != (wantErr == nil) {
			t.Fatalf("lane %d: err %v, want %v", i, got[i].Err, wantErr)
		}
		if wantErr != nil {
			if got[i].Err.Error() != wantErr.Error() {
				t.Fatalf("lane %d: err %q, want %q", i, got[i].Err, wantErr)
			}
			continue
		}
		solutionsEqual(t, i, got[i].Solution, want)
	}
}

// TestOptimizeBatchObsMatchesSequential pins the telemetry contract: a
// batched solve must emit exactly the telemetry a sequential loop emits.
func TestOptimizeBatchObsMatchesSequential(t *testing.T) {
	problems := batchSpecs()
	run := func(batch bool) *obs.Collector {
		col := obs.NewCollector()
		prs := make([]Problem, len(problems))
		for i, pr := range problems {
			pr.Opts.Obs = col
			pr.Opts.ObsLabel = fmt.Sprintf("lane-%d", i)
			prs[i] = pr
		}
		if batch {
			OptimizeBatch(prs)
		} else {
			for _, pr := range prs {
				Optimize(pr.Params, pr.Opts) //nolint:errcheck
			}
		}
		return col
	}
	export := func(col *obs.Collector) string {
		m, err := col.Registry.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := col.Trace.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(m) + string(tr)
	}
	seq := export(run(false))
	bat := export(run(true))
	if seq != bat {
		t.Fatalf("telemetry diverged between sequential and batched solves:\nsequential: %s\nbatched: %s", seq, bat)
	}
}

// TestSolveScaleMatchesScalarReference differentially tests the production
// scale search, which evaluates through model.Evaluator, against the same
// scan driven by the scalar oracle Params.GradN / Params.WallClock on
// randomized iterates: same root, bit for bit, same errors. Beyond the
// paper's cost shapes it draws SqrtN/LogN levels and saturation caps inside
// [floor, N^(*)], and requires that some trials bisect two brackets.
func TestSolveScaleMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	twoBrackets := 0
	for trial := 0; trial < 120; trial++ {
		var p *model.Params
		switch trial % 3 {
		case 0:
			spec := []string{"16-12-8-4", "160-120-80-40", "1-0-0-2"}[trial/3%3]
			p = paperParams(1e5+rng.Float64()*5e6, spec)
		case 1:
			p = mixedShapeParams(rng)
		default:
			p = kinkedParams(rng)
		}
		col := obs.NewCollector()
		opts := Options{Obs: col}.withDefaults()
		ceiling := p.Speedup.IdealScale()
		L := p.L()
		x := make([]float64, L)
		b := make([]float64, L)
		for i := range x {
			x[i] = 1 + rng.Float64()*500
			b[i] = rng.Float64() * 2e-6
		}
		st := newInnerState(p)
		copy(st.x, x)
		copy(st.b, b)
		nEval, errEval := st.solveScale(opts, ceiling)

		ref := newInnerState(p)
		nRef, errRef := ref.searchScale(
			func(n float64) float64 { return p.GradN(x, n, b) },
			func(n float64) float64 { return p.WallClock(x, n, scaledB(b, n)) },
			scaleFloor, ceiling, obs.Nop())
		if (errEval == nil) != (errRef == nil) {
			t.Fatalf("trial %d: err %v vs %v", trial, errEval, errRef)
		}
		if math.Float64bits(nEval) != math.Float64bits(nRef) {
			t.Fatalf("trial %d: evaluator scale %v, scalar %v", trial, nEval, nRef)
		}
		if calls, _ := col.Registry.Snapshot().Counter("core.bisect.calls"); calls >= 2 {
			twoBrackets++
		}
	}
	if twoBrackets == 0 {
		t.Fatal("no trial bisected two brackets; the kinked problems no longer reach that path")
	}
	t.Logf("%d of 120 trials bisected two or more brackets", twoBrackets)
}

// scaledB returns μ_i = b_i·n.
func scaledB(b []float64, n float64) []float64 {
	mu := make([]float64, len(b))
	for i := range b {
		mu[i] = b[i] * n
	}
	return mu
}

// mixedShapeParams draws a four-level problem whose costs grow as √N and
// log(1+N), with saturation caps inside [1, N^(*)].
func mixedShapeParams(rng *rand.Rand) *model.Params {
	nstar := 1e5 + rng.Float64()*9e5
	costs := []overhead.Cost{
		overhead.Constant(0.5 + rng.Float64()),
		{Const: 1 + rng.Float64(), Coeff: 0.01 + rng.Float64()*0.05, H: overhead.SqrtN, Cap: nstar * rng.Float64()},
		{Const: 2 + rng.Float64(), Coeff: 0.1 + rng.Float64(), H: overhead.LogN},
		{Const: 5, Coeff: rng.Float64() * 0.03, H: overhead.LinearN, Cap: nstar * (0.05 + 0.5*rng.Float64())},
	}
	return &model.Params{
		Te:      (1e5 + rng.Float64()*5e6) * failure.SecondsPerDay,
		Speedup: speedup.Quadratic{Kappa: 0.3 + rng.Float64()*0.3, NStar: nstar},
		Levels:  overhead.SymmetricLevels(costs, 0.5),
		Alloc:   60,
		Rates:   failure.MustParseRates("16-12-8-4", 1e6),
	}
}

// kinkedParams draws a two-level problem whose steep linear top-level cost
// saturates well below N^(*): the gradient turns positive before the cap
// and negative again past it, so the scan finds two brackets.
func kinkedParams(rng *rand.Rand) *model.Params {
	nstar := 1e6
	costs := []overhead.Cost{
		overhead.Constant(1 + rng.Float64()),
		{Const: 5, Coeff: 0.5 + rng.Float64(), H: overhead.LinearN, Cap: 5e4 + rng.Float64()*1e5},
	}
	return &model.Params{
		Te:      (1e5 + rng.Float64()*5e6) * failure.SecondsPerDay,
		Speedup: speedup.Quadratic{Kappa: 0.46, NStar: nstar},
		Levels:  overhead.SymmetricLevels(costs, 0.5),
		Alloc:   60,
		Rates:   failure.MustParseRates("8-4", 1e6),
	}
}

// TestOptimizeSteadyStateAllocs pins the allocation profile of the scalar
// entry point: the 1,675 allocs/op of the seed implementation and the 26
// per-solve scan slabs the point evaluator replaced must not creep back.
func TestOptimizeSteadyStateAllocs(t *testing.T) {
	p := paperParams(3e6, "16-12-8-4")
	if _, err := Optimize(p, Options{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Optimize(p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// Slab and evaluator construction, Solution buffers, and one History
	// record per outer step remain (46 on this problem's 28 outer steps);
	// the scale search itself allocates nothing.
	if avg > 50 {
		t.Errorf("Optimize allocates %.0f times per solve; want ≤ 50 (seed was 1675)", avg)
	}
}
