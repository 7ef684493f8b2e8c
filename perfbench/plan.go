package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"mlckpt"
	"mlckpt/internal/core"
	"mlckpt/internal/experiments"
	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/obs"
)

// planWorkload: one mlckpt.Optimize(spec, MLOptScale) per distinct spec,
// closed loop, one client — what a scheduler pays per submitted job.
var planWorkload = workload{
	name:     "plan",
	tail:     99,
	minOps:   1000,
	exactOps: planExact,
	batch:    planBatch,
	opSpan:   rootSpan,
	setup:    setupPlan,
}

const (
	planBatch = 256
	planExact = 256
)

// planStrata: four log-bands of r4 times two log-bands of Te. Input i
// falls in stratum i mod planStrata, so every run covers them equally.
const planStrata = 8

// planWarmup is how many untimed plans set-up runs.
const planWarmup = 256

// warmFirst is the first input index used for warm-up, disjoint from the
// measured and traced ranges.
const warmFirst = 1 << 24

// planSpec is input i of the plan workload: the paper's four FTI levels
// and cost models with a drawn failure case, workload and speedup slope.
func planSpec(seed uint64, i int) mlckpt.Spec {
	r := newRNG(seed, "plan", i)
	s := i % planStrata
	r4 := r.logUniform(band(0.5, 8, s%4, 4))
	te := r.logUniform(band(1e6, 10e6, s/4, 2))
	rates := []float64{0, 0, 0, r4}
	for l := 2; l >= 0; l-- {
		rates[l] = rates[l+1] * r.uniform(1, 2.5)
	}
	spec := mlckpt.PaperSpec(te, rates)
	spec.Speedup.Kappa = r.uniform(0.3, 0.6)
	return spec
}

// planRec is what one traced plan recorded.
type planRec struct {
	params, solve, expand time.Duration
	outer, inner, bisect  int
	wallClockNS           float64
}

type planInst struct {
	seed     uint64
	idx      []int
	specs    []mlckpt.Spec
	plans    []mlckpt.Plan
	diverged []bool
	mismatch []error // traced form disagreeing with mlckpt.Optimize
	recs     []planRec
}

func setupPlan(e env, seed uint64) (instance, error, error) {
	p := &planInst{seed: seed}
	n := planBatch
	p.idx, p.specs, p.plans = make([]int, n), make([]mlckpt.Spec, n), make([]mlckpt.Plan, n)
	p.diverged, p.mismatch = make([]bool, n), make([]error, n)
	checkErr := checkTab3(e)
	for k := 0; k < planWarmup; k++ {
		p.prepare(0, warmFirst+k)
		if err := p.run(0); err != nil {
			return nil, nil, fmt.Errorf("warm-up plan %d: %w", k, err)
		}
		if err := p.check(0); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	return p, checkErr, nil
}

func (p *planInst) prepare(slot, i int) {
	p.idx[slot] = i
	p.specs[slot] = planSpec(p.seed, i)
	p.mismatch[slot] = nil
}

// run is the operation: one plan request through the facade. A
// divergent answer (the model has no finite E(T_w)) is correct.
func (p *planInst) run(slot int) error {
	plan, err := mlckpt.Optimize(p.specs[slot], mlckpt.MLOptScale)
	p.diverged[slot] = errors.Is(err, core.ErrDiverged)
	if err != nil && !p.diverged[slot] {
		return err
	}
	p.plans[slot] = plan
	return nil
}

// check re-evaluates the plan's E(T_w) with the scalar model at its
// (x, N), with μ from MuOfN, and compares within the solver's stopping
// rule (see wallClockTolerance).
func (p *planInst) check(slot int) error {
	if p.mismatch[slot] != nil {
		return p.mismatch[slot]
	}
	if p.diverged[slot] {
		return nil
	}
	prm, err := p.specs[slot].Params()
	if err != nil {
		return err
	}
	plan := p.plans[slot]
	w := plan.ExpectedWallClockDays * failure.SecondsPerDay
	n := float64(plan.Scale)
	got := prm.WallClock(plan.X, n, prm.MuOfN(n, w))
	if tol := wallClockTolerance(prm.L(), w, prm.GradN(plan.X, n, prm.BOfT(w))); !(math.Abs(got-w) <= tol) {
		return fmt.Errorf("%w: plan %d: E(T_w) %.9g s re-evaluates to %.9g s (tolerance %.3g s)",
			errIncorrect, p.idx[slot], w, got, tol)
	}
	return nil
}

// wallClockTolerance bounds |E(T_w) re-evaluated − E(T_w) reported| for a
// converged plan. Algorithm 1 stops once max_i |μ_i(W) − μ_i(W_prev)| ≤ δ
// (core's default OuterTol, 1e-9) and reports W evaluated at μ(W_prev);
// re-evaluating at μ(W) moves W by at most Σ_i ∂W/∂μ_i · δ, and each
// ∂W/∂μ_i (the cost of one failure) is below W. The plan reports N
// rounded to whole cores, which moves W by at most ½·|∂W/∂N|. The bound
// doubles their sum for second-order terms and adds float rounding.
func wallClockTolerance(levels int, w, gradN float64) float64 {
	const outerTol = 1e-9
	return 2*(float64(levels)*outerTol*w+0.5*math.Abs(gradN)) + 1e-12*w
}

// traced splits the request into the calls mlckpt.Optimize makes, with
// an obs collector on the solver, and checks the assembled plan equals
// Optimize's.
func (p *planInst) traced(slot int, tr *tracer) error {
	spec := p.specs[slot]
	col := obs.NewCollector()
	var rec planRec
	tr.beginOp(p.idx[slot])
	tr.begin("mlckpt.Spec.Params")
	prm, err := spec.Params()
	rec.params = tr.end()
	if err != nil {
		tr.end()
		return err
	}
	tr.begin("core.Policy.Solve")
	sol, err := core.MLOptScale.Solve(prm, core.Options{Obs: col})
	rec.solve = tr.end()
	var x []float64
	if err == nil {
		tr.begin("core.Policy.ExpandX")
		x = core.MLOptScale.ExpandX(prm, sol)
		rec.expand = tr.end()
	}
	tr.end()

	want, werr := mlckpt.Optimize(spec, mlckpt.MLOptScale)
	p.diverged[slot] = errors.Is(err, core.ErrDiverged)
	switch {
	case err != nil && !p.diverged[slot]:
		return err
	case fmt.Sprint(err) != fmt.Sprint(werr):
		p.mismatch[slot] = fmt.Errorf("%w: plan %d: traced solve error %v, Optimize error %v", errIncorrect, p.idx[slot], err, werr)
	case err == nil && !samePlan(want, sol, x):
		p.mismatch[slot] = fmt.Errorf("%w: plan %d: traced plan differs from mlckpt.Optimize", errIncorrect, p.idx[slot])
	}
	p.plans[slot] = want
	rec.outer, rec.inner = sol.OuterIterations, sol.InnerIterations
	if v, ok := col.Registry.Snapshot().Counter("core.bisect.iters"); ok {
		rec.bisect = int(v)
	}
	if err == nil {
		rec.wallClockNS = timeWallClock(prm, x, sol.N, sol.WallClock)
	}
	p.recs = append(p.recs, rec)
	return nil
}

// timeWallClock times model.Params.WallClock at the plan's (x, N) with μ
// from MuOfN, in host ns per call (the E(T_w) check's inner evaluation).
func timeWallClock(prm *model.Params, x []float64, n, w float64) float64 {
	const reps = 64
	mu := prm.MuOfN(n, w)
	t0 := time.Now()
	for k := 0; k < reps; k++ {
		wallClockSink += prm.WallClock(x, n, mu)
	}
	return float64(time.Since(t0).Nanoseconds()) / reps
}

// wallClockSink keeps the timed evaluations observable.
var wallClockSink float64

// samePlan reports whether the facade's plan is bit-for-bit the one
// assembled from the solver's solution and expanded schedule.
func samePlan(want mlckpt.Plan, sol core.Solution, x []float64) bool {
	if want.Scale != sol.Scale() || want.OuterIterations != sol.OuterIterations ||
		want.Converged != sol.Converged || !sameBits(want.X, x) ||
		math.Float64bits(want.ExpectedWallClockDays) != math.Float64bits(sol.WallClock/failure.SecondsPerDay) {
		return false
	}
	return slices.Equal(want.Intervals, core.Solution{X: x}.Intervals())
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (p *planInst) layers(tr *tracer) (map[string]metric, error) {
	if len(p.recs) < planExact {
		return nil, fmt.Errorf("plan: %d traced ops, need %d", len(p.recs), planExact)
	}
	var params, solve, expand, wc []float64
	for _, r := range p.recs {
		params = append(params, r.params.Seconds()*1e6)
		solve = append(solve, r.solve.Seconds()*1e6)
		if r.expand > 0 {
			expand = append(expand, r.expand.Seconds()*1e6)
			wc = append(wc, r.wallClockNS)
		}
	}
	var outer, inner, bisect float64
	exact := p.recs[:planExact]
	for _, r := range exact {
		outer += float64(r.outer)
		inner += float64(r.inner)
		bisect += float64(r.bisect)
	}
	n := float64(len(exact))
	m := spanMetrics(tr, planSpans)
	m["mlckpt.params_us"] = metric{median(params), "us"}
	m["core.solve_us"] = metric{median(solve), "us"}
	m["core.expand_us"] = metric{median(expand), "us"}
	m["core.outer_iters"] = metric{outer / n, "count"}
	m["core.inner_iters"] = metric{inner / n, "count"}
	m["core.bisect_iters"] = metric{bisect / n, "count"}
	m["model.wallclock_ns"] = metric{median(wc), "ns"}
	return m, nil
}

// planSpans are the span names of a traced plan.
var planSpans = []string{rootSpan, "mlckpt.Spec.Params", "core.Policy.Solve", "core.Policy.ExpandX"}

// checkTab3 solves the twelve Table III rows through the facade and
// requires the rendered rows verbatim in docs_results_reference.txt.
func checkTab3(e env) error {
	t := experiments.NewTable("Table III: optimized execution scales (Te=3m core-days)",
		"solution", "case", "N* (k cores)", "x per level")
	for _, c := range experiments.FailureCases {
		rates, err := parseCase(c)
		if err != nil {
			return err
		}
		for _, pol := range []mlckpt.Policy{mlckpt.MLOptScale, mlckpt.SLOptScale} {
			plan, err := mlckpt.Optimize(mlckpt.PaperSpec(3e6, rates), pol)
			if err != nil {
				return fmt.Errorf("%w: Table III %s %s: %v", errIncorrect, c, pol, err)
			}
			x, name := plan.Intervals, core.MLOptScale.String()
			if pol == mlckpt.SLOptScale {
				x, name = x[len(x)-1:], core.SLOptScale.String()
			}
			t.Add(name, c, float64(plan.Scale)/1000, fmt.Sprintf("%v", x))
		}
	}
	return inReference(e, t.String())
}

// inReference requires every non-empty line of text verbatim in the
// checkout's docs_results_reference.txt.
func inReference(e env, text string) error {
	data, err := os.ReadFile(filepath.Join(e.root, "docs_results_reference.txt"))
	if err != nil {
		return err
	}
	ref := map[string]bool{}
	for _, l := range strings.Split(string(data), "\n") {
		ref[l] = true
	}
	for _, l := range strings.Split(text, "\n") {
		if l != "" && !ref[l] {
			return fmt.Errorf("%w: line not in docs_results_reference.txt: %q", errIncorrect, l)
		}
	}
	return nil
}

// parseCase parses a failure case "r1-r2-r3-r4" into rates per day.
func parseCase(c string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(c, "-") {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("failure case %q: %w", c, err)
		}
		out = append(out, v)
	}
	return out, nil
}
