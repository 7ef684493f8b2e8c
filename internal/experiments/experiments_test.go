package experiments

import (
	"math"
	"strings"
	"testing"

	"mlckpt/internal/core"
	"mlckpt/internal/failure"
)

// Gains summarizes ML(opt-scale)'s wall-clock reduction against each other
// policy per case — the paper's headline 4.3–88% numbers.
func (r EvalResult) Gains() map[string]map[core.Policy]float64 {
	byCase := map[string]map[core.Policy]float64{}
	for _, row := range r.Rows {
		if byCase[row.Spec] == nil {
			byCase[row.Spec] = map[core.Policy]float64{}
		}
		byCase[row.Spec][row.Outcome.Policy] = row.Outcome.Aggregate.WallClock.Mean
	}
	out := map[string]map[core.Policy]float64{}
	for spec, m := range byCase {
		base := m[core.MLOptScale]
		out[spec] = map[core.Policy]float64{}
		for pol, wct := range m {
			if pol == core.MLOptScale || wct <= 0 {
				continue
			}
			out[spec][pol] = 1 - base/wct
		}
	}
	return out
}

func TestFig1PeakShiftsLeft(t *testing.T) {
	r := Fig1(64)
	if len(r.Points) != 64 {
		t.Fatalf("%d points", len(r.Points))
	}
	// Figure 1's message: the optimum with checkpointing sits at a smaller
	// scale than the original optimum.
	if !(r.PeakWithCkpt < r.PeakOriginal) {
		t.Errorf("peak with ckpt %g not left of original %g", r.PeakWithCkpt, r.PeakOriginal)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFig2Shapes(t *testing.T) {
	r, err := Fig2Grid(64, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	// Heat curve: rising over the measured range, good quadratic fit.
	if r.Heat.Fit.Kappa <= 0 {
		t.Errorf("heat κ = %g", r.Heat.Fit.Kappa)
	}
	if r.Heat.R2 < 0.95 {
		t.Errorf("heat fit R² = %g", r.Heat.R2)
	}
	// Eddy curve: the measured Jacobi speedup must rise and fall with an
	// interior peak, and the rising-range quadratic fit must place its
	// ideal scale in the same region as the empirical peak (the paper's
	// Figure 2(b) methodology), not be dragged down by the falling tail.
	peak := 0
	for i, s := range r.Eddy.Samples {
		if s.Speedup > r.Eddy.Samples[peak].Speedup {
			peak = i
		}
	}
	if peak == 0 || peak == len(r.Eddy.Samples)-1 {
		t.Errorf("eddy curve has no interior peak: %v", r.Eddy.Samples)
	}
	peakN := r.Eddy.Samples[peak].N
	if r.Eddy.Fit.NStar < 0.25*peakN || r.Eddy.Fit.NStar > 2*peakN {
		t.Errorf("eddy fit N* = %g far from empirical peak %g", r.Eddy.Fit.NStar, peakN)
	}
	if r.Eddy.R2 < 0.9 {
		t.Errorf("eddy rising-range R² = %g", r.Eddy.R2)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 2") {
		t.Error("render missing title")
	}
}

func TestFig3PaperValues(t *testing.T) {
	r, err := Fig3(9)
	if err != nil {
		t.Fatal(err)
	}
	// Section III-C.2's published optima.
	if math.Abs(r.Constant.XStar-797) > 2 {
		t.Errorf("constant-cost x* = %g, want ≈797", r.Constant.XStar)
	}
	if math.Abs(r.Constant.NStar-81746) > 150 {
		t.Errorf("constant-cost N* = %g, want ≈81,746", r.Constant.NStar)
	}
	if math.Abs(r.Linear.XStar-140) > 2 {
		t.Errorf("linear-cost x* = %g, want ≈140", r.Linear.XStar)
	}
	if math.Abs(r.Linear.NStar-20215) > 150 {
		t.Errorf("linear-cost N* = %g, want ≈20,215", r.Linear.NStar)
	}
	// The sweeps must bottom out at the solved optimum.
	for _, c := range []Fig3Case{r.Constant, r.Linear} {
		for _, p := range c.XSweep {
			if p.WallClock < c.WallClock-1e-6 {
				t.Errorf("%s: x sweep found better point", c.Name)
			}
		}
		for _, p := range c.NSweep {
			if p.WallClock < c.WallClock-1e-6 {
				t.Errorf("%s: N sweep found better point", c.Name)
			}
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFig4SimulatorValidation(t *testing.T) {
	// Scaled-down Figure 4: the abstract simulator must track the real
	// heat+FTI executions. The paper reports <4% with 100-run means on a
	// real cluster; at this test's budget we accept <15%.
	r, err := Fig4Grid(16, 4, 100, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no sweep points")
	}
	for _, p := range r.Points {
		if p.RelErr > 0.15 {
			t.Errorf("intervals %v: real %g vs sim %g (%.1f%%)",
				p.Intervals, p.RealWCT, p.SimWCT, p.RelErr*100)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 4") {
		t.Error("render missing title")
	}
}

func TestTab2Shape(t *testing.T) {
	r, err := Tab2Grid([]int{128, 256, 512}, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Costs) != 3 {
		t.Fatalf("%d rows", len(r.Costs))
	}
	// Levels 1-3 flat, level 4 growing — the Table II reading.
	for lvl := 0; lvl < 3; lvl++ {
		if !r.Fitted[lvl].IsConstant() {
			t.Errorf("level %d fitted scale-dependent: %v", lvl+1, r.Fitted[lvl])
		}
	}
	if r.Fitted[3].IsConstant() {
		t.Errorf("level 4 fitted constant: %v", r.Fitted[3])
	}
	// Within each scale, cost increases with level.
	for i, row := range r.Costs {
		for lvl := 1; lvl < 4; lvl++ {
			if row[lvl] <= row[lvl-1] {
				t.Errorf("scale %d: level %d cost %g <= level %d cost %g",
					r.Scales[i], lvl+1, row[lvl], lvl, row[lvl-1])
			}
		}
	}
	if out := r.Render(); !strings.Contains(out, "Table II") {
		t.Error("render missing title")
	}
}

func TestEvalOrderingSmall(t *testing.T) {
	// Scaled-down Figure 5 on one case: the paper's ordering
	// ML(opt) < ML(ori) and both multilevel beat both single-level
	// solutions on simulated wall clock.
	r, err := EvalGrid(3e6, 12, []string{"16-12-8-4"}, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	wct := map[core.Policy]float64{}
	for _, row := range r.Rows {
		wct[row.Outcome.Policy] = row.Outcome.Aggregate.WallClock.Mean
	}
	if !(wct[core.MLOptScale] < wct[core.MLOriScale]) {
		t.Errorf("ML(opt) %g !< ML(ori) %g", wct[core.MLOptScale], wct[core.MLOriScale])
	}
	if !(wct[core.MLOptScale] < wct[core.SLOptScale]) {
		t.Errorf("ML(opt) %g !< SL(opt) %g", wct[core.MLOptScale], wct[core.SLOptScale])
	}
	if !(wct[core.MLOriScale] < wct[core.SLOriScale]) {
		t.Errorf("ML(ori) %g !< SL(ori) %g", wct[core.MLOriScale], wct[core.SLOriScale])
	}
	// SL(ori-scale) at full scale with PFS-only checkpoints must be
	// dramatically worse (the paper's 79-88% reduction headline).
	gain := 1 - wct[core.MLOptScale]/wct[core.SLOriScale]
	if gain < 0.5 {
		t.Errorf("ML(opt) gain over SL(ori) = %.1f%%, expected > 50%%", gain*100)
	}
	for _, s := range []string{r.Render(), r.RenderTab3(), r.RenderFig7()} {
		if s == "" {
			t.Error("empty render")
		}
	}
	gains := r.Gains()
	if len(gains["16-12-8-4"]) != 3 {
		t.Errorf("gains = %v", gains)
	}
}

func TestEvalEfficiencyOrdering(t *testing.T) {
	// Figure 7's message: SL(opt-scale) has the highest efficiency (it
	// uses very few cores) and SL(ori-scale) by far the lowest.
	r, err := EvalGrid(3e6, 10, []string{"8-6-4-2"}, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	eff := map[core.Policy]float64{}
	for _, row := range r.Rows {
		eff[row.Outcome.Policy] = row.Outcome.Efficiency(3e6)
	}
	if !(eff[core.SLOptScale] > eff[core.MLOptScale]) {
		t.Errorf("SL(opt) eff %g !> ML(opt) eff %g", eff[core.SLOptScale], eff[core.MLOptScale])
	}
	if !(eff[core.MLOptScale] > eff[core.SLOriScale]) {
		t.Errorf("ML(opt) eff %g !> SL(ori) eff %g", eff[core.MLOptScale], eff[core.SLOriScale])
	}
}

func TestTab3ScalesBelowIdeal(t *testing.T) {
	r, err := EvalGrid(3e6, 6, []string{"16-12-8-4", "4-2-1-0.5"}, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	var high, low float64
	for _, row := range r.Rows {
		if row.Outcome.Policy != core.MLOptScale {
			continue
		}
		n := row.Outcome.Solution.N
		if n >= 1e6 {
			t.Errorf("%s: ML(opt) scale %g not below N^(*)", row.Spec, n)
		}
		if row.Spec == "16-12-8-4" {
			high = n
		} else {
			low = n
		}
	}
	if !(high < low) {
		t.Errorf("higher failure rates should shrink the optimal scale: %g vs %g", high, low)
	}
}

func TestTab4Small(t *testing.T) {
	r, err := Tab4Grid(8, []string{"16-12-8-4"}, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 { // 2 blocks × 1 case × 4 policies
		t.Fatalf("%d rows", len(r.Rows))
	}
	wct := map[float64]map[core.Policy]float64{}
	for _, row := range r.Rows {
		if wct[row.RecFactor] == nil {
			wct[row.RecFactor] = map[core.Policy]float64{}
		}
		wct[row.RecFactor][row.Outcome.Policy] = row.WCTDays
		if row.Outcome.Policy == core.MLOptScale && row.WCTDays > 60 {
			t.Errorf("ML(opt) WCT = %.0f days; expected tens of days", row.WCTDays)
		}
	}
	// Table IV's claims: ML(opt-scale) always wins; its gain over
	// ML(ori-scale) is modest (paper: 3.6-6.5%); SL(ori-scale) at 1M cores
	// with 2,000 s PFS checkpoints collapses by a multiple (paper: 890 vs
	// 14.6 days).
	for rf, m := range wct {
		if !(m[core.MLOptScale] < m[core.MLOriScale]) {
			t.Errorf("rf=%.1f: ML(opt) %.1f !< ML(ori) %.1f days", rf, m[core.MLOptScale], m[core.MLOriScale])
		}
		if !(m[core.MLOptScale] < m[core.SLOptScale]) {
			t.Errorf("rf=%.1f: ML(opt) %.1f !< SL(opt) %.1f days", rf, m[core.MLOptScale], m[core.SLOptScale])
		}
		if m[core.SLOriScale] < 3*m[core.MLOptScale] {
			t.Errorf("rf=%.1f: SL(ori) %.0f days not catastrophic vs ML(opt) %.0f days",
				rf, m[core.SLOriScale], m[core.MLOptScale])
		}
	}
	if out := r.Render(); !strings.Contains(out, "Table IV") {
		t.Error("render missing title")
	}
}

func TestConvergenceCounts(t *testing.T) {
	r, err := ConvergenceGrid(nil, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Converged {
			t.Errorf("%s did not converge", row.Spec)
		}
		// Paper: 7-15 outer iterations at δ=1e-12.
		if row.OuterIterations > 40 {
			t.Errorf("%s: %d outer iterations", row.Spec, row.OuterIterations)
		}
		// Residuals must shrink overall (compare first and last).
		h := row.FinalDeltaHist
		if len(h) >= 2 && h[len(h)-1] >= h[0] {
			t.Errorf("%s: μ delta did not shrink: %v", row.Spec, h)
		}
	}
	if out := r.Render(); !strings.Contains(out, "convergence") {
		t.Error("render missing title")
	}
}

func TestScenarioParams(t *testing.T) {
	sc := EvalScenario(3e6, "16-12-8-4")
	p := sc.Params()
	if err := p.Validate(); err != nil {
		t.Fatalf("scenario params invalid: %v", err)
	}
	if p.Te != 3e6*failure.SecondsPerDay {
		t.Errorf("Te = %g", p.Te)
	}
	if p.L() != 4 {
		t.Errorf("levels = %d", p.L())
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.Add("x", 1.5)
	tb.Add("longer-cell", "y")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longer-cell") {
		t.Errorf("table render: %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d: %q", len(lines), s)
		}
	}
}

func TestAblate(t *testing.T) {
	r, err := Ablate("16-12-8-4", 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.AcceleratedIters >= r.PlainIters {
		t.Errorf("Aitken did not reduce iterations: %d vs %d", r.AcceleratedIters, r.PlainIters)
	}
	if r.WallClockDrift > 1e-6 {
		t.Errorf("solver variants disagree by %g", r.WallClockDrift)
	}
	if len(r.SelectionEnabled) != 4 || !r.SelectionEnabled[3] {
		t.Errorf("selection = %v", r.SelectionEnabled)
	}
	if r.SelectionGain < -1e-9 {
		t.Errorf("selection made things worse: %g", r.SelectionGain)
	}
	if r.SimBase <= 0 || r.SimNoJitter <= 0 || r.SimCorrelated <= 0 {
		t.Error("missing simulator results")
	}
	if r.AbsorbedMean <= 0 {
		t.Error("no failures absorbed under a 120s window at 40/day")
	}
	if out := r.Render(); !strings.Contains(out, "Ablations") {
		t.Error("render missing title")
	}
}

func TestFig2BlockDecomposition(t *testing.T) {
	r, err := Fig2Grid(64, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Block.Fit.Kappa <= 0 || r.Block.R2 < 0.95 {
		t.Errorf("block curve fit: κ=%g R²=%g", r.Block.Fit.Kappa, r.Block.R2)
	}
	// Both decompositions solve the same problem with similar costs; their
	// fitted origin slopes should be close.
	if math.Abs(r.Block.Fit.Kappa-r.Heat.Fit.Kappa) > 0.2*r.Heat.Fit.Kappa {
		t.Errorf("decompositions disagree wildly: row κ=%g block κ=%g",
			r.Heat.Fit.Kappa, r.Block.Fit.Kappa)
	}
}

func TestSensitivity(t *testing.T) {
	r, err := Sensitivity("16-12-8-4")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.N <= 0 || row.N > 1e6 {
			t.Errorf("%s=%g: N=%g out of range", row.Knob, row.Value, row.N)
		}
		if row.WallClock <= 0 {
			t.Errorf("%s=%g: WCT=%g", row.Knob, row.Value, row.WallClock)
		}
	}
	// Larger allocation period should never increase the optimal scale
	// (failures become more expensive, the optimum retreats).
	var allocNs []float64
	for _, row := range r.Rows {
		if row.Knob == "alloc A (s)" {
			allocNs = append(allocNs, row.N)
		}
	}
	for i := 1; i < len(allocNs); i++ {
		if allocNs[i] > allocNs[i-1]*1.001 {
			t.Errorf("optimal scale grew with allocation period: %v", allocNs)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Sensitivity") {
		t.Error("render missing title")
	}
}
