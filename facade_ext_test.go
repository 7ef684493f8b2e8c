package mlckpt

import (
	"errors"
	"math"
	"testing"
)

func TestTableSpeedupKind(t *testing.T) {
	spec := PaperSpec(1e5, []float64{4, 2})
	spec.Levels = spec.Levels[:2]
	spec.Speedup = SpeedupSpec{
		Kind: "table",
		Points: [][2]float64{
			{1000, 900}, {10000, 7000}, {50000, 22000}, {100000, 30000}, {150000, 28000},
		},
	}
	spec.BaselineScale = 1e5
	p, err := spec.Params()
	if err != nil {
		t.Fatalf("table spec rejected: %v", err)
	}
	// Peak sample decides the ideal scale.
	if got := p.Speedup.IdealScale(); got != 100000 {
		t.Errorf("IdealScale = %g, want 100000", got)
	}
	plan, err := Optimize(spec, MLOptScale)
	if err != nil {
		t.Fatalf("Optimize on table speedup: %v", err)
	}
	if plan.Scale <= 0 || plan.Scale > 100000 {
		t.Errorf("scale = %d", plan.Scale)
	}
}

// TestTableSpeedupDefaultBaseline: a "table" spec without baselineScale
// takes N_b from the peak sample, the ideal scale the SpeedupSpec doc
// promises, instead of the (ignored, zero) IdealScale field.
func TestTableSpeedupDefaultBaseline(t *testing.T) {
	spec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	spec.Speedup = SpeedupSpec{
		Kind:   "table",
		Points: [][2]float64{{1, 1}, {1e3, 500}, {1e4, 2000}, {1e5, 1500}},
	}
	p, err := spec.Params()
	if err != nil {
		t.Fatalf("table spec rejected: %v", err)
	}
	if p.Rates.Baseline != 1e4 {
		t.Errorf("baseline = %g, want the peak sample's scale 1e4", p.Rates.Baseline)
	}
	plan, err := Optimize(spec, MLOptScale)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !plan.Converged || plan.Scale <= 0 || plan.Scale > 1e4 {
		t.Errorf("plan = %+v, want a converged scale in (0, 1e4]", plan)
	}
}

func TestTableSpeedupInvalid(t *testing.T) {
	spec := PaperSpec(1e5, []float64{4, 2})
	spec.Speedup = SpeedupSpec{Kind: "table", Points: [][2]float64{{1, 1}}}
	if _, err := spec.Params(); !errors.Is(err, ErrSpec) {
		t.Errorf("single-point table accepted: %v", err)
	}
}

func TestOptimizeWithSelectionKeepsUsefulLevels(t *testing.T) {
	spec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	sel, err := OptimizeWithSelection(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.EnabledLevels) != 4 {
		t.Fatalf("enabled = %v", sel.EnabledLevels)
	}
	if !sel.EnabledLevels[3] {
		t.Error("top level disabled")
	}
	// Must be at least as good as the all-levels plan.
	plain, err := Optimize(spec, MLOptScale)
	if err != nil {
		t.Fatal(err)
	}
	if sel.ExpectedWallClockDays > plain.ExpectedWallClockDays*1.0001 {
		t.Errorf("selection %g worse than plain %g days",
			sel.ExpectedWallClockDays, plain.ExpectedWallClockDays)
	}
	// The selection plan is simulatable as-is.
	rep, err := Simulate(spec, sel.Plan, SimOptions{Runs: 5})
	if err != nil {
		t.Fatalf("Simulate(selection): %v", err)
	}
	if rep.MeanWallClockDays <= 0 {
		t.Error("empty report")
	}
}

func TestOptimizeWithSelectionDropsWastefulLevel(t *testing.T) {
	// Level 3 absurdly expensive and failure-free: selection must drop it.
	spec := PaperSpec(1e6, []float64{16, 12, 0, 4})
	spec.Levels[2].CheckpointConst = 2000
	sel, err := OptimizeWithSelection(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sel.EnabledLevels[2] {
		t.Errorf("wasteful level kept: %v", sel.EnabledLevels)
	}
	if sel.Intervals[2] != 1 {
		t.Errorf("disabled level has intervals %d", sel.Intervals[2])
	}
}

func TestOptimizeWithSelectionInvalidSpec(t *testing.T) {
	spec := PaperSpec(0, []float64{1})
	if _, err := OptimizeWithSelection(spec); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestTableSpeedupAgreesWithQuadraticOnSampledCurve(t *testing.T) {
	// Sampling the paper's quadratic densely and optimizing on the table
	// should land near the quadratic's own optimum.
	quadSpec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	quadPlan, err := Optimize(quadSpec, MLOptScale)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadSpec.Speedup.Model()
	if err != nil {
		t.Fatal(err)
	}
	tableSpec := quadSpec
	var pts [][2]float64
	for n := 25000.0; n <= 1e6; n += 25000 {
		pts = append(pts, [2]float64{n, q.Speedup(n)})
	}
	tableSpec.Speedup = SpeedupSpec{Kind: "table", Points: pts}
	tableSpec.BaselineScale = 1e6
	tablePlan, err := Optimize(tableSpec, MLOptScale)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(tablePlan.Scale-quadPlan.Scale))/float64(quadPlan.Scale) > 0.1 {
		t.Errorf("table optimum %d vs quadratic optimum %d", tablePlan.Scale, quadPlan.Scale)
	}
	if math.Abs(tablePlan.ExpectedWallClockDays-quadPlan.ExpectedWallClockDays)/quadPlan.ExpectedWallClockDays > 0.05 {
		t.Errorf("table WCT %g vs quadratic %g days",
			tablePlan.ExpectedWallClockDays, quadPlan.ExpectedWallClockDays)
	}
}
