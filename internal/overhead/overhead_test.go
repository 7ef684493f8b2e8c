package overhead

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mlckpt/internal/numopt"
)

func TestBaselineEval(t *testing.T) {
	cases := []struct {
		b    Baseline
		n    float64
		want float64
	}{
		{Zero, 1000, 0},
		{LinearN, 1000, 1000},
		{SqrtN, 100, 10},
		{LogN, math.E - 1, 1},
	}
	for _, tc := range cases {
		if got := tc.b.Eval(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s.Eval(%g) = %g, want %g", tc.b, tc.n, got, tc.want)
		}
	}
	// All baselines pass through the origin, as Formula (19)/(20) require.
	for _, b := range []Baseline{Zero, LinearN, SqrtN, LogN} {
		if v := b.Eval(0); v != 0 {
			t.Errorf("%s.Eval(0) = %g, want 0", b, v)
		}
	}
}

func TestBaselineDerivativeMatchesNumeric(t *testing.T) {
	for _, b := range []Baseline{LinearN, SqrtN, LogN} {
		for _, n := range []float64{1, 100, 10000} {
			analytic := b.Derivative(n)
			numeric := numopt.Derivative(b.Eval, n)
			if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(analytic)) {
				t.Errorf("%s'(%g): analytic %g vs numeric %g", b, n, analytic, numeric)
			}
		}
	}
}

func TestCostAt(t *testing.T) {
	c := LinearCost(5.5, 0.0212)
	if got := c.At(1024); math.Abs(got-(5.5+0.0212*1024)) > 1e-12 {
		t.Errorf("At(1024) = %g", got)
	}
	if got := c.DerivativeAt(12345); got != 0.0212 {
		t.Errorf("DerivativeAt = %g", got)
	}
	k := Constant(3.886)
	if !k.IsConstant() || k.At(1e6) != 3.886 || k.DerivativeAt(1e6) != 0 {
		t.Errorf("constant cost misbehaves: %+v", k)
	}
}

func TestCostString(t *testing.T) {
	if s := Constant(5).String(); !strings.Contains(s, "5") {
		t.Errorf("String = %q", s)
	}
	if s := LinearCost(5.5, 0.02).String(); !strings.Contains(s, "N") {
		t.Errorf("String = %q", s)
	}
}

func TestCharacterizationValidate(t *testing.T) {
	good := FusionTableII()
	if err := good.Validate(); err != nil {
		t.Errorf("Table II invalid: %v", err)
	}
	bad := Characterization{Scales: []float64{1, 2}, Costs: [][]float64{{1}}}
	if err := bad.Validate(); !errors.Is(err, ErrCharacterize) {
		t.Errorf("err = %v", err)
	}
	ragged := Characterization{Scales: []float64{1, 2}, Costs: [][]float64{{1, 2}, {1}}}
	if err := ragged.Validate(); !errors.Is(err, ErrCharacterize) {
		t.Errorf("ragged err = %v", err)
	}
	negative := Characterization{Scales: []float64{1}, Costs: [][]float64{{-1}}}
	if err := negative.Validate(); !errors.Is(err, ErrCharacterize) {
		t.Errorf("negative err = %v", err)
	}
}

func TestFitTableII(t *testing.T) {
	// Fitting the paper's Table II must reproduce its qualitative reading:
	// levels 1–3 constant, level 4 growing roughly linearly with N, with
	// coefficients near the published (0.866,0) (2.586,0) (3.886,0)
	// (5.5, 0.0212).
	costs, err := Fit(FusionTableII())
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(costs) != 4 {
		t.Fatalf("got %d levels", len(costs))
	}
	for i := 0; i < 3; i++ {
		if !costs[i].IsConstant() {
			t.Errorf("level %d fitted as scale-dependent: %v", i+1, costs[i])
		}
	}
	if costs[3].IsConstant() {
		t.Errorf("level 4 fitted as constant: %v", costs[3])
	}
	published := FusionFittedCosts()
	if math.Abs(costs[0].Const-published[0].Const) > 0.05 {
		t.Errorf("ε1 = %g, want ≈%g", costs[0].Const, published[0].Const)
	}
	if math.Abs(costs[1].Const-published[1].Const) > 0.05 {
		t.Errorf("ε2 = %g, want ≈%g", costs[1].Const, published[1].Const)
	}
	if math.Abs(costs[2].Const-published[2].Const) > 0.05 {
		t.Errorf("ε3 = %g, want ≈%g", costs[2].Const, published[2].Const)
	}
	if math.Abs(costs[3].Coeff-published[3].Coeff) > 0.005 {
		t.Errorf("α4 = %g, want ≈%g", costs[3].Coeff, published[3].Coeff)
	}
	if math.Abs(costs[3].Const-published[3].Const) > 1.5 {
		t.Errorf("ε4 = %g, want ≈%g", costs[3].Const, published[3].Const)
	}
}

func TestFitPreservesExactConstant(t *testing.T) {
	ch := Characterization{
		Scales: []float64{100, 200, 300},
		Costs:  [][]float64{{2}, {2}, {2}},
	}
	costs, err := Fit(ch)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !costs[0].IsConstant() || math.Abs(costs[0].Const-2) > 1e-12 {
		t.Errorf("constant data fit = %v", costs[0])
	}
}

func TestFitExactLinear(t *testing.T) {
	ch := Characterization{
		Scales: []float64{100, 200, 400, 800},
		Costs:  [][]float64{{1 + 0.01*100}, {1 + 0.01*200}, {1 + 0.01*400}, {1 + 0.01*800}},
	}
	costs, err := Fit(ch)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if costs[0].IsConstant() {
		t.Fatalf("linear data fit constant: %v", costs[0])
	}
	if math.Abs(costs[0].Const-1) > 1e-9 || math.Abs(costs[0].Coeff-0.01) > 1e-12 {
		t.Errorf("fit = %v, want 1 + 0.01·N", costs[0])
	}
}

func TestFitRejectsInvalid(t *testing.T) {
	if _, err := Fit(Characterization{}); !errors.Is(err, ErrCharacterize) {
		t.Errorf("err = %v", err)
	}
}

func TestFitMonotonicityWarning(t *testing.T) {
	// A table where level 2 is cheaper than level 1 at the top scale
	// violates the paper's C_1 <= ... <= C_L assumption; Fit must still
	// return the fits but flag the inversion.
	ch := Characterization{
		Scales: []float64{100, 200},
		Costs:  [][]float64{{5, 1}, {5, 1}},
	}
	costs, err := Fit(ch)
	if err == nil {
		t.Error("expected a monotonicity warning error")
	}
	if len(costs) != 2 {
		t.Fatalf("fits not returned alongside warning")
	}
}

func TestSymmetricLevels(t *testing.T) {
	levels := SymmetricLevels(FusionFittedCosts(), 1.0)
	if len(levels) != 4 {
		t.Fatalf("got %d levels", len(levels))
	}
	for i, lv := range levels {
		if math.Abs(lv.Checkpoint.At(1000)-lv.Recovery.At(1000)) > 1e-12 {
			t.Errorf("level %d: recovery != checkpoint under factor 1", i+1)
		}
	}
	half := SymmetricLevels(FusionFittedCosts(), 0.5)
	if math.Abs(half[3].Recovery.At(1000)-0.5*half[3].Checkpoint.At(1000)) > 1e-12 {
		t.Error("factor 0.5 not applied to scale-dependent part")
	}
}

// Property: fitted cost is non-negative over the characterized scales for
// any non-negative input table.
func TestFitNonNegativeProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		base := float64(seed%100) / 10
		ch := Characterization{
			Scales: []float64{128, 256, 512, 1024},
			Costs: [][]float64{
				{base + 0.1}, {base + 0.3}, {base + 0.2}, {base + 0.4},
			},
		}
		costs, err := Fit(ch)
		if err != nil {
			return false
		}
		for _, n := range ch.Scales {
			if costs[0].At(n) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
