package mlckpt

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func TestOptimizePaperSpec(t *testing.T) {
	spec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	plan, err := Optimize(spec, MLOptScale)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !plan.Converged {
		t.Error("not converged")
	}
	if plan.Scale <= 0 || plan.Scale >= 1e6 {
		t.Errorf("scale = %d, want interior optimum", plan.Scale)
	}
	if len(plan.Intervals) != 4 {
		t.Fatalf("intervals = %v", plan.Intervals)
	}
	for i := 1; i < 4; i++ {
		if plan.Intervals[i] > plan.Intervals[i-1] {
			t.Errorf("interval counts should not increase with level: %v", plan.Intervals)
		}
	}
	if plan.ExpectedWallClockDays <= 0 {
		t.Errorf("expected wall clock %g", plan.ExpectedWallClockDays)
	}
}

func TestOptimizeAllPolicies(t *testing.T) {
	spec := PaperSpec(3e6, []float64{8, 6, 4, 2})
	wct := map[Policy]float64{}
	for _, pol := range Policies {
		plan, err := Optimize(spec, pol)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		wct[pol] = plan.ExpectedWallClockDays
		if plan.Policy != pol {
			t.Errorf("plan policy %q", plan.Policy)
		}
	}
	if !(wct[MLOptScale] < wct[MLOriScale]) {
		t.Errorf("ML(opt) %g !< ML(ori) %g", wct[MLOptScale], wct[MLOriScale])
	}
}

func TestOptimizeUnknownPolicy(t *testing.T) {
	spec := PaperSpec(3e6, []float64{8, 6, 4, 2})
	if _, err := Optimize(spec, Policy("bogus")); !errors.Is(err, ErrSpec) {
		t.Errorf("err = %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero workload", func(s *Spec) { s.TeCoreDays = 0 }},
		{"no levels", func(s *Spec) { s.Levels = nil }},
		{"rate mismatch", func(s *Spec) { s.FailuresPerDay = []float64{1} }},
		{"bad speedup kind", func(s *Spec) { s.Speedup.Kind = "cubic" }},
		{"zero ideal scale", func(s *Spec) { s.Speedup.IdealScale = 0 }},
		{"zero kappa", func(s *Spec) { s.Speedup.Kappa = 0 }},
		{"negative rate", func(s *Spec) { s.FailuresPerDay[0] = -4 }},
		{"NaN rate", func(s *Spec) { s.FailuresPerDay[1] = math.NaN() }},
		{"infinite rate", func(s *Spec) { s.FailuresPerDay[3] = math.Inf(1) }},
		{"T_e overflows seconds", func(s *Spec) { s.TeCoreDays = 1e304 }},
		{"infinite workload", func(s *Spec) { s.TeCoreDays = math.Inf(1) }},
		{"NaN workload", func(s *Spec) { s.TeCoreDays = math.NaN() }},
		{"NaN kappa", func(s *Spec) { s.Speedup.Kappa = math.NaN() }},
		{"NaN ideal scale", func(s *Spec) { s.Speedup.IdealScale = math.NaN() }},
		{"infinite ideal scale", func(s *Spec) { s.Speedup.IdealScale = math.Inf(1) }},
		{"NaN serial fraction", func(s *Spec) { s.Speedup.SerialFraction = math.NaN() }},
		{"NaN table point", func(s *Spec) {
			s.Speedup = SpeedupSpec{Kind: "table", Points: [][2]float64{{1, 1}, {1e3, math.NaN()}}}
		}},
		{"NaN alloc", func(s *Spec) { s.AllocSeconds = math.NaN() }},
		{"negative alloc", func(s *Spec) { s.AllocSeconds = -1 }},
		{"NaN checkpoint const", func(s *Spec) { s.Levels[0].CheckpointConst = math.NaN() }},
		{"NaN recovery const", func(s *Spec) { s.Levels[0].RecoveryConst = math.NaN() }},
		{"negative checkpoint const", func(s *Spec) { s.Levels[1].CheckpointConst = -1 }},
		{"negative checkpoint slope", func(s *Spec) { s.Levels[3].CheckpointSlope = -0.01 }},
		{"negative recovery slope", func(s *Spec) { s.Levels[3].RecoverySlope = -0.01 }},
		{"negative saturation cap", func(s *Spec) { s.Levels[3].SaturationCap = -5 }},
		{"infinite saturation cap", func(s *Spec) { s.Levels[3].SaturationCap = math.Inf(1) }},
		{"infinite baseline scale", func(s *Spec) { s.BaselineScale = math.Inf(1) }},
		{"negative baseline scale", func(s *Spec) { s.BaselineScale = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := PaperSpec(3e6, []float64{8, 6, 4, 2})
			tc.mut(&spec)
			if _, err := spec.Params(); !errors.Is(err, ErrSpec) {
				t.Errorf("err = %v, want ErrSpec", err)
			}
		})
	}
}

func TestSpeedupKinds(t *testing.T) {
	for _, kind := range []string{"quadratic", "linear", "amdahl", "gustafson"} {
		s := SpeedupSpec{Kind: kind, Kappa: 0.5, IdealScale: 1e5, SerialFraction: 0.01}
		m, err := s.Model()
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if m.Speedup(100) <= 0 {
			t.Errorf("%s: non-positive speedup", kind)
		}
	}
	// Empty kind defaults to quadratic.
	if _, err := (SpeedupSpec{Kappa: 0.5, IdealScale: 1e5}).Model(); err != nil {
		t.Errorf("default kind: %v", err)
	}
}

func TestRecoveryDefaultsToHalfCheckpoint(t *testing.T) {
	spec := PaperSpec(3e6, []float64{8, 6, 4, 2})
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Levels {
		c := p.Levels[i].Checkpoint.At(1e5)
		r := p.Levels[i].Recovery.At(1e5)
		if r != c/2 {
			t.Errorf("level %d: recovery %g, want %g", i+1, r, c/2)
		}
	}
	// Explicit recovery respected.
	spec.Levels[0].RecoveryConst = 7
	p, err = spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels[0].Recovery.At(1e5) != 7 {
		t.Errorf("explicit recovery ignored")
	}
}

func TestSimulatePlan(t *testing.T) {
	spec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	plan, err := Optimize(spec, MLOptScale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(spec, plan, SimOptions{Runs: 20, Seed: 7})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if rep.Runs != 20 {
		t.Errorf("runs = %d", rep.Runs)
	}
	// The simulated mean tracks the analytic estimate from above: the
	// model is first-order (one failure per interval, no failures during
	// overhead windows), so the simulator's compounding adds tens of
	// percent at these high failure rates but never wins by much.
	rel := (rep.MeanWallClockDays - plan.ExpectedWallClockDays) / plan.ExpectedWallClockDays
	if rel < -0.1 || rel > 0.5 {
		t.Errorf("sim %g days vs model %g days (%.1f%%)",
			rep.MeanWallClockDays, plan.ExpectedWallClockDays, rel*100)
	}
	sum := rep.ProductiveDays + rep.CheckpointDays + rep.RestartDays + rep.RollbackDays
	if rel := (sum - rep.MeanWallClockDays) / rep.MeanWallClockDays; rel > 0.001 || rel < -0.001 {
		t.Errorf("portions %g != wall clock %g", sum, rep.MeanWallClockDays)
	}
	if rep.Efficiency <= 0 || rep.Efficiency >= 1 {
		t.Errorf("efficiency = %g", rep.Efficiency)
	}
}

func TestSimulateRejectsMismatchedPlan(t *testing.T) {
	spec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	plan := Plan{X: []float64{10}, Scale: 1000}
	if _, err := Simulate(spec, plan, SimOptions{Runs: 2}); !errors.Is(err, ErrSpec) {
		t.Errorf("err = %v", err)
	}
}

func TestSimulateWeibullOption(t *testing.T) {
	spec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	plan, err := Optimize(spec, MLOptScale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(spec, plan, SimOptions{Runs: 5, WeibullShape: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanFailures <= 0 {
		t.Error("no failures under Weibull")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := PaperSpec(3e6, []float64{16, 12, 8, 4})
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	p1, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := back.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Te != p2.Te || p1.L() != p2.L() {
		t.Error("JSON round trip changed the problem")
	}
}
