package trace

import (
	"errors"
	"math"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/stats"
)

func sampleTrace(spec string, days float64, seed uint64) []failure.Event {
	r := failure.MustParseRates(spec, 1e6)
	return failure.Trace(r, 1e6, days*failure.SecondsPerDay, failure.Exponential, 0, stats.NewRNG(seed))
}

func TestAnalyzeRates(t *testing.T) {
	horizon := 100 * failure.SecondsPerDay
	events := sampleTrace("16-8-4-2", 100, 1)
	st, err := Analyze(events, 4, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{16, 8, 4, 2} {
		if math.Abs(st[i].RatePerDay-want) > 0.2*want {
			t.Errorf("level %d rate %.2f, want ≈%g", i+1, st[i].RatePerDay, want)
		}
		if st[i].Level != i+1 {
			t.Errorf("level label %d", st[i].Level)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, 2, 0); !errors.Is(err, ErrTrace) {
		t.Errorf("zero horizon: %v", err)
	}
	bad := []failure.Event{{Time: 1, Level: 7}}
	if _, err := Analyze(bad, 2, 100); !errors.Is(err, ErrTrace) {
		t.Errorf("bad level: %v", err)
	}
}

func TestExponentialDiagnostic(t *testing.T) {
	events := sampleTrace("24", 200, 3)
	st, err := Analyze(events, 1, 200*failure.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	if !st[0].LooksExponential(0.2) {
		t.Errorf("exponential trace flagged non-exponential: CV = %g", st[0].CV)
	}
	// A perfectly periodic trace must be flagged.
	var periodic []failure.Event
	for i := 1; i <= 200; i++ {
		periodic = append(periodic, failure.Event{Time: float64(i) * 1000})
	}
	pst, err := Analyze(periodic, 1, 201000)
	if err != nil {
		t.Fatal(err)
	}
	if pst[0].LooksExponential(0.2) {
		t.Errorf("periodic trace flagged exponential: CV = %g", pst[0].CV)
	}
	// Too little data: undecidable.
	small, _ := Analyze(periodic[:5], 1, 6000)
	if small[0].LooksExponential(0.2) {
		t.Error("five events should not certify exponentiality")
	}
}

func TestEstimateRatesRoundTrip(t *testing.T) {
	// Sample at half the baseline scale; rates at scale are halved, and
	// the estimator must scale them back up.
	r := failure.MustParseRates("8-4", 1e6)
	horizon := 400 * failure.SecondsPerDay
	events := failure.Trace(r, 5e5, horizon, failure.Exponential, 0, stats.NewRNG(9))
	got, err := EstimateRates(events, 2, horizon, 5e5, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{8, 4} {
		if math.Abs(got.PerDay[i]-want) > 0.2*want {
			t.Errorf("level %d estimated %g, want ≈%g", i+1, got.PerDay[i], want)
		}
	}
	if _, err := EstimateRates(events, 2, horizon, 0, 1e6); !errors.Is(err, ErrTrace) {
		t.Errorf("zero scale: %v", err)
	}
}
