package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 colliding values", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s := r.Split()
	matches := 0
	for i := 0; i < 1000; i++ {
		if r.Uint64() == s.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Errorf("split stream tracks parent: %d/1000 collisions", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Uniform(10, 20)
	}
	mean := sum / float64(n)
	if math.Abs(mean-15) > 0.05 {
		t.Errorf("Uniform(10,20) mean = %g, want ≈15", mean)
	}
}

func TestExponentialMoments(t *testing.T) {
	r := NewRNG(11)
	rate := 2.5
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(rate)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("exponential mean = %g, want %g", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate)) > 0.02 {
		t.Errorf("exponential variance = %g, want %g", variance, 1/(rate*rate))
	}
}

func TestExponentialZeroRate(t *testing.T) {
	r := NewRNG(1)
	if v := r.Exponential(0); !math.IsInf(v, 1) {
		t.Errorf("rate 0 should yield +Inf, got %g", v)
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	r := NewRNG(13)
	n := 100000
	scale := 4.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(scale, 1)
	}
	mean := sum / float64(n)
	if math.Abs(mean-scale) > 0.1 {
		t.Errorf("Weibull(4,1) mean = %g, want ≈4", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(17)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.02 || math.Abs(sd-2) > 0.02 {
		t.Errorf("Normal(5,2) sample moments (%g, %g)", mean, sd)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(23)
	for i := 0; i < 100000; i++ {
		v := r.Jitter(10, 0.3)
		if v < 7-1e-9 || v > 13+1e-9 {
			t.Fatalf("Jitter(10, 0.3) = %g outside [7, 13]", v)
		}
	}
	if v := r.Jitter(10, 0); v != 10 {
		t.Errorf("zero ratio should be identity, got %g", v)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// Property: jitter never goes negative even for ratios > 1.
func TestJitterNonNegativeProperty(t *testing.T) {
	prop := func(seed uint64, ratio float64) bool {
		r := NewRNG(seed)
		ratio = math.Abs(math.Mod(ratio, 3))
		for i := 0; i < 100; i++ {
			if r.Jitter(5, ratio) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Normal samples a normal value via Box–Muller.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}
