package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics. An empty sample yields a zero
// Summary with NaN moments.
func Summarize(xs []float64) Summary {
	s := Summary{Count: len(xs)}
	if len(xs) == 0 {
		s.Mean, s.StdDev, s.Min, s.Max, s.Median = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, v := range xs {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, v := range xs {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Mean returns the arithmetic mean (NaN for an empty sample).
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// CI95 returns the half-width of the 95% confidence interval of the mean
// under a normal approximation (1.96·σ/√n). The experiment tables report
// means of 100 runs, as in the paper.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := Summarize(xs)
	return 1.96 * s.StdDev / math.Sqrt(float64(len(xs)))
}

// RelErr returns |a-b| / max(|a|, |b|, tiny), a symmetric relative error.
// Experiment validation (Figure 4) asserts on this metric (< 4%).
func RelErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-300 {
		return 0
	}
	return math.Abs(a-b) / den
}

// String renders the summary compactly for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.3g min=%.6g med=%.6g max=%.6g",
		s.Count, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}
