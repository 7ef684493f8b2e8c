package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %g, want 5", s.Mean)
	}
	if math.Abs(s.StdDev-2.138) > 0.001 {
		t.Errorf("StdDev = %g, want ≈2.138", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %g/%g", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %g, want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.Median) {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Mean != 3.5 || s.Median != 3.5 || s.Min != 3.5 || s.Max != 3.5 {
		t.Errorf("single summary = %+v", s)
	}
	if s.StdDev != 0 {
		t.Errorf("single-sample StdDev = %g, want 0", s.StdDev)
	}
}

func TestMedianOdd(t *testing.T) {
	if m := Summarize([]float64{9, 1, 5}).Median; m != 5 {
		t.Errorf("Median = %g, want 5", m)
	}
}

func TestRelErr(t *testing.T) {
	if e := RelErr(100, 104); math.Abs(e-4.0/104.0) > 1e-12 {
		t.Errorf("RelErr = %g", e)
	}
	if e := RelErr(0, 0); e != 0 {
		t.Errorf("RelErr(0,0) = %g", e)
	}
	if e := RelErr(-5, 5); e != 2 {
		t.Errorf("RelErr(-5,5) = %g, want 2", e)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	if !strings.Contains(str, "n=3") || !strings.Contains(str, "mean=2") {
		t.Errorf("String() = %q", str)
	}
}

// Property: min <= median <= max and min <= mean <= max for any sample.
func TestSummaryOrderingProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
