// Package trace analyzes failure traces: per-level rate estimation and
// interarrival distribution diagnostics.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mlckpt/internal/failure"
	"mlckpt/internal/stats"
)

// ErrTrace is returned for degenerate traces.
var ErrTrace = errors.New("trace: insufficient data")

// LevelStats summarizes one level's failure stream.
type LevelStats struct {
	Level        int
	Count        int
	RatePerDay   float64 // events per day over the horizon
	MeanInterval float64 // mean interarrival, seconds
	CV           float64 // coefficient of variation of interarrivals
}

// Analyze computes per-level statistics of a trace observed over the given
// horizon (seconds). levels is the number of checkpoint levels.
func Analyze(events []failure.Event, levels int, horizon float64) ([]LevelStats, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %g", ErrTrace, horizon)
	}
	out := make([]LevelStats, levels)
	perLevel := make([][]float64, levels)
	for _, e := range events {
		if e.Level < 0 || e.Level >= levels {
			return nil, fmt.Errorf("%w: event level %d out of range", ErrTrace, e.Level)
		}
		perLevel[e.Level] = append(perLevel[e.Level], e.Time)
	}
	for lvl := range out {
		ts := perLevel[lvl]
		sort.Float64s(ts)
		st := LevelStats{Level: lvl + 1, Count: len(ts)}
		st.RatePerDay = float64(len(ts)) / (horizon / failure.SecondsPerDay)
		if len(ts) >= 2 {
			gaps := make([]float64, len(ts)-1)
			for i := 1; i < len(ts); i++ {
				gaps[i-1] = ts[i] - ts[i-1]
			}
			s := stats.Summarize(gaps)
			st.MeanInterval = s.Mean
			if s.Mean > 0 {
				st.CV = s.StdDev / s.Mean
			}
		}
		out[lvl] = st
	}
	return out, nil
}

// LooksExponential reports whether a level's interarrivals are consistent
// with an exponential law via the coefficient of variation (CV ≈ 1 for
// exponential; CV << 1 periodic; CV >> 1 bursty). tol is the accepted
// deviation from 1 (e.g. 0.2).
func (s LevelStats) LooksExponential(tol float64) bool {
	if s.Count < 30 {
		return false // not enough evidence either way
	}
	return math.Abs(s.CV-1) <= tol
}

// EstimateRates fits a failure.Rates from an observed trace at a known
// scale: the per-level per-day rates are scaled back to the baseline.
func EstimateRates(events []failure.Event, levels int, horizon, scale, baseline float64) (failure.Rates, error) {
	st, err := Analyze(events, levels, horizon)
	if err != nil {
		return failure.Rates{}, err
	}
	if scale <= 0 || baseline <= 0 {
		return failure.Rates{}, fmt.Errorf("%w: scale %g baseline %g", ErrTrace, scale, baseline)
	}
	per := make([]float64, levels)
	for i, s := range st {
		per[i] = s.RatePerDay * baseline / scale
	}
	return failure.Rates{PerDay: per, Baseline: baseline}, nil
}
