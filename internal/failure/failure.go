// Package failure models the per-level failure processes of the multilevel
// checkpoint model.
//
// Each checkpoint level i handles a distinct failure class (Section II):
// level 1 covers transient/software faults; levels 2..L cover progressively
// broader hardware-crash scenarios. The paper parameterizes a scenario as
// "r1-r2-…-rL": r_i failure events per day at level i when running at the
// baseline scale N_b, with the realized rate growing proportionally with
// the execution scale (Section IV-A):
//
//	λ_i(N) = r_i · N / N_b        [failures/day]
//
// Interarrival times are exponential ([37]); a Weibull option exists for
// the distribution ablation.
package failure

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mlckpt/internal/stats"
)

// SecondsPerDay converts the paper's failures-per-day rates to SI seconds.
const SecondsPerDay = 86400.0

// ErrSpec is returned for malformed failure-rate specifications.
var ErrSpec = errors.New("failure: invalid specification")

// Rates is a per-level failure-rate scenario: Rates.PerDay[i] failure events
// per day at level i (0-indexed) at the baseline scale Baseline.
type Rates struct {
	PerDay   []float64 // failures/day per level at the baseline scale
	Baseline float64   // N_b: scale at which PerDay was measured
}

// ParseRates parses the paper's "16-12-8-4" notation into a Rates value at
// the given baseline scale.
func ParseRates(spec string, baseline float64) (Rates, error) {
	if baseline <= 0 {
		return Rates{}, fmt.Errorf("%w: non-positive baseline %g", ErrSpec, baseline)
	}
	parts := strings.Split(strings.TrimSpace(spec), "-")
	if len(parts) == 0 || parts[0] == "" {
		return Rates{}, fmt.Errorf("%w: empty spec %q", ErrSpec, spec)
	}
	per := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Rates{}, fmt.Errorf("%w: level %d rate %q", ErrSpec, i+1, p)
		}
		per[i] = v
	}
	return Rates{PerDay: per, Baseline: baseline}, nil
}

// MustParseRates is ParseRates that panics on error; for tests and tables of
// literal scenarios.
func MustParseRates(spec string, baseline float64) Rates {
	r, err := ParseRates(spec, baseline)
	if err != nil {
		panic(err)
	}
	return r
}

// Levels returns the number of levels in the scenario.
func (r Rates) Levels() int { return len(r.PerDay) }

// PerSecondAt returns λ_i(N) in failures/second at level i (0-indexed) for
// an execution scale of n cores.
func (r Rates) PerSecondAt(i int, n float64) float64 {
	return r.PerDay[i] * n / r.Baseline / SecondsPerDay
}

// TotalPerSecondAt returns Σ_i λ_i(N) in failures/second: the rate the
// single-level model experiences, since every failure — whatever its class —
// forces a PFS-level restart there.
func (r Rates) TotalPerSecondAt(n float64) float64 {
	t := 0.0
	for i := range r.PerDay {
		t += r.PerSecondAt(i, n)
	}
	return t
}

// ExpectedFailures returns μ_i = λ_i(N)·duration for a wall-clock duration
// in seconds (Formula 22 under the μ_i(N) condition of Algorithm 1).
func (r Rates) ExpectedFailures(i int, n, durationSec float64) float64 {
	return r.PerSecondAt(i, n) * durationSec
}

// Distribution selects the interarrival law for sampled failure traces.
type Distribution int

// Supported interarrival distributions.
const (
	Exponential Distribution = iota // memoryless, the paper's default
	Weibull                         // shape < 1: infant-mortality regime
)

func (d Distribution) String() string {
	switch d {
	case Exponential:
		return "exponential"
	case Weibull:
		return "weibull"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// Event is one failure occurrence in a trace.
type Event struct {
	Time  float64 // seconds since execution start (wall clock)
	Level int     // 0-indexed checkpoint level whose class this failure belongs to
}

// Process samples failure events for one execution at a fixed scale.
type Process struct {
	dist  Distribution
	shape float64 // Weibull shape when dist == Weibull
	rng   *stats.RNG
	next  []float64 // next pending arrival per level
	rate  []float64 // λ_i(N) per level, bound once: the scale is fixed
}

// NewProcess creates a sampling process at scale n using the given RNG. No
// rate λ_i(n) may be NaN, nor the Weibull shape: Next orders arrivals by
// their bits, which needs every arrival to be a number. The shape must
// also be positive, or the level never fails. The Weibull scale parameter
// per level is chosen so the mean interarrival matches the exponential
// case (rate equivalence).
func NewProcess(r Rates, n float64, dist Distribution, shape float64, rng *stats.RNG) *Process {
	p := &Process{dist: dist, shape: shape, rng: rng}
	// One allocation carries both per-level slices.
	L := r.Levels()
	buf := make([]float64, 2*L)
	p.next, p.rate = buf[:L:L], buf[L:]
	for i := range p.rate {
		p.rate[i] = r.PerSecondAt(i, n)
	}
	for i := range p.next {
		p.next[i] = interarrival(rng, p.rate[i], dist, shape)
	}
	return p
}

// interarrival samples one interarrival time at the given rate under the
// chosen distribution. Process and Trace share this single code path so
// the Weibull mean-matching (scale = mean / Γ(1+1/shape), making the
// Weibull mean equal the exponential mean at the same rate) cannot drift
// between the two samplers. The exponential arm is stats.RNG.Exponential
// written out, draw for draw, so the simulator's failure path reaches
// math.Log one call below Process.Next.
func interarrival(rng *stats.RNG, rate float64, dist Distribution, shape float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	if dist == Weibull {
		mean := 1 / rate
		// Weibull mean = scale·Γ(1+1/shape); match means.
		scale := mean / math.Gamma(1+1/shape)
		return rng.Weibull(scale, shape)
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}

// Next returns the earliest pending failure event at or after time `from`
// and schedules that level's next arrival. Levels whose rate is zero never
// fire. The second return is false when no level can ever fail.
//
// For the exponential distribution the process is memoryless, so advancing
// `from` without consuming events does not bias arrivals; for Weibull the
// trace should be consumed in order.
//
//mlckpt:hotpath
func (p *Process) Next(from float64) (Event, bool) {
	// The earliest arrival under a strict <, so the lowest level wins a
	// tie. Every pending arrival is +0 ≤ t ≤ +Inf and never NaN, given
	// NewProcess's preconditions, so the arrivals' IEEE bits read as
	// int64 order them as their values do, and the compare becomes a
	// mask: which level fails next is random, and a branch on it
	// mispredicts.
	bb, lvl := int64(math.Float64bits(math.Inf(1))), -1
	for i, t := range p.next {
		tb := int64(math.Float64bits(t))
		m := (tb - bb) >> 63 // all ones when t < best
		bb ^= (bb ^ tb) & m
		lvl ^= (lvl ^ i) & int(m)
	}
	if lvl < 0 {
		return Event{}, false
	}
	best := math.Float64frombits(uint64(bb))
	// Arrivals are absolute times; push the chosen level forward.
	ev := Event{Time: best, Level: lvl}
	p.next[lvl] = best + interarrival(p.rng, p.rate[lvl], p.dist, p.shape)
	if ev.Time < from {
		// The caller skipped past this arrival (e.g. failures during an
		// ignored window); re-issue at the caller's horizon.
		ev.Time = from
	}
	return ev, true
}

// Trace samples all failures in [0, horizon) and returns them sorted by
// time. It is used by trace analysis and tests; the simulator consumes
// events one at a time via Next.
func Trace(r Rates, n, horizon float64, dist Distribution, shape float64, rng *stats.RNG) []Event {
	var out []Event
	for i := range r.PerDay {
		rate := r.PerSecondAt(i, n)
		if rate <= 0 {
			continue
		}
		t := 0.0
		for {
			t += interarrival(rng, rate, dist, shape)
			if t >= horizon {
				break
			}
			out = append(out, Event{Time: t, Level: i})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}
