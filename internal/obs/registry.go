package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
)

// MetricsSchema identifies the metrics snapshot JSON format.
const MetricsSchema = "mlckpt.metrics/v1"

// bucketBounds are the histogram upper bounds (inclusive), one per decade
// from a microsecond to a gigasecond; observations above the last bound
// land in the overflow bucket. A fixed global layout keeps snapshots from
// different runs directly comparable.
var bucketBounds = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
}

// Registry holds named metrics in two sections: deterministic (pure
// functions of the work content — identical for every worker count) and
// volatile (wall-clock or scheduling-dependent). Snapshots order metrics
// by name within each section, so serialized snapshots are byte-stable.
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]*metric // deterministic section
	volatile map[string]*metric // volatile section
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	kind metricKind

	counter int64

	gauge    float64
	gaugeSet bool

	count     int64
	sumMicros int64 // Σ round(v·1e6): exact, order-independent
	min, max  float64
	buckets   []int64 // parallel to bucketBounds
	overflow  int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}, volatile: map[string]*metric{}}
}

func (r *Registry) section(volatile bool) map[string]*metric {
	if volatile {
		return r.volatile
	}
	return r.metrics
}

func (r *Registry) get(name string, volatile bool, kind metricKind) *metric {
	sec := r.section(volatile)
	m, ok := sec[name]
	if !ok {
		m = &metric{kind: kind, min: math.Inf(1), max: math.Inf(-1)}
		sec[name] = m
	}
	return m
}

func (r *Registry) count(name string, delta int64, volatile bool) {
	r.mu.Lock()
	r.get(name, volatile, kindCounter).counter += delta
	r.mu.Unlock()
}

// maxObsMicros caps one observation's contribution to a histogram sum at
// ±1e15 microunits (1e9 natural units — the top bucket bound). Two hazards
// force the cap: converting an out-of-int64-range float is
// implementation-specific in Go (silent, platform-dependent garbage), and
// an unchecked += can wrap int64 silently. Both would corrupt the
// deterministic section without a trace. A clamped observation instead
// increments the adjacent "<name>_saturated" counter in the same section —
// loud, exact, and order-independent (the clamp is per value, so the
// counter and the sum are commutative over any observation order).
const maxObsMicros = 1e15

// satAddInt64 adds b to a, saturating at the int64 range instead of
// wrapping. Reaching the rails takes ~9.2e3 already-clamped observations,
// far beyond any simulated quantity; the saturation is a backstop, not an
// expected path.
func satAddInt64(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt64
	}
	if b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

func (r *Registry) observe(name string, v float64, volatile bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	micros := math.Round(v * 1e6)
	saturated := false
	if micros > maxObsMicros {
		micros, saturated = maxObsMicros, true
	} else if micros < -maxObsMicros {
		micros, saturated = -maxObsMicros, true
	}
	r.mu.Lock()
	if saturated {
		r.get(name+"_saturated", volatile, kindCounter).counter++
	}
	m := r.get(name, volatile, kindHistogram)
	m.count++
	m.sumMicros = satAddInt64(m.sumMicros, int64(micros))
	if v < m.min {
		m.min = v
	}
	if v > m.max {
		m.max = v
	}
	if m.buckets == nil {
		m.buckets = make([]int64, len(bucketBounds))
	}
	placed := false
	for i, b := range bucketBounds {
		if v <= b {
			m.buckets[i]++
			placed = true
			break
		}
	}
	if !placed {
		m.overflow++
	}
	r.mu.Unlock()
}

func (r *Registry) gaugeMax(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.mu.Lock()
	m := r.get(name, true, kindGauge)
	if !m.gaugeSet || v > m.gauge {
		m.gauge = v
		m.gaugeSet = true
	}
	r.mu.Unlock()
}

// Bucket is one non-empty histogram bucket: the count of observations at
// or below the upper bound LE (and above the previous bound).
type Bucket struct {
	LE float64 `json:"le"`
	N  int64   `json:"n"`
}

// Metric is one serialized metric. Counter metrics carry Value; gauges
// carry Gauge; histograms carry Count/SumMicros/Min/Max/Buckets/Overflow.
// Histogram sums are reported in integer microunits so they are exact and
// independent of observation order.
type Metric struct {
	Name      string   `json:"name"`
	Type      string   `json:"type"`
	Value     int64    `json:"value,omitempty"`
	Gauge     float64  `json:"gauge,omitempty"`
	Count     int64    `json:"count,omitempty"`
	SumMicros int64    `json:"sum_micros,omitempty"`
	Min       float64  `json:"min,omitempty"`
	Max       float64  `json:"max,omitempty"`
	Buckets   []Bucket `json:"buckets,omitempty"`
	Overflow  int64    `json:"overflow,omitempty"`
}

// Sum returns a histogram metric's sum in natural units.
func (m Metric) Sum() float64 { return float64(m.SumMicros) / 1e6 }

// Mean returns a histogram metric's mean in natural units (0 when empty).
func (m Metric) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum() / float64(m.Count)
}

// Snapshot is a point-in-time serialization of a Registry.
type Snapshot struct {
	Schema string `json:"schema"`
	// CapturedUnixNS is a wall-clock stamp set by the exporting CLI (the
	// registry itself never reads the clock); 0 when unstamped. Tools
	// comparing snapshots across runs should zero it (StripVolatile).
	CapturedUnixNS int64 `json:"captured_unix_ns"`
	// Metrics is the deterministic section: byte-identical for every
	// worker count given the same work.
	Metrics []Metric `json:"metrics"`
	// Volatile is the wall-clock / scheduling-dependent section.
	Volatile []Metric `json:"volatile"`
}

// Snapshot captures the registry with stable (name-sorted) ordering.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Snapshot{
		Schema:   MetricsSchema,
		Metrics:  exportSection(r.metrics),
		Volatile: exportSection(r.volatile),
	}
}

func exportSection(sec map[string]*metric) []Metric {
	names := make([]string, 0, len(sec))
	for name := range sec {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Metric, 0, len(names))
	for _, name := range names {
		m := sec[name]
		e := Metric{Name: name}
		switch m.kind {
		case kindCounter:
			e.Type = "counter"
			e.Value = m.counter
		case kindGauge:
			e.Type = "gauge"
			e.Gauge = m.gauge
		case kindHistogram:
			e.Type = "histogram"
			e.Count = m.count
			e.SumMicros = m.sumMicros
			if m.count > 0 {
				e.Min = m.min
				e.Max = m.max
			}
			for i, n := range m.buckets {
				if n > 0 {
					e.Buckets = append(e.Buckets, Bucket{LE: bucketBounds[i], N: n})
				}
			}
			e.Overflow = m.overflow
		}
		out = append(out, e)
	}
	return out
}

// Counter returns the value of a named counter in the deterministic
// section (false when absent or not a counter).
func (s Snapshot) Counter(name string) (int64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Type == "counter" {
			return m.Value, true
		}
	}
	return 0, false
}

// StripVolatile zeroes everything a wall clock or the scheduler can
// influence — the volatile section and the capture stamp — leaving only
// the deterministic metrics. Tools diffing snapshots across runs or
// worker counts call this first.
func (s *Snapshot) StripVolatile() {
	s.CapturedUnixNS = 0
	s.Volatile = []Metric{}
}

// MarshalIndent serializes the snapshot as stable, human-diffable JSON.
func (s Snapshot) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
