// Package obs is the deterministic observability layer: a registry of
// counters/gauges/histograms with stable snapshot ordering, and a trace
// buffer that exports a Chrome trace-event timeline keyed on *virtual*
// time (simulator clocks, solver iteration counts) rather than the wall
// clock, so traces are bit-identical across runs and worker counts.
//
// The package is dependency-free (standard library only) and is safe to
// import from the lint-gated model packages (internal/sim, internal/sweep,
// ...): nothing on the Recorder path reads the wall clock, the
// environment, or the global RNG. The one sanctioned wall-clock entry
// point, WallClock, exists so the CLIs can *inject* a clock into layers
// that are forbidden from reading one themselves (see
// docs/OBSERVABILITY.md); measurements taken through an injected clock
// land in the snapshot's volatile section, never the deterministic one.
//
// Determinism contract. Metrics recorded through the deterministic
// methods (Count, Observe) must be pure functions of the work content:
// integer counters are exact and commutative, and histograms accumulate
// their sums in integer microunits, so concurrent recording from any
// number of workers yields byte-identical snapshots. Anything that
// depends on scheduling or the wall clock (latencies, queue depths,
// cache coalescing) goes through the *Volatile methods and is segregated
// in the snapshot, where tools and tests can zero it (Snapshot.StripVolatile).
package obs

// Recorder is the instrumentation sink threaded through the hot layers
// (optimizer, sweep engine, simulators). A nil Recorder is the universal
// "off switch": instrumented packages normalize with OrNop and every call
// becomes a no-op, so golden outputs and determinism tests are unaffected
// by the plumbing.
//
// Deterministic vs volatile: Count/Observe feed the snapshot's
// deterministic section and must only record content-derived values;
// CountVolatile/ObserveVolatile/MaxVolatile feed the volatile section and
// are the only methods allowed to carry wall-clock or
// scheduling-dependent measurements.
//
// Span/Instant append events to the virtual-time trace. The track names a
// timeline (one writer at a time appends to a given track) and must be
// derived from the work's content — a cache key, a scenario label — never
// from which worker happened to execute it. An args map is handed over
// with the call: the recorder may keep it, so the caller builds a fresh
// map per event and never changes it afterwards.
type Recorder interface {
	// Count adds delta to the named deterministic counter.
	Count(name string, delta int64)
	// Observe records v into the named deterministic histogram.
	// Non-finite values are dropped.
	Observe(name string, v float64)
	// CountVolatile adds delta to the named volatile counter.
	CountVolatile(name string, delta int64)
	// ObserveVolatile records v into the named volatile histogram.
	ObserveVolatile(name string, v float64)
	// MaxVolatile raises the named volatile gauge to at least v.
	MaxVolatile(name string, v float64)
	// Span appends a complete trace event: [start, start+dur) in virtual
	// seconds on the named track.
	Span(track, name string, start, dur float64, args map[string]float64)
	// Instant appends an instantaneous trace event at ts virtual seconds.
	Instant(track, name string, ts float64, args map[string]float64)
}

// nop is the no-op Recorder behind OrNop.
type nop struct{}

func (nop) Count(string, int64)                                       {}
func (nop) Observe(string, float64)                                   {}
func (nop) CountVolatile(string, int64)                               {}
func (nop) ObserveVolatile(string, float64)                           {}
func (nop) MaxVolatile(string, float64)                               {}
func (nop) Span(string, string, float64, float64, map[string]float64) {}
func (nop) Instant(string, string, float64, map[string]float64)       {}

// Nop returns the shared no-op Recorder.
func Nop() Recorder { return nop{} }

// OrNop normalizes a possibly-nil Recorder: instrumented packages call it
// once on entry and then record unconditionally.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return nop{}
	}
	return r
}

// tee fans every Recorder call out to multiple sinks.
type tee struct{ sinks []Recorder }

// Tee composes Recorders: every call is forwarded to each non-nil sink in
// order. It is how an experiment keeps a private collector while
// forwarding to a shared one. Nil sinks are dropped; zero sinks yield the
// no-op Recorder, one sink is returned unwrapped.
func Tee(sinks ...Recorder) Recorder {
	kept := make([]Recorder, 0, len(sinks))
	for _, r := range sinks {
		if r != nil {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return Nop()
	case 1:
		return kept[0]
	}
	return tee{sinks: kept}
}

func (t tee) Count(name string, delta int64) {
	for _, r := range t.sinks {
		r.Count(name, delta)
	}
}

func (t tee) Observe(name string, v float64) {
	for _, r := range t.sinks {
		r.Observe(name, v)
	}
}

func (t tee) CountVolatile(name string, delta int64) {
	for _, r := range t.sinks {
		r.CountVolatile(name, delta)
	}
}

func (t tee) ObserveVolatile(name string, v float64) {
	for _, r := range t.sinks {
		r.ObserveVolatile(name, v)
	}
}

func (t tee) MaxVolatile(name string, v float64) {
	for _, r := range t.sinks {
		r.MaxVolatile(name, v)
	}
}

func (t tee) Span(track, name string, start, dur float64, args map[string]float64) {
	for _, r := range t.sinks {
		r.Span(track, name, start, dur, args)
	}
}

func (t tee) Instant(track, name string, ts float64, args map[string]float64) {
	for _, r := range t.sinks {
		r.Instant(track, name, ts, args)
	}
}

// Collector is the standard Recorder implementation: a Registry for
// metrics plus a Trace for the virtual-time timeline. Both halves are
// exported so callers can snapshot and serialize them independently.
type Collector struct {
	Registry *Registry
	Trace    *Trace
}

// NewCollector returns a Collector with a fresh Registry and Trace.
func NewCollector() *Collector {
	return &Collector{Registry: NewRegistry(), Trace: NewTrace()}
}

// Count implements Recorder.
func (c *Collector) Count(name string, delta int64) { c.Registry.count(name, delta, false) }

// Observe implements Recorder.
func (c *Collector) Observe(name string, v float64) { c.Registry.observe(name, v, false) }

// CountVolatile implements Recorder.
func (c *Collector) CountVolatile(name string, delta int64) { c.Registry.count(name, delta, true) }

// ObserveVolatile implements Recorder.
func (c *Collector) ObserveVolatile(name string, v float64) { c.Registry.observe(name, v, true) }

// MaxVolatile implements Recorder.
func (c *Collector) MaxVolatile(name string, v float64) { c.Registry.gaugeMax(name, v) }

// Span implements Recorder. An empty track means "no timeline assigned"
// (e.g. core.Optimize with no ObsLabel): counters still accumulate, but
// the event is dropped rather than filed under a nameless track.
func (c *Collector) Span(track, name string, start, dur float64, args map[string]float64) {
	if track == "" {
		return
	}
	c.Trace.add(track, name, phaseComplete, start, dur, args)
}

// Instant implements Recorder. Empty tracks are dropped; see Span.
func (c *Collector) Instant(track, name string, ts float64, args map[string]float64) {
	if track == "" {
		return
	}
	c.Trace.add(track, name, phaseInstant, ts, 0, args)
}
