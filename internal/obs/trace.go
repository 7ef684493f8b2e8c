package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
)

// TraceSchema identifies the trace JSON format. The file is a standard
// Chrome trace-event JSON object (load it in chrome://tracing or
// https://ui.perfetto.dev) with this extra top-level key, which viewers
// ignore.
const TraceSchema = "mlckpt.trace/v1"

const (
	phaseComplete = "X" // complete event: ts + dur
	phaseInstant  = "i" // instant event
	phaseMeta     = "M" // metadata (thread names)
)

// Trace buffers virtual-time events grouped by track. A track is one
// timeline — a simulated execution, one Algorithm 1 solve, one mpisim
// world — and is only ever appended to by a single computation at a time,
// so per-track order is the deterministic program order. Timestamps are
// virtual seconds (simulator clocks, solver iteration counts), never the
// wall clock, which is what makes an exported trace byte-identical across
// runs and worker counts.
type Trace struct {
	mu     sync.Mutex
	tracks map[string][]traceEvent
}

type traceEvent struct {
	name  string
	phase string
	ts    float64 // virtual seconds
	dur   float64 // virtual seconds (complete events)
	args  map[string]float64
}

// NewTrace returns an empty trace buffer.
func NewTrace() *Trace {
	return &Trace{tracks: map[string][]traceEvent{}}
}

// add buffers one event. It keeps args, which the caller hands over (see
// Recorder), dropping its non-finite values in place.
func (t *Trace) add(track, name, phase string, ts, dur float64, args map[string]float64) {
	if math.IsNaN(ts) || math.IsInf(ts, 0) || math.IsNaN(dur) || math.IsInf(dur, 0) {
		return
	}
	if len(args) == 0 {
		args = nil
	}
	for k, v := range args {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(args, k)
		}
	}
	t.mu.Lock()
	t.tracks[track] = append(t.tracks[track], traceEvent{name: name, phase: phase, ts: ts, dur: dur, args: args})
	t.mu.Unlock()
}

// TrackEvent is the exported view of one buffered event, used by trace
// consumers (the waste-attribution engine, cmd/obstool) that walk a track
// in append order. Phase is "X" for complete spans and "i" for instants.
type TrackEvent struct {
	Track string
	Name  string
	Phase string
	TS    float64 // virtual seconds
	Dur   float64 // virtual seconds; 0 for instants
	Args  map[string]float64
}

// Span reports whether the event is a complete span (as opposed to an
// instant).
func (e TrackEvent) Span() bool { return e.Phase == phaseComplete }

// Arg returns a named argument (0 when absent).
func (e TrackEvent) Arg(name string) float64 { return e.Args[name] }

// Events returns a copy of one track's events in append order — the
// deterministic program order of the computation that owned the track.
// Args maps are shared read-only with the buffer; callers must not mutate
// them.
func (t *Trace) Events(track string) []TrackEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := t.tracks[track]
	out := make([]TrackEvent, len(evs))
	for i, ev := range evs {
		out[i] = TrackEvent{Track: track, Name: ev.name, Phase: ev.phase, TS: ev.ts, Dur: ev.dur, Args: ev.args}
	}
	return out
}

// DecodeTraceJSON parses an exported Chrome trace (the MarshalJSON format)
// back into a Trace, so tools can consume artifact files with the same
// accessors they use in-process. It is also the trace validator: one
// JSON document in the exporter schema, a traceEvents array, named events of known phases,
// timestamps and span durations that are not negative and that the export
// can write back, no duration on an instant, and thread_name metadata
// ahead of every referenced tid. Timestamps round-trip through the file's
// microsecond encoding, which costs at most one ulp of virtual time; the
// attribution identity is insensitive to that (see internal/obs/attrib).
func DecodeTraceJSON(data []byte) (*Trace, error) {
	var ct chromeTrace
	if err := decodeStrict(data, &ct); err != nil {
		return nil, err
	}
	if ct.Schema != TraceSchema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrInvalid, ct.Schema, TraceSchema)
	}
	if ct.TraceEvents == nil {
		return nil, fmt.Errorf("%w: missing traceEvents", ErrInvalid)
	}
	names := map[int]string{}
	tr := NewTrace()
	for _, ev := range ct.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("%w: event with empty name", ErrInvalid)
		}
		if ev.Ph == phaseMeta {
			if name, ok := ev.Args["name"].(string); ok && ev.Name == "thread_name" {
				names[ev.TID] = name
			}
			continue
		}
		if ev.Ph != phaseComplete && ev.Ph != phaseInstant {
			return nil, fmt.Errorf("%w: event %q: unknown phase %q", ErrInvalid, ev.Name, ev.Ph)
		}
		if !encodable(ev.TS) {
			return nil, fmt.Errorf("%w: event %q: bad timestamp %g", ErrInvalid, ev.Name, ev.TS)
		}
		if ev.Dur != nil && (!encodable(*ev.Dur) || ev.Ph == phaseInstant) {
			return nil, fmt.Errorf("%w: event %q: bad duration %g for phase %q", ErrInvalid, ev.Name, *ev.Dur, ev.Ph)
		}
		track, ok := names[ev.TID]
		if !ok {
			return nil, fmt.Errorf("%w: event %q: tid %d has no thread_name metadata", ErrInvalid, ev.Name, ev.TID)
		}
		var args map[string]float64
		for k, v := range ev.Args {
			f, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("%w: event %q: non-numeric arg %q", ErrInvalid, ev.Name, k)
			}
			if args == nil {
				args = make(map[string]float64, len(ev.Args))
			}
			args[k] = f
		}
		dur := 0.0
		if ev.Dur != nil {
			dur = *ev.Dur / 1e6
		}
		tr.add(track, ev.Name, ev.Ph, ev.TS/1e6, dur, args)
	}
	return tr, nil
}

// encodable reports whether us microseconds is a valid timestamp or
// duration in a trace file: not negative, and still finite after the
// decode to seconds and the export back to microseconds.
func encodable(us float64) bool {
	return us >= 0 && !math.IsInf(us/1e6*1e6, 0)
}

// Len reports the number of buffered events across all tracks.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, evs := range t.tracks {
		n += len(evs)
	}
	return n
}

// Tracks returns the track names, sorted.
func (t *Trace) Tracks() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.tracks))
	for name := range t.tracks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// chromeEvent is one trace-event JSON entry. Field order is fixed by the
// struct; args maps marshal with sorted keys — the whole file is a pure
// function of the buffered events.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds of virtual time
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	Schema          string        `json:"schema"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// MarshalJSON exports the buffer as Chrome trace-event JSON: tracks are
// sorted by name and assigned thread ids in that order (with thread_name
// metadata records), and each track's events appear in append order.
func (t *Trace) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.tracks))
	for name := range t.tracks {
		names = append(names, name)
	}
	sort.Strings(names)

	var events []chromeEvent
	for tid, name := range names {
		events = append(events, chromeEvent{
			Name: "thread_name",
			Ph:   phaseMeta,
			PID:  0,
			TID:  tid,
			Args: map[string]any{"name": name},
		})
	}
	for tid, name := range names {
		for _, ev := range t.tracks[name] {
			ce := chromeEvent{
				Name: ev.name,
				Ph:   ev.phase,
				TS:   ev.ts * 1e6,
				PID:  0,
				TID:  tid,
			}
			if ev.phase == phaseComplete {
				dur := ev.dur * 1e6
				ce.Dur = &dur
			}
			if ev.phase == phaseInstant {
				ce.S = "t"
			}
			if len(ev.args) > 0 {
				args := make(map[string]any, len(ev.args))
				for k, v := range ev.args {
					args[k] = v
				}
				ce.Args = args
			}
			events = append(events, ce)
		}
	}
	if events == nil {
		events = []chromeEvent{}
	}
	b, err := json.MarshalIndent(chromeTrace{
		Schema:          TraceSchema,
		DisplayTimeUnit: "ms",
		TraceEvents:     events,
	}, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
