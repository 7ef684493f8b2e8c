package failure

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrTrace is returned for malformed on-disk failure traces.
var ErrTrace = errors.New("failure: invalid trace file")

// Trace file format (JSONL): the first line is a header object pinning the
// format name and version, every following line is one failure event with
// a time in seconds and a 0-indexed level class. Events must be sorted by
// time, which is the order the simulator's replay path consumes them in.
const (
	// TraceFormat names the on-disk failure-trace format.
	TraceFormat = "mlckpt-failure-trace"
	// TraceVersion is the current format version. Readers reject any other
	// version rather than guessing: replaying a misread trace silently
	// changes reproduced results.
	TraceVersion = 1
)

// maxTracePrealloc bounds the capacity ReadTrace reserves from the
// header's event count. The count is untrusted input: a forged one must
// not size an allocation (math.MaxInt64 would panic in make, and a few
// billion would exhaust memory). Longer traces grow by append, and the
// count is still checked against the body.
const maxTracePrealloc = 1 << 12

// traceHeader is the first JSONL line of a trace file.
type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Events  int    `json:"events"`
}

// traceLine is the wire form of one Event.
type traceLine struct {
	T     float64 `json:"t"`
	Level int     `json:"level"`
}

// WriteTrace serializes events (which must be sorted by time) as versioned
// JSONL. The header records the event count so truncated files are
// detectable on read.
func WriteTrace(w io.Writer, events []Event) error {
	for i, ev := range events {
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || ev.Time < 0 {
			return fmt.Errorf("%w: event %d time %g", ErrTrace, i, ev.Time)
		}
		if ev.Level < 0 {
			return fmt.Errorf("%w: event %d level %d", ErrTrace, i, ev.Level)
		}
		if i > 0 && ev.Time < events[i-1].Time {
			return fmt.Errorf("%w: events not sorted at index %d (%g after %g)",
				ErrTrace, i, ev.Time, events[i-1].Time)
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Format: TraceFormat, Version: TraceVersion, Events: len(events)}); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(traceLine{T: ev.Time, Level: ev.Level}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteTrace. Decoding is strict:
// unknown fields, a foreign format name, a version other than
// TraceVersion, out-of-order or non-finite times, negative levels, and a
// header count that disagrees with the body are all errors.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: empty file", ErrTrace)
	}
	var hdr traceHeader
	if err := strictUnmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTrace, err)
	}
	if hdr.Format != TraceFormat {
		return nil, fmt.Errorf("%w: format %q, want %q", ErrTrace, hdr.Format, TraceFormat)
	}
	if hdr.Version != TraceVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrTrace, hdr.Version, TraceVersion)
	}
	if hdr.Events < 0 {
		return nil, fmt.Errorf("%w: negative event count %d", ErrTrace, hdr.Events)
	}
	events := make([]Event, 0, min(hdr.Events, maxTracePrealloc))
	line := 1
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var tl traceLine
		if err := strictUnmarshal(sc.Bytes(), &tl); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrTrace, line, err)
		}
		if math.IsNaN(tl.T) || math.IsInf(tl.T, 0) || tl.T < 0 {
			return nil, fmt.Errorf("%w: line %d: time %g", ErrTrace, line, tl.T)
		}
		if tl.Level < 0 {
			return nil, fmt.Errorf("%w: line %d: level %d", ErrTrace, line, tl.Level)
		}
		if n := len(events); n > 0 && tl.T < events[n-1].Time {
			return nil, fmt.Errorf("%w: line %d: time %g before previous %g",
				ErrTrace, line, tl.T, events[n-1].Time)
		}
		events = append(events, Event{Time: tl.T, Level: tl.Level})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(events) != hdr.Events {
		return nil, fmt.Errorf("%w: header says %d events, file holds %d (truncated?)",
			ErrTrace, hdr.Events, len(events))
	}
	return events, nil
}

// strictUnmarshal decodes one JSON document rejecting unknown fields and
// trailing garbage.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}
