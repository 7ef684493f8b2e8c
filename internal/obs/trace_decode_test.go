package obs

import (
	"errors"
	"reflect"
	"testing"
)

func TestTraceEventsAccessor(t *testing.T) {
	tr := NewTrace()
	tr.add("sim/a", "checkpoint", phaseComplete, 1.5, 0.25, map[string]float64{"level": 2})
	tr.add("sim/a", "failure", phaseInstant, 3, 0, map[string]float64{"class": 1})
	tr.add("sim/b", "complete", phaseInstant, 9, 0, nil)

	evs := tr.Events("sim/a")
	want := []TrackEvent{
		{Track: "sim/a", Name: "checkpoint", Phase: "X", TS: 1.5, Dur: 0.25, Args: map[string]float64{"level": 2}},
		{Track: "sim/a", Name: "failure", Phase: "i", TS: 3, Args: map[string]float64{"class": 1}},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("Events = %+v, want %+v", evs, want)
	}
	if !evs[0].Span() || evs[1].Span() {
		t.Fatal("Span() misclassifies phases")
	}
	if evs[0].Arg("level") != 2 || evs[0].Arg("absent") != 0 {
		t.Fatal("Arg() lookup broken")
	}
	if got := tr.Events("sim/none"); len(got) != 0 {
		t.Fatalf("unknown track returned %d events", len(got))
	}
}

func TestDecodeTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.add("sim/a", "checkpoint", phaseComplete, 0.5, 1.25, map[string]float64{"level": 1, "progress": 3})
	tr.add("sim/a", "complete", phaseInstant, 2.5, 0, map[string]float64{"progress": 5})
	tr.add("mpisim/w", "barrier", phaseComplete, 0, 0.125, map[string]float64{"seq": 0})

	data, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTraceJSON(data)
	if err != nil {
		t.Fatalf("DecodeTraceJSON: %v", err)
	}
	if !reflect.DeepEqual(back.Tracks(), tr.Tracks()) {
		t.Fatalf("tracks = %v, want %v", back.Tracks(), tr.Tracks())
	}
	for _, track := range tr.Tracks() {
		if !reflect.DeepEqual(back.Events(track), tr.Events(track)) {
			t.Fatalf("track %s: %+v != %+v", track, back.Events(track), tr.Events(track))
		}
	}
	// Re-encoding the decoded trace must reproduce the file bit-for-bit:
	// the ts*1e6 / 1e6 round-trip is exact for these values, and encoding
	// is a pure function of the buffer.
	again, err := back.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("decode/encode round-trip changed the file")
	}
}

// traceRejects are documents DecodeTraceJSON must refuse, each with an
// error wrapping ErrInvalid. FuzzDecodeTraceJSON seeds its corpus with them.
var traceRejects = map[string]string{
	"not JSON":      "]",
	"not JSON (2)":  "[",
	"wrong schema":  `{"schema":"other/v1","displayTimeUnit":"ms","traceEvents":[]}`,
	"unknown field": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[],"extra":1}`,
	"no events":     `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms"}`,
	"orphan tid": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"x","ph":"i","ts":0,"pid":0,"tid":7,"s":"t"}]}`,
	"unknown phase": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"a"}},
		{"name":"x","ph":"B","ts":0,"pid":0,"tid":0}]}`,
	"non-numeric arg": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"a"}},
		{"name":"x","ph":"i","ts":0,"pid":0,"tid":0,"s":"t","args":{"k":"v"}}]}`,
	"empty name": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"a"}},
		{"name":"","ph":"i","ts":0,"pid":0,"tid":0,"s":"t"}]}`,
	"negative ts": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"t"}},
		{"name":"e","ph":"i","s":"t","ts":-5,"pid":0,"tid":0}]}`,
	"negative dur": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"t"}},
		{"name":"e","ph":"X","ts":5,"dur":-1,"pid":0,"tid":0}]}`,
	// The largest float64 decodes to seconds that re-export as +Inf µs.
	"ts past the encoding": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"t"}},
		{"name":"e","ph":"i","s":"t","ts":1.7976931348623157e308,"pid":0,"tid":0}]}`,
	"dur past the encoding": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"t"}},
		{"name":"e","ph":"X","ts":0,"dur":1.7976931348623157e308,"pid":0,"tid":0}]}`,
	// The fuzz corpus entry 120bc37f315d38a9 held both of the next two:
	// an instant carrying a duration the export drops, and data after the
	// document.
	"instant with dur": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[
		{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"t"}},
		{"name":"e","ph":"i","s":"t","ts":10,"dur":10,"pid":0,"tid":0}]}`,
	"trailing data": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[]}0`,
	"second document": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[]}
		{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[]}`,
	"stray brace": `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[]}}`,
}

func TestDecodeTraceJSONRejects(t *testing.T) {
	for name, doc := range traceRejects {
		if _, err := DecodeTraceJSON([]byte(doc)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid, for:\n%s", name, err, doc)
		}
	}
	empty, err := DecodeTraceJSON([]byte(`{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[]}`))
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty trace: %v, %v", empty, err)
	}
}
