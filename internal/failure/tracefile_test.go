package failure

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mlckpt/internal/stats"
)

func TestTraceRoundTrip(t *testing.T) {
	rates := MustParseRates("16-12-8-4", 1024)
	events := Trace(rates, 1024, 30*SecondsPerDay, Exponential, 0, stats.NewRNG(7))
	if len(events) == 0 {
		t.Fatal("empty sampled trace")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip length %d, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i].Level != events[i].Level {
			t.Fatalf("event %d level %d, want %d", i, got[i].Level, events[i].Level)
		}
		if diff := got[i].Time - events[i].Time; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("event %d time %g, want %g", i, got[i].Time, events[i].Time)
		}
	}
}

func TestTraceRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events, want 0", len(got))
	}
}

func TestWriteTraceRejectsUnsorted(t *testing.T) {
	events := []Event{{Time: 5, Level: 0}, {Time: 1, Level: 1}}
	if err := WriteTrace(&bytes.Buffer{}, events); !errors.Is(err, ErrTrace) {
		t.Fatalf("err = %v, want ErrTrace", err)
	}
}

func TestReadTraceStrict(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"not json":        "hello\n",
		"wrong format":    `{"format":"other","version":1,"events":0}` + "\n",
		"wrong version":   `{"format":"mlckpt-failure-trace","version":2,"events":0}` + "\n",
		"unknown field":   `{"format":"mlckpt-failure-trace","version":1,"events":1}` + "\n" + `{"t":1,"level":0,"extra":true}` + "\n",
		"negative level":  `{"format":"mlckpt-failure-trace","version":1,"events":1}` + "\n" + `{"t":1,"level":-1}` + "\n",
		"negative time":   `{"format":"mlckpt-failure-trace","version":1,"events":1}` + "\n" + `{"t":-1,"level":0}` + "\n",
		"unsorted":        `{"format":"mlckpt-failure-trace","version":1,"events":2}` + "\n" + `{"t":5,"level":0}` + "\n" + `{"t":1,"level":0}` + "\n",
		"truncated body":  `{"format":"mlckpt-failure-trace","version":1,"events":3}` + "\n" + `{"t":1,"level":0}` + "\n",
		"count too small": `{"format":"mlckpt-failure-trace","version":1,"events":0}` + "\n" + `{"t":1,"level":0}` + "\n",
		// Forged counts must not size the event buffer: MaxInt64 used to
		// panic in make, four billion used to request 64 GB.
		"count MaxInt64": `{"format":"mlckpt-failure-trace","version":1,"events":9223372036854775807}` + "\n",
		"count 4e9":      `{"format":"mlckpt-failure-trace","version":1,"events":4000000000}` + "\n" + `{"t":1,"level":0}` + "\n",
	}
	for name, doc := range cases {
		if _, err := ReadTrace(strings.NewReader(doc)); !errors.Is(err, ErrTrace) {
			t.Errorf("%s: err = %v, want ErrTrace", name, err)
		}
	}
}

// TestWeibullSharedSampler pins the satellite fix: Trace and Process draw
// from one interarrival code path, so at the same seed the first Weibull
// arrival of a single-level scenario must be identical.
func TestWeibullSharedSampler(t *testing.T) {
	rates := MustParseRates("4", 64)
	const shape = 0.7
	proc := NewProcess(rates, 64, Weibull, shape, stats.NewRNG(11))
	ev, ok := proc.Next(0)
	if !ok {
		t.Fatal("process produced no event")
	}
	traced := Trace(rates, 64, ev.Time+1, Weibull, shape, stats.NewRNG(11))
	if len(traced) == 0 {
		t.Fatal("trace produced no event")
	}
	if traced[0].Time != ev.Time {
		t.Fatalf("first arrival differs: trace %g, process %g", traced[0].Time, ev.Time)
	}
}

// TestReadTraceBeyondPrealloc reads a trace longer than the capacity
// ReadTrace reserves from the header, so the buffer must grow by append.
func TestReadTraceBeyondPrealloc(t *testing.T) {
	events := make([]Event, 2*maxTracePrealloc+1)
	for i := range events {
		events[i] = Event{Time: float64(i), Level: i % 4}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) || got[len(got)-1] != events[len(events)-1] {
		t.Fatalf("read %d events ending %v, want %d ending %v",
			len(got), got[len(got)-1], len(events), events[len(events)-1])
	}
}
