package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestTraceExportShape(t *testing.T) {
	c := NewCollector()
	c.Span("sim/a", "checkpoint", 10, 2.5, map[string]float64{"level": 3})
	c.Instant("sim/a", "failure", 14, map[string]float64{"class": 1})
	c.Span("opt/b", "outer-1", 0, 30, nil)

	b, err := c.Trace.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTraceJSON(b); err != nil {
		t.Fatalf("own export rejected: %v", err)
	}
	var doc struct {
		Schema      string `json:"schema"`
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			TID  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != TraceSchema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	// 2 thread_name metadata records + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	// Tracks sorted: opt/b gets tid 0, sim/a tid 1.
	if doc.TraceEvents[0].Name != "thread_name" || doc.TraceEvents[0].TID != 0 ||
		!strings.Contains(string(doc.TraceEvents[0].Args), "opt/b") {
		t.Errorf("first metadata record wrong: %+v", doc.TraceEvents[0])
	}
	var ckpt bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "checkpoint" {
			ckpt = true
			if ev.TS != 10e6 || ev.Dur != 2.5e6 {
				t.Errorf("checkpoint ts/dur = %g/%g µs", ev.TS, ev.Dur)
			}
		}
	}
	if !ckpt {
		t.Error("checkpoint span missing")
	}
}

// TestTraceDeterminism: tracks written concurrently (each by one
// goroutine, as the engine guarantees) export byte-identically no matter
// how the writers interleave.
func TestTraceDeterminism(t *testing.T) {
	build := func(workers int) []byte {
		c := NewCollector()
		tracks := []string{"t/0", "t/1", "t/2", "t/3", "t/4", "t/5"}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ti := w; ti < len(tracks); ti += workers {
					for i := 0; i < 20; i++ {
						c.Span(tracks[ti], "step", float64(i), 0.5, map[string]float64{"i": float64(i)})
					}
				}
			}(w)
		}
		wg.Wait()
		b, err := c.Trace.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(build(1), build(6)) {
		t.Fatal("trace export depends on writer scheduling")
	}
}

func TestTraceDropsNonFinite(t *testing.T) {
	c := NewCollector()
	c.Span("t", "bad", math.NaN(), 1, nil)
	c.Instant("t", "bad2", math.Inf(1), nil)
	c.Span("t", "good", 1, math.Inf(-1), nil)
	c.Span("t", "kept", 1, 1, map[string]float64{"ok": 2, "nan": math.NaN()})
	if c.Trace.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Trace.Len())
	}
	b, err := c.Trace.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTraceJSON(b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "nan") {
		t.Error("non-finite arg survived into export")
	}
}

// DecodeTraceJSON is the trace validator that obstool validate runs over
// exported artifacts; TestDecodeTraceJSONRejects holds the fuller table.
func TestValidateTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":     "[",
		"wrong schema": `{"schema":"x","displayTimeUnit":"ms","traceEvents":[]}`,
		"bad phase":    `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[{"name":"e","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		"orphan tid":   `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[{"name":"e","ph":"i","s":"t","ts":0,"pid":0,"tid":3}]}`,
		"negative ts":  `{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"t"}},{"name":"e","ph":"i","s":"t","ts":-5,"pid":0,"tid":0}]}`,
	}
	for name, doc := range cases {
		if _, err := DecodeTraceJSON([]byte(doc)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
	if _, err := DecodeTraceJSON([]byte(`{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[]}`)); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}

func TestWallClockAdvances(t *testing.T) {
	a := WallClock()
	b := WallClock()
	if b < a || a <= 0 {
		t.Fatalf("WallClock not monotone-ish: %g then %g", a, b)
	}
}
