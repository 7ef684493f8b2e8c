package obs

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// sameTime reports whether two virtual times agree up to the rounding of a
// round trip through the trace file's microsecond encoding: two ulps.
func sameTime(a, b float64) bool {
	lo := math.Nextafter(math.Nextafter(a, math.Inf(-1)), math.Inf(-1))
	hi := math.Nextafter(math.Nextafter(a, math.Inf(1)), math.Inf(1))
	return lo <= b && b <= hi
}

// FuzzDecodeTraceJSON feeds arbitrary bytes to the trace decoder behind
// attrib.FromTrace and every obstool mode that reads a trace. Each input
// either fails with an error wrapping ErrInvalid, or decodes to a trace
// whose re-export decodes to the same tracks, names, phases and args, with
// timestamps and durations equal up to the microsecond encoding's
// rounding. A panic fails.
func FuzzDecodeTraceJSON(f *testing.F) {
	c := NewCollector()
	c.Span("sim/a", "checkpoint", 0.5, 1.25, map[string]float64{"level": 1, "progress": 3})
	c.Instant("sim/a", "failure", 2, map[string]float64{"class": 2, "progress": 2.5})
	c.Instant("sim/a", "complete", 2.5, nil)
	c.Span("mpisim/w", "barrier", 0, 0.125, map[string]float64{"seq": 0})
	own, err := c.Trace.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(own)
	f.Add([]byte(`{"schema":"mlckpt.trace/v1","displayTimeUnit":"ms","traceEvents":[]}`))
	for _, doc := range traceRejects {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTraceJSON(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("error %v does not wrap ErrInvalid", err)
			}
			return
		}
		out, err := tr.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded trace does not re-export: %v", err)
		}
		back, err := DecodeTraceJSON(out)
		if err != nil {
			t.Fatalf("re-export rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back.Tracks(), tr.Tracks()) {
			t.Fatalf("tracks %q, want %q", back.Tracks(), tr.Tracks())
		}
		for _, track := range tr.Tracks() {
			want, got := tr.Events(track), back.Events(track)
			if len(got) != len(want) {
				t.Fatalf("track %q: %d events, want %d", track, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.Name != w.Name || g.Phase != w.Phase || !reflect.DeepEqual(g.Args, w.Args) ||
					!sameTime(w.TS, g.TS) || !sameTime(w.Dur, g.Dur) {
					t.Fatalf("track %q event %d: %+v, want %+v", track, i, g, w)
				}
			}
		}
	})
}

// FuzzValidateMetricsJSON feeds arbitrary bytes to the metrics validator
// behind obstool validate and diff. Each input either fails with an error
// wrapping ErrInvalid, or validates to a snapshot whose re-export
// validates to the same snapshot. A panic fails.
func FuzzValidateMetricsJSON(f *testing.F) {
	c := NewCollector()
	c.Count("sim.runs", 3)
	c.Observe("sim.wallclock_days", 36.5)
	c.Observe("sim.wallclock_days", 2e9) // overflow bucket
	c.Observe("huge", 1e300)             // saturated sum
	c.CountVolatile("sweep.coalesced", 1)
	c.MaxVolatile("sweep.queue_depth", 4)
	c.ObserveVolatile("sweep.solve_ms", 0.25)
	own, err := c.Registry.Snapshot().MarshalIndent()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(own)
	for _, doc := range metricsRejects {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ValidateMetricsJSON(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("error %v does not wrap ErrInvalid", err)
			}
			return
		}
		out, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("validated snapshot does not re-export: %v", err)
		}
		back, err := ValidateMetricsJSON(out)
		if err != nil {
			t.Fatalf("re-export rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("re-export validates to\n%+v\nwant\n%+v", back, s)
		}
	})
}
