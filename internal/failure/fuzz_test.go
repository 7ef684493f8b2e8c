package failure

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"mlckpt/internal/stats"
)

// rateSpec renders rates back in the paper's "r1-r2-…" notation, in a form
// ParseRates reads back to the same rates: FuzzParseRates's round-trip
// oracle.
func rateSpec(r Rates) string {
	parts := make([]string, len(r.PerDay))
	for i, v := range r.PerDay {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		if strings.Contains(parts[i], "e-") {
			// The exponent's sign would read as a level separator.
			parts[i] = strconv.FormatFloat(v, 'f', -1, 64)
		}
	}
	return strings.Join(parts, "-")
}

// FuzzParseRates ensures the spec parser never panics and that every
// accepted spec round-trips through rateSpec.
func FuzzParseRates(f *testing.F) {
	f.Add("16-12-8-4")
	f.Add("4-2-1-0.5")
	f.Add("")
	f.Add("---")
	f.Add("1e3-2")
	f.Add("-1")
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseRates(spec, 1e6)
		if err != nil {
			return
		}
		// Accepted specs must be well-formed and reproducible.
		if r.Levels() == 0 {
			t.Fatalf("accepted spec %q has no levels", spec)
		}
		back, err := ParseRates(rateSpec(r), 1e6)
		if err != nil {
			t.Fatalf("round trip of %q -> %q failed: %v", spec, rateSpec(r), err)
		}
		if back.Levels() != r.Levels() {
			t.Fatalf("round trip changed level count")
		}
		for i := range r.PerDay {
			if back.PerDay[i] != r.PerDay[i] {
				t.Fatalf("round trip changed rate %d", i)
			}
		}
		// Rates never negative; derived quantities finite.
		for i := range r.PerDay {
			if r.PerDay[i] < 0 {
				t.Fatalf("negative rate accepted: %q", spec)
			}
			if v := r.PerSecondAt(i, 5e5); v < 0 {
				t.Fatalf("negative per-second rate")
			}
		}
		_ = strings.Count(spec, "-")
	})
}

// FuzzReadTrace feeds arbitrary bytes to the trace-file decoder, which
// `cmd/experiments -replay` points at outside input. Every input either
// fails with an error or decodes to events that round-trip through
// WriteTrace bit for bit; a panic fails.
func FuzzReadTrace(f *testing.F) {
	var sampled bytes.Buffer
	events := Trace(MustParseRates("16-12-8-4", 1024), 1024, SecondsPerDay, Exponential, 0, stats.NewRNG(7))
	if err := WriteTrace(&sampled, events); err != nil {
		f.Fatal(err)
	}
	const hdr = `{"format":"mlckpt-failure-trace","version":1,"events":`
	f.Add(sampled.Bytes())
	f.Add([]byte(""))
	f.Add([]byte(hdr + "0}\n"))
	f.Add([]byte(hdr + "9223372036854775807}\n"))
	f.Add([]byte(hdr + "4000000000}\n" + `{"t":1,"level":0}` + "\n"))
	f.Add([]byte(hdr + "2}\n" + `{"t":-0,"level":7}` + "\n\n" + `{"t":1e300,"level":0}` + "\n"))
	f.Add([]byte(hdr + "1}\n" + `{"t":1,"level":0} {}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, events); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if len(back) != len(events) {
			t.Fatalf("round trip kept %d of %d events", len(back), len(events))
		}
		for i, ev := range events {
			if back[i].Level != ev.Level || math.Float64bits(back[i].Time) != math.Float64bits(ev.Time) {
				t.Fatalf("event %d round-trips to %+v, want %+v", i, back[i], ev)
			}
		}
	})
}
