package obs

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestSnapshotStableOrdering(t *testing.T) {
	c := NewCollector()
	c.Count("z.last", 1)
	c.Count("a.first", 2)
	c.Observe("m.middle", 3.5)
	c.CountVolatile("v.counter", 7)
	c.MaxVolatile("v.gauge", 4)

	s := c.Registry.Snapshot()
	if len(s.Metrics) != 3 || len(s.Volatile) != 2 {
		t.Fatalf("sections: %d deterministic, %d volatile", len(s.Metrics), len(s.Volatile))
	}
	for i, want := range []string{"a.first", "m.middle", "z.last"} {
		if s.Metrics[i].Name != want {
			t.Errorf("metrics[%d] = %q, want %q", i, s.Metrics[i].Name, want)
		}
	}
	if v, ok := s.Counter("a.first"); !ok || v != 2 {
		t.Errorf("Counter(a.first) = %d, %v", v, ok)
	}
	if _, ok := s.Counter("v.counter"); ok {
		t.Error("volatile counter visible through deterministic lookup")
	}
}

func TestHistogramExactSums(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 1000; i++ {
		c.Observe("h", 0.1)
	}
	s := c.Registry.Snapshot()
	m := s.Metrics[0]
	if m.Count != 1000 {
		t.Fatalf("count = %d", m.Count)
	}
	// 1000 × round(0.1e6) is exactly 1e8 microunits — no float drift.
	if m.SumMicros != 100000000 {
		t.Errorf("sum_micros = %d, want 100000000", m.SumMicros)
	}
	if m.Min != 0.1 || m.Max != 0.1 {
		t.Errorf("min/max = %g/%g", m.Min, m.Max)
	}
	if m.Mean() != 0.1 {
		t.Errorf("mean = %g", m.Mean())
	}
	total := m.Overflow
	for _, b := range m.Buckets {
		total += b.N
	}
	if total != m.Count {
		t.Errorf("bucket total %d != count %d", total, m.Count)
	}
}

// TestConcurrentDeterminism is the layer's core guarantee: recording the
// same multiset of deterministic observations from 1 or 8 goroutines
// yields byte-identical snapshots.
func TestConcurrentDeterminism(t *testing.T) {
	record := func(workers int) []byte {
		c := NewCollector()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < 960; i += workers {
					c.Count("jobs", 1)
					c.Observe("latency_virtual", float64(i%7)*0.25)
					c.ObserveVolatile("latency_wall", float64(i))
				}
			}(w)
		}
		wg.Wait()
		s := c.Registry.Snapshot()
		s.StripVolatile()
		b, err := s.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(record(1), record(8)) {
		t.Fatal("stripped snapshots differ between 1 and 8 recording goroutines")
	}
}

func TestNonFiniteObservationsDropped(t *testing.T) {
	c := NewCollector()
	c.Observe("h", math.Inf(1))
	c.Observe("h", math.NaN())
	c.MaxVolatile("g", math.Inf(1))
	c.Observe("h", 2)
	s := c.Registry.Snapshot()
	if s.Metrics[0].Count != 1 {
		t.Errorf("count = %d, want 1 (non-finite dropped)", s.Metrics[0].Count)
	}
	b, err := s.MarshalIndent()
	if err != nil {
		t.Fatalf("snapshot with non-finite inputs failed to marshal: %v", err)
	}
	if _, err := ValidateMetricsJSON(b); err != nil {
		t.Fatal(err)
	}
}

func TestNopRecorderIsInert(t *testing.T) {
	var r Recorder // nil
	rec := OrNop(r)
	rec.Count("x", 1)
	rec.Observe("x", 1)
	rec.CountVolatile("x", 1)
	rec.ObserveVolatile("x", 1)
	rec.MaxVolatile("x", 1)
	rec.Span("t", "s", 0, 1, map[string]float64{"a": 1})
	rec.Instant("t", "i", 0, nil)
	if rec != OrNop(nil) {
		t.Error("OrNop(nil) not the shared nop")
	}
	c := NewCollector()
	if OrNop(c) != Recorder(c) {
		t.Error("OrNop must pass a non-nil recorder through")
	}
}

// metricsRejects are documents ValidateMetricsJSON must refuse.
// FuzzValidateMetricsJSON seeds its corpus with them.
var metricsRejects = map[string]string{
	"not json":                      "{",
	"wrong schema":                  `{"schema":"other/v9","captured_unix_ns":0,"metrics":[],"volatile":[]}`,
	"unsorted":                      `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"b","type":"counter"},{"name":"a","type":"counter"}],"volatile":[]}`,
	"unknown type":                  `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"widget"}],"volatile":[]}`,
	"unknown field":                 `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[],"volatile":[],"extra":1}`,
	"bad buckets":                   `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"histogram","count":3,"buckets":[{"le":1,"n":1}]}],"volatile":[]}`,
	"trailing data":                 `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[],"volatile":[]}x`,
	"negative count":                `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"histogram","count":-1,"overflow":-1}],"volatile":[]}`,
	"negative overflow":             `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"histogram","count":1,"min":1,"max":1,"buckets":[{"le":1,"n":2}],"overflow":-1}],"volatile":[]}`,
	"wrapped bucket sum":            `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"histogram","count":9223372036854775805,"buckets":[{"le":1,"n":9223372036854775807},{"le":2,"n":9223372036854775807},{"le":5,"n":9223372036854775807}]}],"volatile":[]}`,
	"counter with histogram fields": `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"counter","value":1,"count":1,"overflow":1}],"volatile":[]}`,
	"gauge with buckets":            `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[],"volatile":[{"name":"a","type":"gauge","gauge":1.5,"buckets":[{"le":1,"n":1}]}]}`,
	"counter with gauge":            `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"counter","value":1,"gauge":2}],"volatile":[]}`,
	"histogram with value":          `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"histogram","value":3}],"volatile":[]}`,
	"empty histogram with min":      `{"schema":"mlckpt.metrics/v1","captured_unix_ns":0,"metrics":[{"name":"a","type":"histogram","min":1,"max":2}],"volatile":[]}`,
}

func TestValidateMetricsRejectsGarbage(t *testing.T) {
	for name, doc := range metricsRejects {
		if _, err := ValidateMetricsJSON([]byte(doc)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	good := NewRegistry()
	good.count("ok", 1, false)
	b, err := good.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateMetricsJSON(b); err != nil {
		t.Errorf("own snapshot rejected: %v", err)
	}
}

func ExampleRegistry_Snapshot() {
	c := NewCollector()
	c.Count("sweep.jobs", 3)
	s := c.Registry.Snapshot()
	v, _ := s.Counter("sweep.jobs")
	fmt.Println(v)
	// Output: 3
}
