package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// ErrInvalid is returned when a serialized snapshot or trace does not
// conform to the exporter schema (see ValidateMetricsJSON and
// DecodeTraceJSON).
var ErrInvalid = errors.New("obs: invalid document")

// ValidateMetricsJSON checks that data is a well-formed metrics snapshot:
// the exporter schema, known metric types, name-sorted sections, and
// metrics a registry could have exported (see validateMetric). On success
// it returns the parsed snapshot. CI runs it over the artifacts a real
// experiment produced.
func ValidateMetricsJSON(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := decodeStrict(data, &s); err != nil {
		return Snapshot{}, err
	}
	if s.Schema != MetricsSchema {
		return Snapshot{}, fmt.Errorf("%w: schema %q, want %q", ErrInvalid, s.Schema, MetricsSchema)
	}
	if s.Metrics == nil || s.Volatile == nil {
		return Snapshot{}, fmt.Errorf("%w: missing metrics/volatile section", ErrInvalid)
	}
	for _, sec := range [][]Metric{s.Metrics, s.Volatile} {
		if !sort.SliceIsSorted(sec, func(i, j int) bool { return sec[i].Name < sec[j].Name }) {
			return Snapshot{}, fmt.Errorf("%w: metrics not sorted by name", ErrInvalid)
		}
		for i := range sec {
			if err := validateMetric(sec[i]); err != nil {
				return Snapshot{}, err
			}
			if len(sec[i].Buckets) == 0 {
				// The exporter's form of a metric with no non-empty
				// bucket, so a validated snapshot re-exports to itself.
				sec[i].Buckets = nil
			}
		}
	}
	return s, nil
}

// decodeStrict decodes data as one JSON document into v, rejecting unknown
// fields and anything but white space after the document: a file with
// another document or garbage appended is not the file the exporter
// wrote.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: data after the document", ErrInvalid)
	}
	return nil
}

// validateMetric accepts exactly what exportSection can write: a counter
// carries only Value, a gauge only Gauge, and a histogram only its own
// fields, with non-negative counts whose sum (checked for overflow) is
// Count, and a sum, min and max only when it holds an observation.
func validateMetric(m Metric) error {
	if m.Name == "" {
		return fmt.Errorf("%w: metric with empty name", ErrInvalid)
	}
	histFields := m.Count != 0 || m.SumMicros != 0 || m.Min != 0 || m.Max != 0 ||
		len(m.Buckets) > 0 || m.Overflow != 0
	switch m.Type {
	case "counter":
		if m.Gauge != 0 || histFields {
			return fmt.Errorf("%w: %s: counter carries gauge or histogram fields", ErrInvalid, m.Name)
		}
	case "gauge":
		if m.Value != 0 || histFields {
			return fmt.Errorf("%w: %s: gauge carries counter or histogram fields", ErrInvalid, m.Name)
		}
	case "histogram":
		if m.Value != 0 || m.Gauge != 0 {
			return fmt.Errorf("%w: %s: histogram carries a counter or gauge value", ErrInvalid, m.Name)
		}
		if m.Count < 0 || m.Overflow < 0 {
			return fmt.Errorf("%w: %s: negative count %d or overflow %d", ErrInvalid, m.Name, m.Count, m.Overflow)
		}
		total := m.Overflow
		for _, b := range m.Buckets {
			if b.N < 0 {
				return fmt.Errorf("%w: %s: negative bucket count", ErrInvalid, m.Name)
			}
			if b.N > math.MaxInt64-total {
				return fmt.Errorf("%w: %s: bucket counts overflow int64", ErrInvalid, m.Name)
			}
			total += b.N
		}
		if total != m.Count {
			return fmt.Errorf("%w: %s: bucket counts sum to %d, count is %d", ErrInvalid, m.Name, total, m.Count)
		}
		if m.Count == 0 && (m.SumMicros != 0 || m.Min != 0 || m.Max != 0) {
			return fmt.Errorf("%w: %s: empty histogram carries a sum, min or max", ErrInvalid, m.Name)
		}
		if m.Count > 0 && m.Min > m.Max {
			return fmt.Errorf("%w: %s: min %g > max %g", ErrInvalid, m.Name, m.Min, m.Max)
		}
	default:
		return fmt.Errorf("%w: %s: unknown metric type %q", ErrInvalid, m.Name, m.Type)
	}
	return nil
}
