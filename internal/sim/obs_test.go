package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mlckpt/internal/obs"
	"mlckpt/internal/stats"
)

func TestRunManyTracesOnlyFirstRun(t *testing.T) {
	col := obs.NewCollector()
	cfg := testConfig("4-3-2-1", 5000, []float64{40, 20, 10, 5})
	cfg.Obs = col
	cfg.ObsTrack = "sim/test"
	results, err := RunMany(cfg, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	// Only run 0 emits spans (a per-run timeline for every repetition
	// would be unreadable and enormous); counters cover all runs.
	if tracks := col.Trace.Tracks(); !reflect.DeepEqual(tracks, []string{"sim/test"}) {
		t.Errorf("tracks = %v, want [sim/test]", tracks)
	}
	if col.Trace.Len() == 0 {
		t.Error("run 0 emitted no trace events")
	}
	snap := col.Registry.Snapshot()
	if n, _ := snap.Counter("sim.runs"); n != 5 {
		t.Errorf("sim.runs = %d, want 5", n)
	}
	var ckpts int64
	for _, r := range results {
		for _, c := range r.CheckpointsTaken {
			ckpts += int64(c)
		}
	}
	if n, _ := snap.Counter("sim.checkpoints"); n != ckpts {
		t.Errorf("sim.checkpoints = %d, want %d (sum over results)", n, ckpts)
	}
}

func TestObsMaxEventsTruncates(t *testing.T) {
	col := obs.NewCollector()
	cfg := testConfig("4-3-2-1", 5000, []float64{40, 20, 10, 5})
	cfg.Obs = col
	cfg.ObsTrack = "sim/budget"
	cfg.ObsMaxEvents = 3
	if _, err := RunMany(cfg, 1, 7); err != nil {
		t.Fatal(err)
	}
	if n, _ := col.Registry.Snapshot().Counter("sim.trace_truncated"); n != 1 {
		t.Errorf("sim.trace_truncated = %d, want 1", n)
	}
	data, err := json.Marshal(col.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "trace-truncated") {
		t.Error("trace lacks the trace-truncated marker instant")
	}
	// Budget is counted in events, not wall time, so truncation itself is
	// deterministic: 3 allowed events + the marker.
	if got := col.Trace.Len(); got != 4 {
		t.Errorf("trace has %d events, want 4 (budget 3 + truncation marker)", got)
	}
}

func TestNilRecorderLeavesResultsUnchanged(t *testing.T) {
	cfg := testConfig("4-3-2-1", 5000, []float64{40, 20, 10, 5})
	plain, err := RunMany(cfg, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewCollector()
	cfg.ObsTrack = "sim/observed"
	observed, err := RunMany(cfg, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Error("simulation results change when a Recorder is attached")
	}
}

// TestTrackWithoutRecorderAllocatesNothing: a trace track with no recorder
// attached builds no span arguments. RunMany and the sweep layers pass a
// cell's track whatever their recorder is, so the first run of every
// untraced cell used to build up to a budget's worth of span maps for
// obs.Nop.
func TestTrackWithoutRecorderAllocatesNothing(t *testing.T) {
	cfg := testConfig("4-3-2-1", 5000, []float64{40, 20, 10, 5})
	cfg.JitterRatio = 0.3
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(cfg, stats.NewRNG(7)); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := allocs(cfg)
	cfg.ObsTrack = "sim/untraced"
	if tracked := allocs(cfg); tracked != plain {
		t.Errorf("Run with ObsTrack and nil Obs: %v allocs/op, want %v as without a track", tracked, plain)
	}
}
