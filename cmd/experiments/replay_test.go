package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlckpt/internal/core"
	"mlckpt/internal/experiments"
	"mlckpt/internal/failure"
	"mlckpt/internal/stats"
)

// writeReplayTrace writes 30 days of the canonical scenario's failures
// (16-12-8-4 at its solved scale, Te = 3M core-days) as a failure JSONL
// file and returns its path and events.
func writeReplayTrace(t *testing.T) (string, []failure.Event) {
	t.Helper()
	p := experiments.EvalScenario(3e6, "16-12-8-4").Params()
	opt, err := core.Optimize(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := failure.Trace(p.Rates, opt.N, 30*failure.SecondsPerDay, failure.Exponential, 0, stats.NewRNG(7))
	var buf bytes.Buffer
	if err := failure.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "failures.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, trace
}

// TestRunReplay: -replay prints the replayed run's listing (pinned byte
// for byte by the experiments package's TestReplayRenderPinned) and exits 0.
func TestRunReplay(t *testing.T) {
	path, trace := writeReplayTrace(t)
	r, err := experiments.Replay(trace)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0\n%s", code, stderr.String())
	}
	if want := r.Render() + "\n"; stdout.String() != want {
		t.Errorf("stdout =\n%s\nwant\n%s", stdout.String(), want)
	}
	if !strings.Contains(stdout.String(), "wall clock (days)  39.301") {
		t.Errorf("stdout lacks the replayed wall clock:\n%s", stdout.String())
	}
}

// TestRunReplayTruncatedFile: a trace file cut short fails with exit 1 and
// names the file on stderr.
func TestRunReplayTruncatedFile(t *testing.T) {
	path, _ := writeReplayTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), path) {
		t.Errorf("stderr does not name %s:\n%s", path, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.String())
	}
}
