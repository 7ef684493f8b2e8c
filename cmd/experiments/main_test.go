package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunUnknownIDFails: one bad id fails the invocation (exit 1) but
// does not abort the other ids.
func TestRunUnknownIDFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-progress", "nope", "fig1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 1") && stdout.Len() == 0 {
		t.Errorf("fig1 output missing despite bad sibling id:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown experiment id "nope"`) {
		t.Errorf("missing unknown-id error:\n%s", stderr.String())
	}
}
