package experiments

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The golden regression suite pins every reproduced figure/table to
// docs_results_reference.txt so performance work cannot silently drift the
// paper numbers. All experiment pipelines are deterministic (fixed seeds,
// fixed-order reductions), so the tolerance can be tight: numeric tokens
// must agree within goldenRelTol relative error and everything else must
// match byte-for-byte. goldenRelTol lives in the race_{on,off}_test.go
// guard files: the race detector's instrumentation changes floating-point
// optimization enough to move last-digit roundings, so race builds get a
// loosened 1e-3 where regular builds demand 1e-9.

// goldenRef loads the reference file once per test binary.
func goldenRef(t *testing.T) []string {
	t.Helper()
	blob, err := os.ReadFile("../../docs_results_reference.txt")
	if err != nil {
		t.Fatalf("golden reference: %v", err)
	}
	return strings.Split(string(blob), "\n")
}

// compareGolden locates got's first line verbatim in the reference and
// compares the full rendered block against the reference lines that
// follow, token by token.
func compareGolden(t *testing.T, ref []string, got string) {
	t.Helper()
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(gotLines) == 0 || gotLines[0] == "" {
		t.Fatal("empty render")
	}
	start := -1
	for i, l := range ref {
		if l == gotLines[0] {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("title line not found in reference: %q", gotLines[0])
	}
	if start+len(gotLines) > len(ref) {
		t.Fatalf("rendered block (%d lines) overruns the reference", len(gotLines))
	}
	for i, gl := range gotLines {
		compareGoldenLine(t, ref[start+i], gl, start+i+1)
	}
}

func compareGoldenLine(t *testing.T, want, got string, refLine int) {
	t.Helper()
	if want == got {
		return
	}
	wt, gt := strings.Fields(want), strings.Fields(got)
	if len(wt) != len(gt) {
		t.Errorf("reference line %d:\nwant %q\n got %q", refLine, want, got)
		return
	}
	for i := range wt {
		if wt[i] == gt[i] {
			continue
		}
		wf, werr := strconv.ParseFloat(wt[i], 64)
		gf, gerr := strconv.ParseFloat(gt[i], 64)
		if werr != nil || gerr != nil {
			t.Errorf("reference line %d, token %q != %q:\nwant %q\n got %q", refLine, wt[i], gt[i], want, got)
			return
		}
		if relDiff(wf, gf) > goldenRelTol {
			t.Errorf("reference line %d: %v vs %v exceeds rel tol %g:\nwant %q\n got %q",
				refLine, wf, gf, goldenRelTol, want, got)
			return
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestGoldenFig1(t *testing.T) {
	compareGolden(t, goldenRef(t), Fig1(50).Render())
}

func TestGoldenFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1024-rank measurement in -short mode")
	}
	r, err := Fig2Grid(1024, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	ref := goldenRef(t)
	// Render emits three curve tables; pin each to its own section.
	for _, block := range strings.Split(strings.TrimRight(r.Render(), "\n"), "\n\n") {
		compareGolden(t, ref, block)
	}
}

func TestGoldenFig3(t *testing.T) {
	r, err := Fig3(9)
	if err != nil {
		t.Fatal(err)
	}
	ref := goldenRef(t)
	for _, block := range strings.Split(strings.TrimRight(r.Render(), "\n"), "\n\n") {
		compareGolden(t, ref, block)
	}
}

func TestGoldenFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("10 heat+FTI executions per point in -short mode")
	}
	if raceEnabled {
		t.Skip("full fig4 reproduction is too slow under -race")
	}
	r, err := Fig4Grid(32, 10, 400, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, goldenRef(t), r.Render())
}

func TestGoldenTab2(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank FTI measurement in -short mode")
	}
	r, err := Tab2Grid(nil, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	// Render emits the measured table and the fitted-cost table.
	ref := goldenRef(t)
	for _, block := range strings.Split(strings.TrimRight(r.Render(), "\n"), "\n\n") {
		compareGolden(t, ref, block)
	}
}

func TestGoldenFig5Tab3(t *testing.T) {
	if testing.Short() {
		t.Skip("100-run evaluation sweep in -short mode")
	}
	r, err := EvalGrid(3e6, 0, nil, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	ref := goldenRef(t)
	compareGolden(t, ref, r.Render())
	compareGolden(t, ref, r.RenderTab3())
	compareGolden(t, ref, r.RenderFig7())
}

func TestGoldenTab4(t *testing.T) {
	if testing.Short() {
		t.Skip("100-run Table IV sweep in -short mode")
	}
	r, err := Tab4Grid(0, nil, Grid{})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, goldenRef(t), r.Render())
}
