package lint

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeTree materializes a file tree under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadAndRunOnDefectiveModule is the end-to-end acceptance check: a
// module seeded with one instance of each defect class must produce
// exactly those diagnostics, each at the right file:line, through the
// same FindModule/Load/Run path the CLI driver uses.
func TestLoadAndRunOnDefectiveModule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/defective\n\ngo 1.22\n",
		// Defect 1: wall-clock time in a model-bearing package.
		"internal/sim/clock.go": `package sim

import "time"

func Stamp() int64 { return time.Now().Unix() }
`,
		// Defect 2: unsorted map-range feeding a result slice.
		"internal/experiments/table.go": `package experiments

func Rows(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`,
		// Defect 3: exact float equality outside tests.
		"internal/model/eq.go": `package model

func Same(a, b float64) bool { return a == b }
`,
		// Defect 4: loop goroutines racing on a captured accumulator.
		"internal/sweep/pool.go": `package sweep

func Total(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		go func() {
			sum += x
		}()
	}
	return sum
}
`,
		// Defect 5: a literal seed at an RNG construction site in a model
		// package. The sibling function shows the exempt idiom — a seed
		// drawn from a Config field flows through untouched.
		"internal/sim/seed.go": `package sim

import "math/rand"

type Config struct {
	Seed int64
}

func Fresh() *rand.Rand {
	return rand.New(rand.NewSource(99))
}

func FromConfig(cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed))
}
`,
		// Defect 6: a blocking call (time.Sleep, behind one hop) reachable
		// from an //mlckpt:fiber entry point. The sibling entry point only
		// blocks through a //mlckpt:baton-marked primitive — exempt.
		"internal/mpisim/fiber.go": `package mpisim

import "time"

//mlckpt:fiber
func Step() {
	helper()
}

func helper() {
	time.Sleep(1)
}

//mlckpt:baton the sanctioned hand-off primitive of this fixture
func park(ch chan struct{}) {
	<-ch
}

//mlckpt:fiber
func Await(ch chan struct{}) {
	park(ch)
}
`,
		// Regression (span-scoped //lint:allow): the directive sits on a
		// wrapped statement whose second comparison lands two lines below
		// it — line-based matching missed that; span adoption must not.
		"internal/model/span.go": `package model

func Sentinel(a, b float64) bool {
	//lint:allow floateq sentinel comparison: both operands are exact stored values, and the wrapped second clause must be covered too
	if a == b ||
		b == 0 {
		return true
	}
	return false
}
`,
		// A clean package plus an external test package, to exercise the
		// loader's unit splitting without adding findings.
		"internal/stats/ok.go": `package stats

func Mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
`,
		"internal/stats/ok_ext_test.go": `package stats_test

import (
	"testing"

	"example.com/defective/internal/stats"
)

func TestMean(t *testing.T) {
	if stats.Mean([]float64{2, 4}) != 3 {
		t.Fatal("mean")
	}
}
`,
		// A build-constrained twin pair: only the !race file may load, or
		// type checking would see duplicate declarations.
		"internal/stats/race_off.go": "//go:build !race\n\npackage stats\n\nconst raceEnabled = false\n",
		"internal/stats/race_on.go":  "//go:build race\n\npackage stats\n\nconst raceEnabled = true\n",
	})

	mod, err := FindModule(filepath.Join(root, "internal", "sim"))
	if err != nil {
		t.Fatal(err)
	}
	if mod.Root != root || mod.Path != "example.com/defective" {
		t.Fatalf("module resolved to %q %q", mod.Root, mod.Path)
	}
	units, err := mod.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	findings := Run(units, Analyzers())
	want := map[string]string{
		"nondeterminism":    "internal/sim/clock.go:5",
		"maporder":          "internal/experiments/table.go:5",
		"floateq":           "internal/model/eq.go:3",
		"goroutine-capture": "internal/sweep/pool.go:7",
		"seedflow":          "internal/sim/seed.go:10",
		"batonblock":        "internal/mpisim/fiber.go:11",
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(findings), len(want), findings)
	}
	for _, f := range findings {
		loc, ok := want[f.Check]
		if !ok {
			t.Errorf("unexpected check %q: %s", f.Check, f)
			continue
		}
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		if got := filepath.ToSlash(rel) + ":" + strconv.Itoa(f.Pos.Line); got != loc {
			t.Errorf("%s reported at %s, want %s", f.Check, got, loc)
		}
		delete(want, f.Check)
	}
	for check := range want {
		t.Errorf("defect class %s was not detected", check)
	}
}

// TestLoadSinglePackagePattern pins non-recursive pattern handling.
func TestLoadSinglePackagePattern(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/single\n\ngo 1.22\n",
		"internal/sim/clock.go": `package sim

import "time"

func Stamp() int64 { return time.Now().Unix() }
`,
		"internal/model/eq.go": `package model

func Same(a, b float64) bool { return a == b }
`,
	})
	mod, err := FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := mod.Load([]string{"internal/sim"})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(units, Analyzers())
	if len(findings) != 1 || findings[0].Check != "nondeterminism" {
		t.Fatalf("want exactly the internal/sim finding, got %v", findings)
	}
}

func TestFindModuleFailsOutsideModules(t *testing.T) {
	dir := t.TempDir()
	if _, err := FindModule(dir); err == nil || !strings.Contains(err.Error(), "no go.mod") {
		t.Fatalf("want a no-go.mod error, got %v", err)
	}
}
