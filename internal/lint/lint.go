// Package lint is mlckpt's project-specific static-analysis suite. The
// paper reproduction is only trustworthy if every simulated run is
// bit-identical regardless of worker count or goroutine scheduling
// (Formulas 21/23/24 and Algorithm 1 are exact model evaluations; the
// golden regression compares rendered output token by token). PR 2 found
// two scheduling-dependence bugs by hand — a shared-variable race in the
// heat test and mpisim collectives priced off the last-arriving rank.
// This package turns that class of defect into machine-checked invariants:
//
//   - nondeterminism: model-bearing packages must not consult wall-clock
//     time, the global math/rand source, or the environment. All
//     randomness flows through the seeded internal/stats RNG and all
//     time through the simulator clock.
//   - maporder: iterating a Go map in an order-sensitive way (float
//     accumulation, building a result slice, emitting output) silently
//     makes results run-dependent; keys must be sorted first.
//   - floateq: ==/!= between floats outside tests defeats the tolerance
//     discipline the golden comparisons rely on.
//   - goroutine-capture: a goroutine launched in a loop that writes a
//     captured shared variable without synchronization is the exact
//     shape of the PR-2 heat-test race.
//   - seedflow and batonblock, module-wide over the call graph: every
//     RNG seed in a model package derives from an approved source, and
//     no blocking operation is reachable from an //mlckpt:fiber entry
//     point outside the //mlckpt:baton hand-offs.
//
// The zero-allocation contract of //mlckpt:hotpath functions is not an
// analyzer's: cmd/allocgate gates their compiler escape verdicts, and an
// exact testing.AllocsPerRun pin per function counts what they allocate
// at run time (docs/LINT.md). This package only checks that the marker
// sits where allocgate reads it.
//
// Everything here is stdlib-only (go/ast, go/parser, go/types, go/build)
// so the linter runs in the tier-1 gate with no module downloads. Findings
// can be suppressed case by case with a justified
//
//	//lint:allow <check> <reason>
//
// comment on the offending line or the line directly above it; directives
// without a reason are themselves findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Check   string         // analyzer name, e.g. "maporder"
	Pos     token.Position // resolved file:line:col
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Unit is one type-checked compilation unit: a package's files (with its
// in-package tests) or an external _test package.
type Unit struct {
	Fset *token.FileSet
	// Path is the unit's import path relative to the module root, e.g.
	// "internal/sim" ("" for the module root package itself). External
	// test packages carry the suffix "_test".
	Path  string
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// filename returns the file name a node was parsed from.
func (u *Unit) filename(n ast.Node) string {
	return u.Fset.Position(n.Pos()).Filename
}

// isTestFile reports whether the node lives in a _test.go file.
func (u *Unit) isTestFile(n ast.Node) bool {
	return strings.HasSuffix(u.filename(n), "_test.go")
}

// Analyzer is one named check. Per-unit analyzers set Run and see one
// type-checked unit at a time; module-wide analyzers set RunModule and
// receive the intra-module call graph built over every loaded unit
// (callgraph.go). An analyzer sets exactly one of the two.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Unit) []Finding
	RunModule func(*Graph, []*Unit) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer(),
		MapOrderAnalyzer(),
		FloatEqAnalyzer(),
		GoroutineCaptureAnalyzer(),
		SeedFlowAnalyzer(),
		BatonBlockAnalyzer(),
	}
}

// AnalyzerNames returns the names of every registered analyzer.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run executes the given analyzers over the units, applies //lint:allow
// suppression, and returns the surviving findings sorted by position.
// Malformed or reasonless allow directives are reported under the
// "lintdirective" pseudo-check. When any module-wide analyzer is
// selected, the call graph is built once and shared.
func Run(units []*Unit, analyzers []*Analyzer) []Finding {
	// Directives are validated against the full registry, not just the
	// analyzers selected for this run, so `-checks floateq` does not
	// misreport a valid //lint:allow maporder as unknown.
	known := map[string]bool{}
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Allow directives are collected module-wide up front: a module
	// analyzer may report into any file, so suppression cannot be
	// unit-scoped. File names are unique across units, so merging per-
	// unit collections is lossless.
	allows := newAllowSet()
	var out []Finding
	for _, u := range units {
		out = append(out, allows.collect(u, known)...)
	}

	var g *Graph
	for _, a := range analyzers {
		if a.RunModule != nil {
			g = BuildGraph(units)
			// Malformed //mlckpt: markers surface exactly once, like
			// malformed //lint:allow directives.
			out = append(out, g.directiveFindings...)
			break
		}
	}

	for _, a := range analyzers {
		var found []Finding
		switch {
		case a.RunModule != nil:
			found = a.RunModule(g, units)
		default:
			for _, u := range units {
				found = append(found, a.Run(u)...)
			}
		}
		for _, f := range found {
			if allows.suppresses(f) {
				continue
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}
