package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"testing"
)

// fixtureUnit type-checks one in-memory source fixture into a Unit, the
// way the analyzer tests exercise each check without touching disk. The
// fixture file is named fixture.go unless testFile is set (floateq skips
// _test.go files, so that case needs the test name).
func fixtureUnit(t *testing.T, unitPath, src string, testFile bool) *Unit {
	t.Helper()
	name := "fixture.go"
	if testFile {
		name = "fixture_test.go"
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	std := importer.ForCompiler(fset, "gc", nil)
	stdSrc := importer.ForCompiler(fset, "source", nil)
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			pkg, err := std.Import(path)
			if err != nil {
				pkg, err = stdSrc.Import(path)
			}
			return pkg, err
		}),
		Error: func(error) {},
	}
	pkg, _ := conf.Check(unitPath, fset, []*ast.File{f}, info)
	return &Unit{Fset: fset, Path: unitPath, Files: []*ast.File{f}, Info: info, Pkg: pkg}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkLines runs the analyzer (through Run, so //lint:allow directives
// apply) and asserts the reported "check:line" pairs.
func checkLines(t *testing.T, u *Unit, a *Analyzer, want map[int][]string) {
	t.Helper()
	got := map[int][]string{}
	for _, f := range Run([]*Unit{u}, []*Analyzer{a}) {
		got[f.Pos.Line] = append(got[f.Pos.Line], f.Check)
	}
	for _, checks := range got {
		sort.Strings(checks)
	}
	for _, checks := range want {
		sort.Strings(checks)
	}
	if len(got) != len(want) {
		t.Fatalf("findings per line: got %v, want %v", got, want)
	}
	for line, checks := range want {
		gotChecks := got[line]
		if len(gotChecks) != len(checks) {
			t.Fatalf("line %d: got %v, want %v (all: %v)", line, gotChecks, checks, got)
		}
		for i := range checks {
			if gotChecks[i] != checks[i] {
				t.Fatalf("line %d: got %v, want %v", line, gotChecks, checks)
			}
		}
	}
}

// TestModuleIsClean is the dogfood gate: the full analyzer suite over the
// whole module must report nothing — every real finding has been fixed or
// carries a justified //lint:allow. This is the same pass `make test` runs.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := FindModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	units, err := mod.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("loaded no units")
	}
	findings := Run(units, Analyzers())
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestRunSortsFindings pins the deterministic ordering of the report
// itself (the linter must not be a source of run-dependent output).
func TestRunSortsFindings(t *testing.T) {
	const src = `package fixture

import "time"

func a() int64 { return time.Now().Unix() }
func b() int64 { return time.Now().Unix() }
`
	u := fixtureUnit(t, "internal/sim", src, false)
	findings := Run([]*Unit{u}, []*Analyzer{NondeterminismAnalyzer()})
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2", len(findings))
	}
	if findings[0].Pos.Line >= findings[1].Pos.Line {
		t.Fatalf("findings not sorted by line: %v", findings)
	}
}

func TestAnalyzerNames(t *testing.T) {
	want := []string{"nondeterminism", "maporder", "floateq", "goroutine-capture", "seedflow", "batonblock"}
	got := AnalyzerNames()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
