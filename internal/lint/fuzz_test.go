package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// FuzzLintNeverPanics drives the full analyzer suite — per-unit checks,
// graph construction, and the two module-wide analyzers — over
// arbitrary parseable Go source. The contract under test: whatever the
// type checker manages or fails to infer (fuzzed inputs routinely carry
// type errors, unresolved imports, and half-formed markers), Run must
// return findings or nothing, never panic. This is the same degraded-
// typing tolerance the loader promises for real trees mid-refactor.
func FuzzLintNeverPanics(f *testing.F) {
	seeds := []string{
		// One of everything the analyzers look at.
		`package sim

import (
	"math/rand"
	"time"
)

func a() int64 { return time.Now().Unix() }
func b() *rand.Rand { return rand.New(rand.NewSource(42)) }
`,
		// Markers, directives, and blocking ops.
		`package mpisim

import "sync"

//mlckpt:fiber
func Step(ch chan int, mu *sync.Mutex) {
	mu.Lock()
	<-ch
	select {
	case ch <- 1:
	}
}

//mlckpt:baton reason
func park(ch chan int) { <-ch }

//mlckpt:baton
func malformed() {}

//mlckpt:unknown
func unknown() {}
`,
		// Detached markers, closures, go statements.
		`package erasure

// Hot is the doc comment a var took over.
//mlckpt:hotpath
var sink int

func Hot(n int, xs []int) {
	//mlckpt:fiber
	for i := 0; i < n; i++ {
		xs = append(xs, i)
		go func() { _ = i }()
	}
	//lint:allow floateq reason
	_ = map[int]int{}
}

//mlckpt:hotpath
`,
		// Seed conduits, helpers, index tracing.
		`package sim

import "math/rand"

type Config struct{ Seed int64 }

func helper(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func run(cfg Config, n int) {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	_ = helper(seeds[0])
	_ = helper(7)
}
`,
		// Degenerate shapes: empty bodies, recursion, self-reference.
		`package sim

func loop() { loop() }
func empty()
var x = func() { x := 1; _ = x }
`,
		// Unresolvable imports force degraded type info everywhere.
		`package sim

import "no/such/package"

//mlckpt:fiber
func f() { nosuch.Call() }
`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip()
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		std := importer.ForCompiler(fset, "gc", nil)
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				return std.Import(path)
			}),
			Error: func(error) {},
		}
		// Errors are expected and ignored: the point is surviving them.
		pkg, _ := conf.Check("internal/sim", fset, []*ast.File{file}, info)
		u := &Unit{Fset: fset, Path: "internal/sim", Files: []*ast.File{file}, Info: info, Pkg: pkg}
		_ = Run([]*Unit{u}, Analyzers())
	})
}
