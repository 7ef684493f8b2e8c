package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath checks functions annotated //mlckpt:hotpath for allocation
// idioms. These are the proven zero-steady-state-allocation surfaces —
// the erasure encode/reconstruct kernels, the mpisim event-loop step and
// Allreduce, the eventq heap, the sim.Run slab path. The annotation
// makes the contract explicit, this analyzer rejects the idioms that
// allocate by construction, cmd/allocgate pins the compiler's actual
// escape analysis (see docs/LINT.md), and exact testing.AllocsPerRun
// pins catch what slips past both. Boxing by assignment to an interface
// variable is one idiom this analyzer does not flag.
//
// Rules, tuned to the difference between setup cost and per-element
// cost:
//
//	anywhere in the body       append that can grow a different slice
//	                           than it reads, string concatenation,
//	                           map literals, interface boxing of a
//	                           non-pointer-shaped value
//	only inside loops          make/new, composite-literal values,
//	                           &T{} pointers, string<->[]byte
//	                           conversions, variable-capturing closures
//
// Exemptions:
//
//	self-append                x = append(x, ...) is amortized-O(1) and
//	                           reuses capacity in steady state;
//	                           allocgate watches actual growth
//	cold exits                 anything inside a return statement or a
//	                           panic(...) argument — error paths are
//	                           allowed to allocate, that is what makes
//	                           the happy path cheap to keep clean
//
// A justified //lint:allow hotpath <reason> suppresses a finding, as
// with every other check.
func HotPathAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "hotpath",
		Doc:       "allocation idioms in functions annotated //mlckpt:hotpath (zero-steady-state-allocation contract)",
		RunModule: runHotPath,
	}
}

func runHotPath(g *Graph, units []*Unit) []Finding {
	var out []Finding
	for _, n := range g.Nodes() {
		if n.Decl == nil || !n.marks.hotpath || n.Decl.Body == nil {
			continue
		}
		out = append(out, checkHotBody(n)...)
	}
	return out
}

func checkHotBody(n *FuncNode) []Finding {
	u := n.Unit
	body := n.Decl.Body
	par := newParentsOf(body)
	var out []Finding

	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{
			Check:   "hotpath",
			Pos:     u.Fset.Position(pos),
			Message: fmt.Sprintf("in //mlckpt:hotpath function %s: %s", n.Name, msg),
		})
	}
	// coldExit: error/panic paths may allocate. The walk tests each node
	// on the ancestor chain itself (not just its parent), so an allocation
	// that IS a panic call's direct argument is cold too.
	cold := func(node ast.Node) bool {
		for cur := ast.Node(node); cur != nil && cur != body; cur = par[cur] {
			switch c := cur.(type) {
			case *ast.ReturnStmt:
				return true
			case *ast.CallExpr:
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
		return false
	}
	inLoop := func(node ast.Node) bool {
		for cur := par[node]; cur != nil && cur != body; cur = par[cur] {
			switch cur.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return true
			case *ast.FuncLit:
				return false
			}
		}
		return false
	}

	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(u.Info.TypeOf(x.X)) && !cold(x) {
				flag(x.Pos(), "string concatenation allocates; format into a reusable buffer")
			}

		case *ast.CompositeLit:
			t := u.Info.TypeOf(x)
			switch {
			case isMap(t):
				if !cold(x) {
					flag(x.Pos(), "map literal allocates a new map; hoist it out of the hot path")
				}
			case inLoop(x) && !cold(x) && !insideColdParentLit(par, x):
				flag(x.Pos(), "composite literal inside a loop allocates per iteration; hoist or reuse")
			}

		case *ast.FuncLit:
			if inLoop(x) && !cold(x) && capturesOutside(u, x) {
				flag(x.Pos(), "variable-capturing closure inside a loop allocates per iteration; hoist the closure or pass state as parameters")
			}

		case *ast.CallExpr:
			out = append(out, checkHotCall(n, u, par, x, cold, inLoop)...)
		}
		return true
	})
	return out
}

// insideColdParentLit suppresses the nested literals of an already-
// flagged composite literal so one []T{{...}, {...}} reports once.
func insideColdParentLit(par parents, lit *ast.CompositeLit) bool {
	for cur := par[lit]; cur != nil; cur = par[cur] {
		if _, ok := cur.(*ast.CompositeLit); ok {
			return true
		}
		if _, ok := cur.(ast.Stmt); ok {
			return false
		}
	}
	return false
}

// capturesOutside reports whether the literal references a variable
// declared outside itself (the allocation-forcing shape; a capture-free
// closure compiles to a static function value).
func capturesOutside(u *Unit, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		if obj, ok := u.Info.Uses[id].(*types.Var); ok && !obj.IsField() && obj.Pkg() != nil {
			// Package-level variables are addressed directly and force
			// no closure environment; only enclosing-function locals do.
			atPkgScope := obj.Parent() == obj.Pkg().Scope()
			if obj.Parent() != nil && !atPkgScope && declaredOutside(u, id, lit) {
				captures = true
			}
		}
		return true
	})
	return captures
}

func checkHotCall(n *FuncNode, u *Unit, par parents, call *ast.CallExpr, cold, inLoop func(ast.Node) bool) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{
			Check:   "hotpath",
			Pos:     u.Fset.Position(pos),
			Message: fmt.Sprintf("in //mlckpt:hotpath function %s: %s", n.Name, msg),
		})
	}

	// Builtins and conversions first.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "append":
			if u.Info.Uses[id] == nil || isBuiltin(u, id) {
				if !selfAppend(u, par, call) && !cold(call) {
					flag(call.Pos(), "append into a different slice than it reads can allocate on every call; use the x = append(x, ...) self-append form or a preallocated buffer")
				}
				return out
			}
		case "make", "new":
			if (u.Info.Uses[id] == nil || isBuiltin(u, id)) && inLoop(call) && !cold(call) {
				flag(call.Pos(), id.Name+" inside a loop allocates per iteration; hoist the buffer and reuse it")
				return out
			}
		}
	}

	// Conversion: string<->[]byte copies; conversion to interface boxes.
	if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := tv.Type
		argT := u.Info.TypeOf(call.Args[0])
		switch {
		case isStringByteConv(target, argT):
			if inLoop(call) && !cold(call) {
				flag(call.Pos(), "string<->[]byte conversion inside a loop copies per iteration; keep one representation")
			}
		case isInterfaceType(target):
			if !pointerShaped(argT) && !cold(call) {
				flag(call.Pos(), fmt.Sprintf("converting %s to %s boxes the value on the heap", types.TypeString(argT, nil), types.TypeString(target, nil)))
			}
		}
		return out
	}

	// &T{...} is handled by the CompositeLit case; here: implicit
	// interface boxing at ordinary call sites.
	sig, _ := u.Info.TypeOf(ast.Unparen(call.Fun)).(*types.Signature)
	if sig == nil {
		return out
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !isInterfaceType(pt) {
			continue
		}
		at := u.Info.TypeOf(arg)
		if at == nil || isUntypedNil(at) || pointerShaped(at) {
			continue
		}
		if cold(call) {
			continue
		}
		flag(arg.Pos(), fmt.Sprintf("passing %s as %s boxes the value on the heap; take a concrete parameter or pass a pointer", types.TypeString(at, nil), types.TypeString(pt, nil)))
	}
	return out
}

// selfAppend recognizes x = append(x, ...) (including s.buf / s[i]
// targets) by textual identity of the destination and the first
// argument.
func selfAppend(u *Unit, par parents, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	src := types.ExprString(ast.Unparen(call.Args[0]))
	for cur := par[call]; cur != nil; cur = par[cur] {
		if asn, ok := cur.(*ast.AssignStmt); ok {
			for _, lhs := range asn.Lhs {
				if types.ExprString(ast.Unparen(lhs)) == src {
					return true
				}
			}
			return false
		}
		if _, ok := cur.(ast.Stmt); ok {
			return false
		}
	}
	return false
}

func isBuiltin(u *Unit, id *ast.Ident) bool {
	_, ok := u.Info.Uses[id].(*types.Builtin)
	return ok
}

func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t fit in a pointer word and
// therefore box without a fresh heap object (pointers, channels, maps,
// funcs, unsafe.Pointer) or are already interfaces.
func pointerShaped(t types.Type) bool {
	if t == nil {
		return true // unresolvable: do not guess
	}
	switch ut := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return ut.Kind() == types.UnsafePointer
	}
	return false
}

// isStringByteConv matches string([]byte) and []byte(string) shapes.
func isStringByteConv(target, arg types.Type) bool {
	if target == nil || arg == nil {
		return false
	}
	toString := isString(target) && isByteSlice(arg)
	toBytes := isByteSlice(target) && isString(arg)
	return toString || toBytes
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}
