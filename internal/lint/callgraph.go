package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the module-wide analysis substrate: a lightweight
// intra-module call graph plus one summary per function, built on the
// same stdlib-only go/types loader the per-unit analyzers use. The
// interprocedural analyzers (batonblock, seedflow) consume it.
//
// Two properties shape the design:
//
//   - Units are type-checked independently (a package with its tests is
//     re-checked even though its import-path twin sits in the loader
//     cache), so *types.Object identities do NOT agree across units.
//     Every function is therefore keyed by a stable symbol string —
//     "pkg/path.Recv.Name" — which is identical however the package was
//     reached.
//   - Dynamic dispatch is resolved structurally, not nominally: an
//     interface method call fans out to every module type that declares
//     a method with the same name and parameter count (class-hierarchy
//     style). Nominal types.Implements cannot be used across separately
//     checked units, and over-approximating edges errs toward reporting,
//     which is the right direction for a linter.

// blockKind classifies one potentially fiber-blocking operation.
type blockKind uint8

const (
	blockChanSend blockKind = iota
	blockChanRecv
	blockSelect
	blockChanRange
	blockSleep
	blockLock
	blockWait // sync.WaitGroup.Wait / sync.Cond.Wait
)

// BlockOp is one blocking operation found in a function body.
type BlockOp struct {
	Pos  token.Pos
	Kind blockKind
	Desc string
}

// CallSite is one outgoing edge of a function: either a statically
// resolved callee symbol, or an interface dispatch recorded by method
// name for structural fan-out at query time.
type CallSite struct {
	Pos    token.Pos
	Callee string // symbol of the static callee ("" for interface calls)

	// Interface dispatch: method name and parameter count, matched
	// structurally against every module method at resolution time.
	IfaceMethod string
	IfaceParams int

	// Call is the source call expression (nil for the implicit edge a
	// parent keeps to a nested function literal). seedflow uses it to
	// examine the arguments flowing into a seed-conduit parameter.
	Call *ast.CallExpr
}

// FuncNode is one function (declaration or literal) with its summary.
type FuncNode struct {
	Symbol string
	Name   string // human-readable: pkg-relative receiver+name or literal site
	Unit   *Unit
	Decl   *ast.FuncDecl // nil for literals
	Lit    *ast.FuncLit  // nil for declarations
	Pos    token.Pos

	Calls    []CallSite
	Blocking []BlockOp // effective: fork-join and bounded-lock exemptions applied

	// owner is the top-level declaration a literal is nested in (self
	// for declarations). Data-flow analyzers evaluate expressions in
	// the owner's context, because a literal's free variables live in
	// the owner's scope.
	owner *FuncNode

	hasGo     bool // body launches a goroutine (fork-join coordinator)
	hasUnlock bool // body releases a lock (bounded critical section)

	marks funcMarks
}

// Graph is the module call graph over every loaded unit.
type Graph struct {
	nodes map[string]*FuncNode

	// methodIndex maps a method name to the symbols of every module
	// function with that name and a receiver, for structural interface
	// fan-out.
	methodIndex map[string][]string

	// directiveFindings are malformed or detached //mlckpt: markers
	// discovered while building the graph.
	directiveFindings []Finding
}

// Node returns the function node for a symbol, or nil.
func (g *Graph) Node(symbol string) *FuncNode { return g.nodes[symbol] }

// Nodes returns every node sorted by symbol (deterministic iteration).
func (g *Graph) Nodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes { //lint:allow maporder sorted by symbol immediately below
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Symbol < out[j].Symbol })
	return out
}

// Callees resolves one call site to its possible targets inside the
// module: the static callee when known, otherwise every method whose
// name and parameter count match the interface call.
func (g *Graph) Callees(cs CallSite) []*FuncNode {
	if cs.Callee != "" {
		if n := g.nodes[cs.Callee]; n != nil {
			return []*FuncNode{n}
		}
		return nil
	}
	var out []*FuncNode
	for _, sym := range g.methodIndex[cs.IfaceMethod] {
		n := g.nodes[sym]
		if n == nil {
			continue
		}
		if paramCount(n) == cs.IfaceParams {
			out = append(out, n)
		}
	}
	return out
}

func paramCount(n *FuncNode) int {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	count := 0
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			if len(f.Names) == 0 {
				count++
			} else {
				count += len(f.Names)
			}
		}
	}
	return count
}

// funcSymbol builds the stable cross-unit key for a function object:
// "pkg/path.Name" for package functions, "pkg/path.Recv.Name" for
// methods. Returns "" for objects without a package (builtins).
func funcSymbol(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	sym := f.Pkg().Path() + "."
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			sym += name + "."
		}
	}
	return sym + f.Name()
}

// recvTypeName names a receiver type, dereferencing one pointer.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.Alias:
		return n.Obj().Name()
	}
	return ""
}

// BuildGraph walks every unit and produces the module call graph.
func BuildGraph(units []*Unit) *Graph {
	g := &Graph{
		nodes:       map[string]*FuncNode{},
		methodIndex: map[string][]string{},
	}
	for _, u := range units {
		for _, file := range u.Files {
			g.directiveFindings = append(g.directiveFindings, detachedMarkers(u, file)...)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				g.addDecl(u, fd)
			}
		}
	}
	return g
}

// addDecl registers one function declaration and the literals nested in
// it.
func (g *Graph) addDecl(u *Unit, fd *ast.FuncDecl) {
	obj, _ := u.Info.Defs[fd.Name].(*types.Func)
	sym := funcSymbol(obj)
	if sym == "" {
		// Degraded type info: synthesize a unit-local symbol so the
		// function still participates in the graph.
		sym = fmt.Sprintf("%s.%s@%d", u.Path, fd.Name.Name, u.Fset.Position(fd.Pos()).Line)
	}
	// Re-checked twins (a package unit and its external-test sibling
	// both see the base package) can collide on a symbol; first writer
	// wins, which keeps iteration deterministic because units arrive in
	// sorted directory order.
	if _, exists := g.nodes[sym]; exists {
		return
	}

	marks, bad := parseFuncMarks(u, fd)
	g.directiveFindings = append(g.directiveFindings, bad...)

	node := &FuncNode{
		Symbol: sym,
		Name:   displayName(u, fd),
		Unit:   u,
		Decl:   fd,
		Pos:    fd.Pos(),
		marks:  marks,
	}
	node.owner = node
	g.nodes[sym] = node
	if fd.Recv != nil {
		g.methodIndex[fd.Name.Name] = append(g.methodIndex[fd.Name.Name], sym)
	}
	if fd.Body == nil {
		return // assembly or external declaration
	}
	g.walkBody(u, node, fd.Body)
}

// displayName renders a function for diagnostics: "(*Code).EncodeInto",
// "runEvent", or "func literal at file:line".
func displayName(u *Unit, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	return "(" + recv + ")." + fd.Name.Name
}

// litSymbol gives a nested function literal a deterministic unit-local
// key.
func litSymbol(u *Unit, lit *ast.FuncLit) string {
	pos := u.Fset.Position(lit.Pos())
	return fmt.Sprintf("%s.literal@%s:%d:%d", u.Path, shortFile(pos.Filename), pos.Line, pos.Column)
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// walkBody scans one function body: call edges, blocking operations,
// goroutine launches, and nested literals. Literals get their own nodes;
// the parent keeps an edge to every literal except those launched with
// `go` (which run on another goroutine, not on this one's continuation).
func (g *Graph) walkBody(u *Unit, node *FuncNode, body ast.Node) {
	var raw []BlockOp
	// Comm statements of a select are part of the select's single block
	// point, not independent channel operations.
	inSelect := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lit := g.addLit(u, x, node.owner)
			if !launchedByGo(u, body, x) {
				node.Calls = append(node.Calls, CallSite{Pos: x.Pos(), Callee: lit.Symbol})
			}
			return false // the literal's body belongs to its own node
		case *ast.GoStmt:
			node.hasGo = true
			// The spawned call runs on a fresh goroutine: no edge. Its
			// arguments are still evaluated here, so keep inspecting
			// them, but skip the call expression's function position.
			for _, arg := range x.Call.Args {
				g.inspectExpr(u, node, arg, &raw)
			}
			return false
		case *ast.SendStmt:
			if !inSelect[x] {
				raw = append(raw, BlockOp{Pos: x.Pos(), Kind: blockChanSend, Desc: "channel send"})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !inSelect[x] {
				raw = append(raw, BlockOp{Pos: x.Pos(), Kind: blockChanRecv, Desc: "channel receive"})
			}
		case *ast.SelectStmt:
			raw = append(raw, BlockOp{Pos: x.Pos(), Kind: blockSelect, Desc: "select"})
			for _, clause := range x.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				inSelect[cc.Comm] = true
				switch comm := cc.Comm.(type) {
				case *ast.ExprStmt:
					inSelect[ast.Unparen(comm.X)] = true
				case *ast.AssignStmt:
					for _, rhs := range comm.Rhs {
						inSelect[ast.Unparen(rhs)] = true
					}
				}
			}
		case *ast.RangeStmt:
			if t := u.Info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					raw = append(raw, BlockOp{Pos: x.Pos(), Kind: blockChanRange, Desc: "range over channel"})
				}
			}
		case *ast.CallExpr:
			g.recordCall(u, node, x, &raw)
		}
		return true
	})
	node.Blocking = effectiveBlocking(node, raw)
}

// inspectExpr scans a sub-expression (used for go-statement arguments)
// with the same rules as walkBody.
func (g *Graph) inspectExpr(u *Unit, node *FuncNode, expr ast.Expr, raw *[]BlockOp) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lit := g.addLit(u, x, node.owner)
			node.Calls = append(node.Calls, CallSite{Pos: x.Pos(), Callee: lit.Symbol})
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				*raw = append(*raw, BlockOp{Pos: x.Pos(), Kind: blockChanRecv, Desc: "channel receive"})
			}
		case *ast.CallExpr:
			g.recordCall(u, node, x, raw)
		}
		return true
	})
}

// addLit registers one function literal node (idempotent per position).
func (g *Graph) addLit(u *Unit, lit *ast.FuncLit, owner *FuncNode) *FuncNode {
	sym := litSymbol(u, lit)
	if n, ok := g.nodes[sym]; ok {
		return n
	}
	pos := u.Fset.Position(lit.Pos())
	node := &FuncNode{
		Symbol: sym,
		Name:   fmt.Sprintf("func literal at %s:%d", shortFile(pos.Filename), pos.Line),
		Unit:   u,
		Lit:    lit,
		Pos:    lit.Pos(),
		owner:  owner,
	}
	g.nodes[sym] = node
	g.walkBody(u, node, lit.Body)
	return node
}

// launchedByGo reports whether the literal is the immediate callee of a
// go statement within body.
func launchedByGo(u *Unit, body ast.Node, lit *ast.FuncLit) bool {
	launched := false
	ast.Inspect(body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok && gs.Call.Fun == lit {
			launched = true
		}
		return !launched
	})
	return launched
}

// recordCall classifies one call expression: a static edge, an interface
// dispatch, a blocking stdlib call, or an unlock marker.
func (g *Graph) recordCall(u *Unit, node *FuncNode, call *ast.CallExpr, raw *[]BlockOp) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := u.Info.Uses[fun].(*types.Func); ok {
			if sym := funcSymbol(f); sym != "" {
				node.Calls = append(node.Calls, CallSite{Pos: call.Pos(), Callee: sym, Call: call})
			}
		}
	case *ast.SelectorExpr:
		g.recordSelectorCall(u, node, call, fun, raw)
	case *ast.FuncLit:
		// Immediately-invoked literal: the edge was added when the
		// literal node was created.
	}
}

func (g *Graph) recordSelectorCall(u *Unit, node *FuncNode, call *ast.CallExpr, sel *ast.SelectorExpr, raw *[]BlockOp) {
	name := sel.Sel.Name

	// Package-qualified call (time.Sleep, stats.DeriveSeed, ...).
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgPath := pkgPathOfIdent2(u, id); pkgPath != "" {
			if pkgPath == "time" && name == "Sleep" {
				*raw = append(*raw, BlockOp{Pos: call.Pos(), Kind: blockSleep, Desc: "time.Sleep"})
				return
			}
			if f, ok := u.Info.Uses[sel.Sel].(*types.Func); ok {
				if sym := funcSymbol(f); sym != "" {
					node.Calls = append(node.Calls, CallSite{Pos: call.Pos(), Callee: sym, Call: call})
				}
			}
			return
		}
	}

	// Method call: blocking sync primitives first.
	recv := u.Info.TypeOf(sel.X)
	if isSyncType(recv) {
		switch name {
		case "Lock", "RLock":
			*raw = append(*raw, BlockOp{Pos: call.Pos(), Kind: blockLock, Desc: "sync " + name})
			return
		case "Wait":
			*raw = append(*raw, BlockOp{Pos: call.Pos(), Kind: blockWait, Desc: "sync " + name})
			return
		case "Unlock", "RUnlock":
			node.hasUnlock = true
			return
		}
	}

	if f, ok := u.Info.Uses[sel.Sel].(*types.Func); ok {
		sig, _ := f.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				node.Calls = append(node.Calls, CallSite{
					Pos:         call.Pos(),
					IfaceMethod: name,
					IfaceParams: sig.Params().Len(),
					Call:        call,
				})
				return
			}
		}
		if sym := funcSymbol(f); sym != "" {
			node.Calls = append(node.Calls, CallSite{Pos: call.Pos(), Callee: sym, Call: call})
		}
		return
	}

	// Degraded typing: record an interface-style edge by name so the
	// traversal still sees a conservative superset.
	node.Calls = append(node.Calls, CallSite{
		Pos:         call.Pos(),
		IfaceMethod: name,
		IfaceParams: len(call.Args),
		Call:        call,
	})
}

// pkgPathOfIdent2 resolves an identifier to an import path using type
// info only (no file-import fallback: callers handle degraded typing
// separately).
func pkgPathOfIdent2(u *Unit, id *ast.Ident) string {
	if pn, ok := u.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// isSyncType reports whether t is (a pointer to) a type declared in
// package sync.
func isSyncType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

// effectiveBlocking applies the two structural exemptions to a
// function's raw blocking operations:
//
//   - Fork-join: a function that launches its own goroutines and then
//     communicates with them (channel operations, WaitGroup.Wait) is a
//     self-contained coordinator — its workers are plain goroutines that
//     drain unconditionally, not fibers another continuation must
//     resume. The striped erasure kernels and sim.RunMany are this
//     shape.
//   - Bounded critical section: a Lock paired with an Unlock in a
//     function with no other blocking operations cannot be held across
//     a fiber park, so it cannot wedge the scheduler (the obs registry
//     counters are this shape). A Lock without a visible Unlock, or one
//     sharing the body with a channel operation, stays reportable.
func effectiveBlocking(node *FuncNode, raw []BlockOp) []BlockOp {
	var out []BlockOp
	for _, op := range raw {
		if node.hasGo {
			switch op.Kind {
			case blockChanSend, blockChanRecv, blockSelect, blockChanRange, blockWait:
				continue
			}
		}
		out = append(out, op)
	}
	if node.hasUnlock {
		onlyLocks := true
		for _, op := range out {
			if op.Kind != blockLock {
				onlyLocks = false
				break
			}
		}
		if onlyLocks {
			return nil
		}
	}
	return out
}
