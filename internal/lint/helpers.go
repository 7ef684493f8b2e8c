package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// parents records every node's parent within a file so analyzers can walk
// outward (to the enclosing loop, function, or file) from a match.
type parents map[ast.Node]ast.Node

func newParents(file *ast.File) parents {
	p := parents{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			p[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return p
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing n,
// or nil when n is at file scope.
func (p parents) enclosingFunc(n ast.Node) ast.Node {
	for cur := p[n]; cur != nil; cur = p[cur] {
		switch cur.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return cur
		}
	}
	return nil
}

// enclosingLoop returns the innermost for/range statement containing n
// without crossing a function boundary, or nil.
func (p parents) enclosingLoop(n ast.Node) ast.Node {
	for cur := p[n]; cur != nil; cur = p[cur] {
		switch cur.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return cur
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// pkgPathOfIdent resolves an identifier to the import path of the package
// it names, or "" when it is not a package qualifier. It consults type
// information first and falls back to the file's import table so the
// check still works in files whose type checking degraded.
func pkgPathOfIdent(u *Unit, file *ast.File, id *ast.Ident) string {
	if obj, ok := u.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // a real object shadows any import name
	}
	// Fallback: match against the file's imports by explicit local name
	// or by the path's last element.
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// isFloat reports whether t's underlying type is a floating-point basic
// type (float32/float64 or an untyped float constant).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isString reports whether t's underlying type is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// declaredOutside reports whether the object bound to id was declared
// outside the [lo, hi) node span. Unresolved identifiers (degraded type
// info) are treated as declared outside, which errs toward reporting.
func declaredOutside(u *Unit, id *ast.Ident, span ast.Node) bool {
	obj := u.Info.Uses[id]
	if obj == nil {
		obj = u.Info.Defs[id]
	}
	if obj == nil {
		return true
	}
	pos := obj.Pos()
	return pos < span.Pos() || pos >= span.End()
}

// rootIdent walks to the base identifier of an lvalue chain like
// a.b[i].c, returning nil for expressions not rooted in an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
