package lint

import (
	"go/ast"
	"strings"
)

// Machine-checked source annotations. Three //mlckpt: markers, placed in
// a function declaration's doc comment, drive the gates that read them
// (see docs/LINT.md for the full contract):
//
//	//mlckpt:hotpath
//	    cmd/allocgate gates the function: a heap escape the compiler
//	    reports inside it that allocgate.baseline does not list fails
//	    the build. An exact testing.AllocsPerRun pin per function counts
//	    its run-time allocations; lint only checks the marker's place.
//
//	//mlckpt:fiber
//	    The function runs as a cooperative continuation (an event-engine
//	    fiber or an event-queue callback). The batonblock analyzer
//	    proves no blocking operation is reachable from it.
//
//	//mlckpt:baton <reason>
//	    The function is a sanctioned scheduler blocking primitive — the
//	    baton handoff itself. batonblock does not descend into it. The
//	    reason is mandatory, like //lint:allow.
//
// Unknown //mlckpt: markers, reasonless baton markers and markers outside
// a func declaration's doc comment are reported under the "lintdirective"
// pseudo-check, so a typo or an edit that detaches a marker from its
// function cannot silently disable a gate.

const (
	markerHotpath = "hotpath"
	markerFiber   = "fiber"
	markerBaton   = "baton"
)

// funcMarks is the parsed annotation state of one function declaration.
type funcMarks struct {
	fiber       bool
	baton       bool
	batonReason string
}

// parseFuncMarks reads the //mlckpt: markers from a declaration's doc
// comment. Malformed markers are reported as lintdirective findings.
func parseFuncMarks(u *Unit, decl *ast.FuncDecl) (funcMarks, []Finding) {
	var marks funcMarks
	var bad []Finding
	if decl.Doc == nil {
		return marks, nil
	}
	for _, c := range decl.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//mlckpt:")
		if !ok {
			continue
		}
		pos := u.Fset.Position(c.Pos())
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			bad = append(bad, directiveFinding(pos, "//mlckpt: needs a marker name (hotpath, fiber, or baton)"))
			continue
		}
		switch fields[0] {
		case markerHotpath:
			// Read by cmd/allocgate; nothing here depends on it.
		case markerFiber:
			marks.fiber = true
		case markerBaton:
			if len(fields) < 2 {
				bad = append(bad, directiveFinding(pos, "//mlckpt:baton needs a justification after the marker"))
				continue
			}
			marks.baton = true
			marks.batonReason = strings.Join(fields[1:], " ")
		default:
			bad = append(bad, directiveFinding(pos, "//mlckpt: names unknown marker "+fields[0]+" (have hotpath, fiber, baton)"))
		}
	}
	return marks, bad
}

// detachedMarkers reports every //mlckpt: comment in file that is not in
// a func declaration's doc comment. Both readers of the markers, allocgate
// and the call graph, look only there, so a marker anywhere else gates
// nothing: a declaration inserted between a func's doc comment and the
// func takes the comment over, and the func leaves its gate silently.
func detachedMarkers(u *Unit, file *ast.File) []Finding {
	docs := map[*ast.CommentGroup]bool{}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			docs[fd.Doc] = true
		}
	}
	var bad []Finding
	for _, cg := range file.Comments {
		if docs[cg] {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//mlckpt:") {
				bad = append(bad, directiveFinding(u.Fset.Position(c.Pos()),
					"//mlckpt: marker outside a func declaration's doc comment gates nothing; put it directly above its func"))
			}
		}
	}
	return bad
}
