// Command allocgate gates the functions annotated //mlckpt:hotpath on the
// compiler's escape analysis (docs/LINT.md). It compiles the module with
// `go build -gcflags='-m -m'`, collects the escape-analysis verdicts the
// compiler emits, and keeps the ones that land inside annotated functions.
// The result is compared against allocgate.baseline at the module root:
//
//   - a hot function GAINING a heap escape fails the gate (exit 1) with
//     the live file:line:col diagnostics, so a regression points at the
//     exact expression that started allocating;
//   - a hot function LOSING an escape only warns — the improvement is
//     real, but the baseline should be refreshed (`make allocgate-baseline`)
//     so the next regression is caught at the new, lower, waterline.
//
// The gate sees every path the compiler does, cold ones included, but not
// what a path costs when it runs: a slice that append grows on every call
// escapes nowhere new. The run-time half of the contract is one exact
// testing.AllocsPerRun pin per annotated function, which docs/LINT.md
// lists. mlckptlint reports a marker outside a func's doc comment, where
// this scan would not see it.
//
// The baseline is keyed by (file, function, compiler message) with a
// count, not by line number: moving code around inside a function must
// not invalidate it, while a second instance of the same allocation must.
//
// Exit codes follow mlckptlint: 0 clean, 1 gate failed, 2 operational
// error (no baseline, build failure, unreadable tree).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	marker       = "mlckpt:hotpath"
	baselineFile = "allocgate.baseline" // at the module root
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("allocgate", flag.ContinueOnError)
	flags.SetOutput(stderr)
	update := flags.Bool("update", false, "rewrite the baseline from the current build instead of checking against it")
	verbose := flags.Bool("v", false, "print every escape attributed to a hot function")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: allocgate [-update] [-v]\n\n")
		fmt.Fprintf(stderr, "Gates //mlckpt:hotpath functions on the compiler's escape analysis.\n\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "allocgate: %v\n", err)
		return 2
	}
	hot, err := scanHotFuncs(root)
	if err != nil {
		fmt.Fprintf(stderr, "allocgate: %v\n", err)
		return 2
	}
	if len(hot) == 0 {
		fmt.Fprintf(stderr, "allocgate: no //mlckpt:hotpath functions found under %s\n", root)
		return 2
	}
	diags, err := escapeDiagnostics(root, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "allocgate: %v\n", err)
		return 2
	}

	current := map[string]int{}      // baseline key -> count
	witness := map[string][]string{} // baseline key -> live file:line:col diagnostics
	funcs := map[string]bool{}       // gated functions that compiled (for the summary)
	for file, fns := range hot {
		for _, fn := range fns {
			funcs[file+":"+fn.name] = false
		}
	}
	for _, d := range diags {
		fn, ok := containing(hot, d.file, d.line)
		if !ok {
			continue
		}
		funcs[d.file+":"+fn] = true
		key := baselineKey(d.file, fn, d.msg)
		current[key]++
		witness[key] = append(witness[key], fmt.Sprintf("%s:%d:%d: %s", d.file, d.line, d.col, d.msg))
		if *verbose {
			fmt.Fprintf(stdout, "escape: %s:%d:%d: [%s] %s\n", d.file, d.line, d.col, fn, d.msg)
		}
	}

	abs := filepath.Join(root, baselineFile)
	if *update {
		if err := writeBaseline(abs, current); err != nil {
			fmt.Fprintf(stderr, "allocgate: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "allocgate: baseline updated: %d gated function(s), %d distinct escape(s)\n",
			countHot(hot), len(current))
		return 0
	}

	base, err := readBaseline(abs)
	if err != nil {
		fmt.Fprintf(stderr, "allocgate: %v\n(run `make allocgate-baseline` to create it)\n", err)
		return 2
	}
	gains, losses := diffBaseline(base, current)
	for _, key := range losses {
		fmt.Fprintf(stdout, "allocgate: improved: %s (now %d, baseline %d) — refresh with `make allocgate-baseline`\n",
			keyString(key), current[key], base[key])
	}
	if len(gains) == 0 {
		fmt.Fprintf(stdout, "allocgate: ok: %d gated function(s), %d baseline escape(s), no gains\n",
			countHot(hot), len(base))
		return 0
	}
	for _, key := range gains {
		fmt.Fprintf(stderr, "allocgate: FAIL: %s gained a heap escape (now %d, baseline %d):\n",
			keyString(key), current[key], base[key])
		for _, w := range witness[key] {
			fmt.Fprintf(stderr, "  %s\n", w)
		}
	}
	fmt.Fprintf(stderr, "allocgate: %d regression(s); fix the allocation or, if intentional, run `make allocgate-baseline` and justify the diff in review\n", len(gains))
	return 1
}

// hotFunc is one annotated function's span within its file.
type hotFunc struct {
	name       string
	start, end int // line range, inclusive (doc comment excluded)
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod, so the tool runs from any subdirectory like `go test` does.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// scanHotFuncs parses every non-test .go file under root (skipping
// testdata, vendor and hidden directories) and records the line span of
// each function whose doc comment carries //mlckpt:hotpath. Parsing only —
// no type checking — so the scan is cheap and tolerant of a tree that the
// full linter would reject.
func scanHotFuncs(root string) (map[string][]hotFunc, error) {
	out := map[string][]hotFunc{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %v", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasMarker(fd.Doc) {
				continue
			}
			out[rel] = append(out[rel], hotFunc{
				name:  funcName(fd),
				start: fset.Position(fd.Pos()).Line,
				end:   fset.Position(fd.End()).Line,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// funcName renders the compiler's notation for a declaration: Name for
// functions, (T).Name / (*T).Name for methods.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star = true
		t = s.X
	}
	// Strip type parameters if present (Foo[T]).
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if ix, ok := t.(*ast.IndexListExpr); ok {
		t = ix.X
	}
	base := "?"
	if id, ok := t.(*ast.Ident); ok {
		base = id.Name
	}
	if star {
		return "(*" + base + ")." + fd.Name.Name
	}
	return "(" + base + ")." + fd.Name.Name
}

// diag is one escape-analysis verdict at a source position.
type diag struct {
	file      string // slash-separated, relative to the module root
	line, col int
	msg       string
}

// escapeDiagnostics builds the whole module with -m -m and keeps the
// verdict lines: "<expr> escapes to heap" and "moved to heap: <var>".
// With -m -m each verdict appears twice — once suffixed ':' introducing
// the flow explanation, once bare — so only the bare form is kept; flow
// and inlining chatter is dropped.
func escapeDiagnostics(root string, stderr io.Writer) ([]diag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m -m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		// A build failure is an operational error: show the compiler's
		// words, not a parse of them.
		fmt.Fprintf(stderr, "%s", out)
		return nil, fmt.Errorf("go build -gcflags='-m -m' failed: %v", err)
	}
	var diags []diag
	for _, line := range strings.Split(string(out), "\n") {
		d, ok := parseDiag(line)
		if ok {
			diags = append(diags, d)
		}
	}
	return diags, nil
}

// parseDiag extracts one verdict line of the form
// "path/file.go:LINE:COL: message".
func parseDiag(line string) (diag, bool) {
	rest := line
	i := strings.Index(rest, ".go:")
	if i < 0 {
		return diag{}, false
	}
	file := rest[:i+len(".go")]
	rest = rest[i+len(".go:"):]
	var ln, col int
	var msg string
	j := strings.Index(rest, ": ")
	if j < 0 {
		return diag{}, false
	}
	if _, err := fmt.Sscanf(rest[:j], "%d:%d", &ln, &col); err != nil {
		return diag{}, false
	}
	msg = rest[j+2:]
	if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap: ") {
		return diag{}, false
	}
	return diag{file: filepath.ToSlash(file), line: ln, col: col, msg: msg}, true
}

// containing resolves a diagnostic position to the annotated function
// whose span covers it, if any.
func containing(hot map[string][]hotFunc, file string, line int) (string, bool) {
	for _, fn := range hot[file] {
		if line >= fn.start && line <= fn.end {
			return fn.name, true
		}
	}
	return "", false
}

// Baseline file format: one record per line,
//
//	<count>\t<file>\t<function>\t<message>
//
// sorted, with '#' comments. Counts make the key a multiset: a second
// instance of an already-baselined allocation is still a gain.

func baselineKey(file, fn, msg string) string {
	return file + "\t" + fn + "\t" + msg
}

func keyString(key string) string {
	parts := strings.SplitN(key, "\t", 3)
	if len(parts) != 3 {
		return key
	}
	return fmt.Sprintf("%s in %s (%s)", parts[2], parts[1], parts[0])
}

func readBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("%s:%d: malformed baseline record (want count<TAB>file<TAB>func<TAB>message)", path, i+1)
		}
		var n int
		if _, err := fmt.Sscanf(parts[0], "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("%s:%d: bad count %q", path, i+1, parts[0])
		}
		out[baselineKey(parts[1], parts[2], parts[3])] = n
	}
	return out, nil
}

func writeBaseline(path string, current map[string]int) error {
	keys := make([]string, 0, len(current))
	for k := range current {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# allocgate baseline: heap escapes the compiler reports inside //mlckpt:hotpath functions.\n")
	b.WriteString("# Format: count<TAB>file<TAB>function<TAB>compiler message. Regenerate with `make allocgate-baseline`;\n")
	b.WriteString("# any diff is an intentional allocation-profile change and belongs in review.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%d\t%s\n", current[k], k)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// diffBaseline returns the keys that gained occurrences (fail) and the
// keys that lost them (warn), both sorted for deterministic output.
func diffBaseline(base, current map[string]int) (gains, losses []string) {
	for k, n := range current {
		if n > base[k] {
			gains = append(gains, k)
		}
	}
	for k, n := range base {
		if current[k] < n {
			losses = append(losses, k)
		}
	}
	sort.Strings(gains)
	sort.Strings(losses)
	return gains, losses
}

func countHot(hot map[string][]hotFunc) int {
	n := 0
	for _, fns := range hot {
		n += len(fns)
	}
	return n
}
