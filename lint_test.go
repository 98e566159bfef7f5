package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Counters live in the unified metrics plane (internal/metrics), and the
// kernel has one concurrency mechanism, the mutex: no other package may
// use sync/atomic, which is how the ad-hoc stats surfaces and lock-free
// side paths accreted in the first place. This test parses every Go file
// of the module outside perfbench (internal/, cmd/, multics/, examples/
// and the root package, tests included) and flags every import of
// "sync/atomic", under whatever name, and every use of that name.
//
// Allowlisted: internal/metrics (the plane itself) and
// internal/trace/trace.go (the trace ring's cursor and enabled flag; the
// ring is the leaf the metrics plane publishes through).

func atomicAllowed(rel string) bool {
	return strings.HasPrefix(rel, "internal/metrics/") || rel == "internal/trace/trace.go"
}

// atomicViolations returns every import and use of sync/atomic outside
// the allowlist in the module rooted at root, as "file:line: reason".
func atomicViolations(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	for _, dir := range []string{"internal", "cmd", "multics", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	top, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, top...)

	var bad []string
	fset := token.NewFileSet()
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		if atomicAllowed(rel) {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := ""
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path != "sync/atomic" {
				continue
			}
			name = "atomic"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			bad = append(bad, fset.Position(imp.Pos()).String()+": imports sync/atomic outside internal/metrics "+
				"(count in Services().Metrics; guard state with a mutex)")
		}
		if name == "" || name == "_" || name == "." {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
				bad = append(bad, fset.Position(sel.Pos()).String()+": uses "+name+"."+sel.Sel.Name+
					" from sync/atomic outside internal/metrics")
			}
			return true
		})
	}
	return bad
}

func TestAtomicCounterLint(t *testing.T) {
	for _, v := range atomicViolations(t, ".") {
		t.Error(v)
	}
}
