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

// Counters live in the unified metrics plane (internal/metrics): no other
// package may grow private sync/atomic counter values, which is how the
// ad-hoc stats surfaces accreted in the first place. This test parses
// every Go file of the module outside perfbench (internal/, cmd/,
// multics/, examples/ and the root package, tests included) and flags
// any use of the typed atomics atomic.Int32, Int64, Uint32, Uint64 and
// Bool, through whatever name the file imports "sync/atomic" as.
// atomic.Pointer and atomic.Value are not counters and are exempt.
//
// Allowlisted: internal/metrics (the plane itself) and
// internal/trace/trace.go (the trace ring's cursor and enabled flag; the
// ring is the leaf the metrics plane publishes through).

var atomicCounterTypes = map[string]bool{
	"Int32": true, "Int64": true, "Uint32": true, "Uint64": true, "Bool": true,
}

func atomicCounterAllowed(rel string) bool {
	return strings.HasPrefix(rel, "internal/metrics/") || rel == "internal/trace/trace.go"
}

// atomicCounterViolations returns every use of a typed atomic outside
// the allowlist in the module rooted at root, as "file:line: reason".
func atomicCounterViolations(t *testing.T, root string) []string {
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
		if atomicCounterAllowed(rel) {
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
			if name == "." {
				bad = append(bad, fset.Position(imp.Pos()).String()+": dot-import of sync/atomic hides its counter types")
			}
		}
		if name == "" || name == "_" || name == "." {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && atomicCounterTypes[sel.Sel.Name] {
				bad = append(bad, fset.Position(sel.Pos()).String()+": sync/atomic counter "+
					name+"."+sel.Sel.Name+" outside internal/metrics (use Services().Metrics)")
			}
			return true
		})
	}
	return bad
}

func TestAtomicCounterLint(t *testing.T) {
	for _, v := range atomicCounterViolations(t, ".") {
		t.Error(v)
	}
}
