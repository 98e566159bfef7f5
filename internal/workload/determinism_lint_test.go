package workload

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Replay digests are a pure function of the seed only if the sources
// that decide what a session does never read the wall clock, never draw
// unseeded randomness and never race goroutines against each other. This
// test checks that on the package source:
//
//   - persona.go and scenario.go (every persona decision is a seeded
//     hash) may not read the wall clock, import math/rand, or start a
//     goroutine;
//   - workload.go and transcript.go (the sequential replay driver) may
//     not read the wall clock or start a goroutine. Their math/rand use
//     is the stormer's historical seeded stream, so that rule is waived.
//
// A wall-clock read is any reference to time.Now, time.Since or
// time.Until through whatever name the file imports "time" as.

// determinismFiles are the checked files and whether math/rand is banned
// in each.
var determinismFiles = []struct {
	name    string
	banRand bool
}{
	{"persona.go", true},
	{"scenario.go", true},
	{"workload.go", false},
	{"transcript.go", false},
}

var wallClockReads = map[string]bool{"Now": true, "Since": true, "Until": true}

// determinismViolations returns every rule broken in the checked files
// under dir, as "file:line: reason".
func determinismViolations(t *testing.T, dir string) []string {
	t.Helper()
	var bad []string
	fset := token.NewFileSet()
	for _, file := range determinismFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, file.name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		flag := func(n ast.Node, why string) {
			bad = append(bad, fset.Position(n.Pos()).String()+": "+why)
		}
		timeName := ""
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case path == "time":
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			case strings.HasPrefix(path, "math/rand") && file.banRand:
				flag(imp, "imports "+path+" - persona decisions must be seeded hashes")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				flag(n, "go statement - replay must not depend on goroutine scheduling")
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && timeName != "" && id.Name == timeName && wallClockReads[n.Sel.Name] {
					flag(n, "wall-clock read "+timeName+"."+n.Sel.Name)
				}
			}
			return true
		})
	}
	return bad
}

func TestDeterminismLint(t *testing.T) {
	for _, b := range determinismViolations(t, ".") {
		t.Error(b)
	}
}
