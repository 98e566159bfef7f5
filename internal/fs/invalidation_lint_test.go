package fs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The revocation-safety argument (DESIGN.md "Hierarchy caches") rests on
// one discipline: a function that changes what a cached decision, cached
// path prefix or sorted listing was derived from bumps the owning object's
// generation inside the mutation. This test checks it on the package
// source:
//
//   - a function that assigns into or deletes from an .entries map must
//     call bumpEntGen;
//   - a function that assigns an object's label, dacl or dead field, or
//     calls anything but a read-only method on a .dacl, must call
//     bumpACLGen.
//
// The check is per function declaration, closures included.

// daclReadOnly are the acl.ACL methods that do not change the ACL.
var daclReadOnly = map[string]bool{"Check": true, "ModeFor": true, "Entries": true}

// aclFields are the Object fields an access decision is derived from.
var aclFields = map[string]bool{"label": true, "dacl": true, "dead": true}

// lintAllowed names the functions excused from a rule, with the reason.
var lintAllowed = map[string]string{
	"snapshot.go:ImportSnapshot/bumpEntGen": "restores entry maps into fresh objects of a hierarchy no caller holds yet; " +
		"no cache or listing can predate them",
}

type mutatorScan struct {
	entries, acl bool
	calls        map[string]bool
}

func scanMutations(body *ast.BlockStmt) mutatorScan {
	s := mutatorScan{calls: map[string]bool{}}
	isEntries := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "entries"
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch l := lhs.(type) {
				case *ast.IndexExpr:
					if isEntries(l.X) {
						s.entries = true
					}
				case *ast.SelectorExpr:
					if aclFields[l.Sel.Name] {
						s.acl = true
					}
				}
			}
		case *ast.CallExpr:
			switch fn := n.Fun.(type) {
			case *ast.Ident:
				s.calls[fn.Name] = true
				if fn.Name == "delete" && len(n.Args) > 0 && isEntries(n.Args[0]) {
					s.entries = true
				}
			case *ast.SelectorExpr:
				s.calls[fn.Sel.Name] = true
				if recv, ok := fn.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "dacl" && !daclReadOnly[fn.Sel.Name] {
					s.acl = true
				}
			}
		}
		return true
	})
	return s
}

// lintViolations returns every rule broken in the non-test Go files of
// dir, plus the names of the functions found mutating entry maps and ACL
// state.
func lintViolations(t *testing.T, dir string) (bad []string, entMutators, aclMutators map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	entMutators, aclMutators = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(path)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			s := scanMutations(fn.Body)
			name := fn.Name.Name
			rule := func(mutates bool, want string, found map[string]bool) {
				if !mutates {
					return
				}
				found[name] = true
				if s.calls[want] {
					return
				}
				if _, ok := lintAllowed[base+":"+name+"/"+want]; ok {
					return
				}
				bad = append(bad, fset.Position(fn.Pos()).String()+": "+name+" does not call "+want+
					" - a cached decision, path prefix or listing could outlive the mutation")
			}
			rule(s.entries, "bumpEntGen", entMutators)
			rule(s.acl, "bumpACLGen", aclMutators)
		}
	}
	sort.Strings(bad)
	return bad, entMutators, aclMutators
}

func TestCacheInvalidationLint(t *testing.T) {
	bad, ent, acl := lintViolations(t, ".")
	for _, b := range bad {
		t.Error(b)
	}
	// The scan must keep seeing the hierarchy's public mutators; if one
	// drops out, the detection above has gone blind, not clean.
	for _, name := range []string{"Create", "AddLink", "Delete", "Rename", "Salvage", "ImportSnapshot"} {
		if !ent[name] {
			t.Errorf("lint no longer sees %s mutating an entry map", name)
		}
	}
	for _, name := range []string{"Delete", "SetACL", "RemoveACL", "Reclassify"} {
		if !acl[name] {
			t.Errorf("lint no longer sees %s mutating ACL or label state", name)
		}
	}
}
