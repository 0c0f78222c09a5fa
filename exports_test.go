package vwchar_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportExemptions lists the exported internal/ functions and
// methods that may keep no non-test caller, keyed package.Recv.Name
// (package.Name for a function), each with the reason it stays.
var testOnlyExportExemptions = map[string]string{
	"rubisdb.Engine.Check":  "test hook: verifies the buffer pool's invariants between queries",
	"sim.Kernel.Step":       "test hook: single-steps the kernel so tests can observe state between events",
	"rubisdb.Golden.Digest": "test hook: fingerprints a golden snapshot so tests can prove views never write through",
	"rng.source.Int63":      "completes math/rand.Source, which rand.New calls through the interface",
}

// TestNoTestOnlyExports fails on any exported function or method under
// internal/ whose name no non-test Go file of the module or of bench/
// uses outside the function's own declaration. internal/ cannot be
// imported from outside the module, so such a function is code only
// tests need: delete it, move it into a _test.go file, or give it the
// caller it was written for. Uses are AST identifiers, so a name that
// appears only in a string or comment does not count.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key  string
		pos  token.Position
		self int // identifiers naming it inside its own body
	}
	fset := token.NewFileSet()
	uses := make(map[string]int)
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			uses[fn.Name.Name]-- // a declaration's own name is not a use
			if !internal || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			self := 0 // recursive calls
			if fn.Body != nil {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == fn.Name.Name {
						self++
					}
					return true
				})
			}
			decls = append(decls, decl{key: key, pos: fset.Position(fn.Pos()), self: self})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
	var unused []string
	exempted := make(map[string]bool)
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if uses[name] > d.self {
			continue
		}
		if _, ok := testOnlyExportExemptions[d.key]; ok {
			exempted[d.key] = true
			continue
		}
		unused = append(unused, d.key+" ("+d.pos.String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but used only by tests: %s", u)
	}
	// An exemption that no longer matches a test-only export is stale.
	for key := range testOnlyExportExemptions {
		if !exempted[key] {
			t.Errorf("exemption %s matches no test-only export; remove it", key)
		}
	}
}

// recvTypeName returns the type name of a method receiver, without
// pointer or type parameters.
func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
