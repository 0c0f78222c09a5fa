package vwchar_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportExemptions lists the internal/ declarations that may keep
// no non-test use, keyed package.Recv.Name (package.Name outside a
// type), each with the reason it stays.
var testOnlyExportExemptions = map[string]string{
	"rubisdb.Engine.Check":  "test hook: verifies the buffer pool's invariants between queries",
	"sim.Kernel.Step":       "test hook: single-steps the kernel so tests can observe state between events",
	"rubisdb.Golden.Digest": "test hook: fingerprints a golden snapshot so tests can prove views never write through",
}

// TestNoTestOnlyExports type-checks the non-test Go files of the module
// and of bench/ and fails on any exported function, method, interface
// method, type, package-level const or var, or non-embedded struct field
// declared under internal/ that no non-test file refers to. internal/
// cannot be imported from outside the module, so such a declaration is
// code only tests need: delete it, move it into a _test.go file, or give
// it the caller it was written for. It fails as well on any unexported
// declaration of the module (bench/ aside) that no non-test file uses:
// a package-level func, const, var or type, a method, an interface
// method or a struct field.
//
// A reference is a go/types use of the declared object (an instance of a
// generic one counts for its origin), so an unrelated declaration of the
// same name does not hide a dead one, and a recursive call or a method's
// receiver does not count. A field counts as used when non-test code
// reads or writes it, an unkeyed struct literal included. A method also
// counts as used when its type implements an interface that non-test
// code mentions, such as rand.Source through rand.New, or fmt.Stringer
// and error, which fmt finds by type assertion. Exported methods and
// fields of the types reachable from package vwchar's exported
// declarations, through aliases, struct fields and signatures, are
// public API and exempt.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs := loadNonTestCode(t, root)
	used := usedObjects(pkgs)
	markInterfaceMethods(pkgs, used)
	api := publicAPITypes(pkgs)

	var unused []string
	exempted := make(map[string]bool)
	check := func(key string, obj types.Object) {
		if used[obj] {
			return
		}
		if _, ok := testOnlyExportExemptions[key]; ok {
			exempted[key] = true
			return
		}
		pos := fset.Position(obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		unused = append(unused, key+" ("+pos.String()+")")
	}
	internal := 0
	for _, p := range pkgs {
		if p.bench {
			continue
		}
		if p.internal {
			internal++
		}
		// Under internal/ every declaration needs a non-test use, except
		// the exported methods and fields of public API types; elsewhere
		// only unexported declarations do.
		checks := func(obj types.Object, public bool) bool {
			return !obj.Exported() || p.internal && !public
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			key := p.types.Name() + "." + n
			if n != "main" && checks(obj, false) {
				check(key, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			var members []types.Object
			for i := 0; i < named.NumMethods(); i++ {
				members = append(members, named.Method(i))
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					members = append(members, u.ExplicitMethod(i))
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); !f.Embedded() && f.Name() != "_" {
						members = append(members, f)
					}
				}
			}
			for _, m := range members {
				if checks(m, api[named]) {
					check(key+"."+m.Name(), m)
				}
			}
		}
	}
	if internal == 0 {
		t.Fatal("found no packages under internal/")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no non-test use: %s", u)
	}
	// An exemption that no longer matches a test-only export is stale.
	for key := range testOnlyExportExemptions {
		if !exempted[key] {
			t.Errorf("exemption %s matches no test-only export; remove it", key)
		}
	}
}

// checkedPackage is one package's non-test files, type-checked.
type checkedPackage struct {
	internal bool // under internal/
	bench    bool // part of the bench/ module
	files    []*ast.File
	types    *types.Package
	info     *types.Info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadNonTestCode type-checks the non-test files of the module at root
// and of its bench/ module, package by package in the dependency order
// `go list -deps` gives. Standard-library imports are type-checked from
// source.
func loadNonTestCode(t *testing.T, root string) (*token.FileSet, []*checkedPackage) {
	t.Helper()
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []*checkedPackage
	for _, mod := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = filepath.Join(root, mod)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", mod, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var lp struct {
				ImportPath, Dir string
				Standard        bool
				GoFiles         []string
			}
			if err := dec.Decode(&lp); err != nil {
				t.Fatal(err)
			}
			if lp.Standard || checked[lp.ImportPath] != nil {
				continue
			}
			dir, err := filepath.Rel(root, lp.Dir)
			if err != nil {
				t.Fatal(err)
			}
			p := &checkedPackage{
				internal: strings.HasPrefix(filepath.ToSlash(dir), "internal/"),
				bench:    mod == "bench",
				info: &types.Info{
					Types: make(map[ast.Expr]types.TypeAndValue),
					Defs:  make(map[*ast.Ident]types.Object),
					Uses:  make(map[*ast.Ident]types.Object),
				},
			}
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				p.files = append(p.files, f)
			}
			if p.types, err = conf.Check(lp.ImportPath, fset, p.files, p.info); err != nil {
				t.Fatalf("type-check %s: %v", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = p.types
			pkgs = append(pkgs, p)
		}
	}
	return fset, pkgs
}

// origin maps an instantiated generic function, method or field to the
// object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// usedObjects returns the objects non-test code refers to, outside the
// object's own declaration: a function's body and a type's declaration
// and method receivers do not count. Every field of a struct built with
// an unkeyed literal counts as written.
func usedObjects(pkgs []*checkedPackage) map[types.Object]bool {
	type span struct{ from, to token.Pos }
	own := make(map[types.Object][]span)
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					own[fn] = append(own[fn], span{d.Pos(), d.End()})
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						tn := namedOf(recv.Type()).Obj()
						own[tn] = append(own[tn], span{d.Recv.Pos(), d.Recv.End()})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							obj := p.info.Defs[ts.Name]
							own[obj] = append(own[obj], span{ts.Pos(), ts.End()})
						}
					}
				}
			}
		}
	}
	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			self := false
			for _, s := range own[obj] {
				if s.from <= id.Pos() && id.Pos() < s.to {
					self = true
				}
			}
			if !self {
				used[obj] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := p.info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						used[origin(st.Field(i))] = true
					}
				}
				return true
			})
		}
	}
	return used
}

// namedOf returns the origin of the named receiver type t or *t.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named).Origin()
}

// markInterfaceMethods marks as used each method of a module type that
// implements a method of an interface non-test code mentions: the type
// of a used object or of a value expression, or a type inside either,
// such as a parameter of a called function. fmt.Stringer counts as
// mentioned wherever fmt is imported, because fmt finds String by type
// assertion on an any argument.
func markInterfaceMethods(pkgs []*checkedPackage, used map[types.Object]bool) {
	ifaces := make(map[*types.Interface]bool)
	seen := make(map[types.Type]bool)
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
		for _, c := range components(typ) {
			collect(c)
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			collect(obj.Type())
		}
		for _, tv := range p.info.Types {
			if !tv.IsType() {
				collect(tv.Type)
			}
		}
		for _, imp := range p.types.Imports() {
			if imp.Path() == "fmt" {
				collect(imp.Scope().Lookup("Stringer").Type())
			}
		}
	}
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Type().(*types.Named).TypeParams().Len() > 0 || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, iface.Method(i).Pkg(), iface.Method(i).Name())
					used[origin(m)] = true
				}
			}
		}
	}
}

// publicAPITypes returns the named types reachable from package vwchar's
// exported declarations through aliases, type arguments, exported and
// embedded struct fields, exported method and interface method
// signatures, and element types.
func publicAPITypes(pkgs []*checkedPackage) map[*types.Named]bool {
	reach := make(map[*types.Named]bool)
	seen := make(map[types.Type]bool)
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := types.Unalias(typ).(type) {
		case *types.Named:
			for i := 0; i < u.TypeArgs().Len(); i++ {
				walk(u.TypeArgs().At(i))
			}
			o := u.Origin()
			reach[o] = true
			for i := 0; i < o.NumMethods(); i++ {
				if m := o.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
			walk(o.Underlying())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				walk(u.Method(i).Type())
			}
		}
		for _, c := range components(typ) {
			walk(c)
		}
	}
	for _, p := range pkgs {
		if p.types.Path() != "vwchar" {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			if obj := scope.Lookup(n); obj.Exported() {
				walk(obj.Type())
			}
		}
	}
	return reach
}

// components returns the element, key, parameter and result types
// directly inside t.
func components(t types.Type) []types.Type {
	switch u := types.Unalias(t).(type) {
	case *types.Pointer:
		return []types.Type{u.Elem()}
	case *types.Slice:
		return []types.Type{u.Elem()}
	case *types.Array:
		return []types.Type{u.Elem()}
	case *types.Chan:
		return []types.Type{u.Elem()}
	case *types.Map:
		return []types.Type{u.Key(), u.Elem()}
	case *types.Signature:
		var out []types.Type
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				out = append(out, tup.At(i).Type())
			}
		}
		return out
	}
	return nil
}
