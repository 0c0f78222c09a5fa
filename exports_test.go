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

	"tiers.WebAppServer.Served":    "counter only tests read: web served equals driver completed",
	"tiers.DBServer.Queries":       "counter only tests read: the cache tier offloads the DB",
	"tiers.WebAppServer.QueuePeak": "counter only tests read: the JSQ-versus-round-robin oracle saw contention",
}

// TestNoTestOnlyExports type-checks the non-test Go files of the module
// and of bench/ and fails on any exported function, method, interface
// method, type, package-level const or var declared under internal/
// that no non-test file refers to, and on any such non-embedded struct
// field that no non-test file reads. internal/ cannot be imported from
// outside the module, so such a declaration is code only tests need:
// delete it, move it into a _test.go file, or give it the caller it was
// written for. It fails as well on any unexported declaration of the
// module (bench/ aside) that no non-test file uses: a package-level
// func, const, var or type, a method, an interface method or a struct
// field.
//
// A reference is a go/types use of the declared object (an instance of a
// generic one counts for its origin), so an unrelated declaration of the
// same name does not hide a dead one, and a recursive call or a method's
// receiver does not count. A field is used only where non-test code
// reads it. A write, ++ or --, a keyed literal's key, and a read that
// only feeds a write of the same field (s.f += o.f, or the condition of
// if x.f < v { x.f = v }) are not reads; a struct used as a map key,
// compared with == or !=, or passed to a fmt function is read in every
// field. A method also counts as used when its type implements an
// interface that non-test code mentions, such as rand.Source through
// rand.New, or fmt.Stringer and error, which fmt finds by type
// assertion. Exported methods and fields of the types reachable from
// package vwchar's exported declarations, through aliases, struct fields
// and signatures, are public API and exempt.
//
// It also fails on any struct field it checks that non-test code reads
// but never stores into: such a field holds its zero value in every
// program, so only a test can turn it. A store is a write, ++ or --, a
// keyed literal's key, any field of an unkeyed literal, and taking the
// field's address: explicitly (&x.f), by slicing an array field, or by
// calling a pointer method on it (x.f.M()). A store into a field of a
// struct or array value stores into the field holding it as well.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs := loadNonTestCode(t, root)
	used, stored := usedObjects(pkgs)
	markInterfaceMethods(pkgs, used)
	api := publicAPITypes(pkgs)

	var unused []string
	exempted := make(map[string]bool)
	check := func(key string, obj types.Object) {
		var problem string
		if !used[obj] {
			problem = "no non-test use"
		} else if v, ok := obj.(*types.Var); ok && v.IsField() && !stored[obj] {
			problem = "read but never stored by non-test code"
		} else {
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
		unused = append(unused, problem+": "+key+" ("+pos.String()+")")
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
		t.Error(u)
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
// and method receivers do not count. A struct field counts only where it
// is read (see fieldWrites and markWholeReads). It returns as well the
// fields non-test code stores into.
func usedObjects(pkgs []*checkedPackage) (used, stored map[types.Object]bool) {
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
	used = make(map[types.Object]bool)
	stored = make(map[types.Object]bool)
	for _, p := range pkgs {
		writes := fieldWrites(p, stored)
		for id, obj := range p.info.Uses {
			if writes[id] {
				continue
			}
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
		markWholeReads(p, used)
	}
	return used, stored
}

// fieldOf returns the field id refers to, or nil.
func fieldOf(p *checkedPackage, id *ast.Ident) types.Object {
	if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
		return origin(v)
	}
	return nil
}

// fieldWrites returns the references to struct fields in p that do not
// read them: a keyed struct literal's key, the target of an assignment,
// ++ or --, and a read that only feeds a write of the same field, inside
// the value stored into it (s.f += o.f) or in the condition of an if
// statement whose body is that one write (if x.f < v { x.f = v }). It
// adds to stored the fields p stores into (see TestNoTestOnlyExports).
func fieldWrites(p *checkedPackage, stored map[types.Object]bool) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	// store marks the fields a store into e, or its address, reaches:
	// the field it selects and, while that selection or index is of a
	// struct or array value, the fields holding the value. A store
	// through a pointer, slice or map reads the field that holds the
	// reference. With write set, the selections are not reads either.
	store := func(e ast.Expr, write bool) map[types.Object]bool {
		fields := make(map[types.Object]bool)
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				f := fieldOf(p, x.Sel)
				if f == nil {
					return fields
				}
				if write {
					writes[x.Sel] = true
				}
				fields[f] = true
				stored[f] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			default:
				return fields
			}
			switch p.info.TypeOf(e).Underlying().(type) {
			case *types.Struct, *types.Array:
			default:
				return fields
			}
		}
	}
	// feeds marks the reads of fields inside e as writes.
	feeds := func(e ast.Node, fields map[types.Object]bool) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && fields[fieldOf(p, id)] {
				writes[id] = true
			}
			return true
		})
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					fields := store(lhs, true)
					if len(n.Lhs) == len(n.Rhs) {
						feeds(n.Rhs[i], fields)
					}
				}
			case *ast.IncDecStmt:
				store(n.X, true)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if f := fieldOf(p, id); f != nil {
						writes[id] = true
						stored[f] = true
						feeds(n.Value, map[types.Object]bool{f: true})
					}
				}
			case *ast.CompositeLit:
				st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						stored[origin(st.Field(i))] = true
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					store(n.X, false)
				}
			case *ast.SliceExpr:
				if _, ok := p.info.TypeOf(n.X).Underlying().(*types.Array); ok {
					store(n.X, false)
				}
			case *ast.SelectorExpr:
				// A pointer method of a value takes its address.
				fn, ok := p.info.Uses[n.Sel].(*types.Func)
				if !ok {
					break
				}
				recv := fn.Type().(*types.Signature).Recv()
				if recv == nil {
					break
				}
				_, ptrRecv := recv.Type().(*types.Pointer)
				_, ptrX := p.info.TypeOf(n.X).Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					store(n.X, false)
				}
			case *ast.IfStmt:
				if n.Else != nil || len(n.Body.List) != 1 {
					break
				}
				if a, ok := n.Body.List[0].(*ast.AssignStmt); ok && len(a.Lhs) == 1 {
					feeds(n.Cond, store(a.Lhs[0], true))
				}
			}
			return true
		})
	}
	return writes
}

// markWholeReads marks as read every field of a struct that non-test
// code reads whole: a map key, an operand of == or !=, or an argument of
// a fmt function, which prints the fields of the structs, arrays, slices
// and maps inside it, and of the struct a pointer argument points to.
func markWholeReads(p *checkedPackage, used map[types.Object]bool) {
	type visit struct {
		t       types.Type
		printed bool
	}
	seen := make(map[visit]bool)
	var read func(t types.Type, printed bool)
	read = func(t types.Type, printed bool) {
		if seen[visit{t, printed}] {
			return
		}
		seen[visit{t, printed}] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				used[origin(u.Field(i))] = true
				read(u.Field(i).Type(), printed)
			}
		case *types.Array:
			read(u.Elem(), printed)
		case *types.Slice:
			if printed {
				read(u.Elem(), printed)
			}
		case *types.Map:
			if printed {
				read(u.Key(), printed)
				read(u.Elem(), printed)
			}
		}
	}
	for _, tv := range p.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			read(m.Key(), false)
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					read(p.info.TypeOf(n.X), false)
					read(p.info.TypeOf(n.Y), false)
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					break
				}
				if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					for _, arg := range n.Args {
						t := p.info.TypeOf(arg)
						if ptr, ok := t.Underlying().(*types.Pointer); ok {
							t = ptr.Elem()
						}
						read(t, true)
					}
				}
			}
			return true
		})
	}
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
