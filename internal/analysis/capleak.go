package analysis

import (
	"go/ast"
	"go/types"
)

// CapLeak enforces the paper's naming discipline: "Eden objects refer
// to one another by means of capabilities, which contain both unique
// names and access rights." A raw edenid unique name in an exported
// signature or exported struct field is a reference that bypasses the
// rights machinery — anyone holding the ID can address the object with
// no record of what they may do to it. Only internal/edenid itself and
// internal/capability (which seals IDs behind rights) may traffic in
// bare IDs; every other package must expose capabilities.
var CapLeak = &Analyzer{
	Name: "capleak",
	Doc:  "exported API must not leak raw edenid unique names; capabilities are the only sanctioned object reference",
	Run:  runCapLeak,
}

func runCapLeak(pass *Pass) {
	if pathHasSuffix(pass.PkgPath, "internal/edenid") || pathHasSuffix(pass.PkgPath, "internal/capability") {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkCapLeakFunc(pass, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					checkCapLeakType(pass, ts)
				}
			}
		}
	}
}

// checkCapLeakFunc flags exported functions and methods whose
// signature mentions an edenid type. Methods on unexported receivers
// are skipped: they are not reachable API. So are methods judged at an
// interface they implement (judgedAtInterface).
func checkCapLeakFunc(pass *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	if d.Recv != nil {
		if base := receiverBaseName(d.Recv); base != "" && !ast.IsExported(base) {
			return
		}
	}
	obj, ok := pass.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return
	}
	if hit, leaked := namedFromPkg(obj.Type(), "internal/edenid", 0); leaked && !judgedAtInterface(pass, obj) {
		pass.Reportf(d.Name.Pos(),
			"exported %s %q leaks raw object name %s in its signature; accept or return a capability instead",
			funcKind(d), d.Name.Name, typeString(hit))
	}
}

// checkCapLeakType flags exported struct fields, interface methods,
// aliases and named types whose exported surface mentions an edenid
// type.
func checkCapLeakType(pass *Pass, ts *ast.TypeSpec) {
	obj, ok := pass.Info.Defs[ts.Name]
	if !ok {
		return
	}
	t := obj.Type()
	if ts.Assign.IsValid() { // type alias
		if hit, leaked := namedFromPkg(t, "internal/edenid", 0); leaked {
			pass.Reportf(ts.Name.Pos(),
				"exported alias %q re-exports raw object name %s; alias the capability type instead",
				ts.Name.Name, typeString(hit))
		}
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			if !fld.Exported() {
				continue
			}
			if hit, leaked := namedFromPkg(fld.Type(), "internal/edenid", 0); leaked {
				pass.Reportf(fld.Pos(),
					"exported field %s.%s leaks raw object name %s; store a capability instead",
					ts.Name.Name, fld.Name(), typeString(hit))
			}
		}
	case *types.Interface:
		for i := 0; i < u.NumExplicitMethods(); i++ {
			m := u.ExplicitMethod(i)
			if !m.Exported() {
				continue
			}
			if hit, leaked := namedFromPkg(m.Type(), "internal/edenid", 0); leaked {
				pass.Reportf(m.Pos(),
					"exported interface method %s.%s leaks raw object name %s; accept or return a capability instead",
					ts.Name.Name, m.Name(), typeString(hit))
			}
		}
	case *types.Signature:
		if hit, leaked := namedFromPkg(u, "internal/edenid", 0); leaked {
			pass.Reportf(ts.Name.Pos(),
				"exported function type %q leaks raw object name %s in its signature; use a capability instead",
				ts.Name.Name, typeString(hit))
		}
	}
}

// judgedAtInterface reports whether method fn has the name and an
// identical signature of an explicit method of an exported interface
// that its receiver type implements, declared in this package or one it
// imports (the two exempt packages aside). Such a method is judged once,
// at the interface, where capleak reports it: a suppression there covers
// every implementation, and a finding there is not repeated at each.
func judgedAtInterface(pass *Pass, fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if _, isPtr := recv.(*types.Pointer); !isPtr {
		recv = types.NewPointer(recv) // *T's method set holds T's
	}
	for _, pkg := range append([]*types.Package{pass.Pkg}, pass.Pkg.Imports()...) {
		if pathHasSuffix(pkg.Path(), "internal/edenid") || pathHasSuffix(pkg.Path(), "internal/capability") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || !types.Implements(recv, iface) {
				continue
			}
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				if m := iface.ExplicitMethod(i); m.Name() == fn.Name() && types.Identical(m.Type(), sig) {
					return true
				}
			}
		}
	}
	return false
}

func receiverBaseName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}
