package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CapLeak enforces the paper's naming discipline where it matters:
// "Eden objects refer to one another by means of capabilities, which
// contain both unique names and access rights." A raw edenid unique
// name is only a name — returning one, logging one, or carrying one in
// a diagnostics field grants nothing. Authority is conferred where a
// name is turned into something that can act on an object: an exported
// function or method, or an exported interface's method, that takes a
// raw name and hands back an object handle (a capability, or a pointer
// to a named type with methods, such as *kernel.Object). That is the
// boundary capleak judges: such an entry point lets anyone holding a
// name reach the object with no record of what they may do to it.
//
// The packages below the capability layer traffic in names by design
// and are exempt: edenid and capability themselves, the store (records
// keyed by name), msg (wire frames) and the locator (location is about
// names, not rights).
var CapLeak = &Analyzer{
	Name: "capleak",
	Doc:  "an exported function that turns a raw edenid name into an object handle bypasses capabilities, the only sanctioned source of authority",
	Run:  runCapLeak,
}

// capLeakExempt are the packages below the capability layer.
var capLeakExempt = []string{"internal/edenid", "internal/capability", "internal/store", "internal/msg", "internal/locator"}

func runCapLeak(pass *Pass) {
	for _, p := range capLeakExempt {
		if pathHasSuffix(pass.PkgPath, p) {
			return
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d.Recv) {
					continue
				}
				if fn, ok := pass.Info.Defs[d.Name].(*types.Func); ok {
					checkNameToHandle(pass, d.Name.Pos(), d.Name.Name, fn.Type().(*types.Signature))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || ts.Assign.IsValid() {
						continue
					}
					iface, ok := pass.Info.Defs[ts.Name].Type().Underlying().(*types.Interface)
					if !ok {
						continue
					}
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						if m := iface.ExplicitMethod(i); m.Exported() {
							checkNameToHandle(pass, m.Pos(), ts.Name.Name+"."+m.Name(), m.Type().(*types.Signature))
						}
					}
				}
			}
		}
	}
}

// checkNameToHandle reports sig if it takes a raw name and returns an
// object handle.
func checkNameToHandle(pass *Pass, pos token.Pos, name string, sig *types.Signature) {
	var id types.Type
	for i := 0; i < sig.Params().Len() && id == nil; i++ {
		id, _ = namedFromPkg(sig.Params().At(i).Type(), "internal/edenid", 0)
	}
	if id == nil {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if r := sig.Results().At(i).Type(); isObjectHandle(r) {
			pass.Reportf(pos,
				"exported %s turns raw object name %s into %s; take a capability, so the rights travel with the name",
				name, typeString(id), typeString(r))
			return
		}
	}
}

// isObjectHandle reports whether t can act on an object: a capability
// (or a composite of them), or a pointer to a named type with methods.
func isObjectHandle(t types.Type) bool {
	if _, ok := namedFromPkg(t, "internal/capability", 0); ok {
		return true
	}
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	_, named := types.Unalias(p.Elem()).(*types.Named)
	return named && types.NewMethodSet(p).Len() > 0
}

// exportedRecv reports whether a method's receiver type is exported (a
// plain function has none and counts as exported): methods of an
// unexported type are not reachable API.
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}
