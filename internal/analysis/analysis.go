// Package analysis is edenvet's analyzer framework: a minimal,
// dependency-free substitute for golang.org/x/tools/go/analysis.
//
// The suite enforces the Eden paper's discipline invariants — the rules
// that are conventions in the prose but must be machine-checked in a
// growing codebase: capabilities are the only sanctioned object
// reference (capleak), the target's side checks rights before any
// handler runs (rightsgate), kernel mutexes are never held across
// blocking operations (lockhold), errors crossing the kernel boundary
// wrap the sentinel taxonomy (sentinelwrap), every invocation carries
// a bounded timeout (timeoutprop), and every deadline-bearing kernel
// or transport entry point records a latency sample (telemetrytag).
//
// On top of those six syntactic checks sits a shared intraprocedural
// effect engine (effects.go): assignment, &-escape and mutating-method
// tracking over go/types, with a package-local call graph for one
// level of interprocedural summary. Three mutation-aware analyzers are
// built on it: operations declared read-only must actually be pure in
// their representation (accesspurity), store mutations in lifecycle
// call trees must be bracketed by killpoint crossings so the crash
// harness can schedule kills around them (killpointcover), and a field
// accessed through sync/atomic must never also be touched by plain
// load/store (atomicmix). A tenth, returngives, holds handlers to the
// reply-ownership rule: a slice given to Call.Return is the reply, so it
// is not written afterwards and is never package-level state.
//
// Everything here is built on go/ast, go/parser, go/token and go/types
// only, so the suite builds in an offline environment with a bare
// toolchain.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //edenvet:ignore suppressions.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// All returns the full edenvet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CapLeak,
		RightsGate,
		LockHold,
		SentinelWrap,
		TimeoutProp,
		TelemetryTag,
		AccessPurity,
		KillpointCover,
		AtomicMix,
		ReturnGives,
	}
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// PkgPath is the package's import path ("eden/internal/kernel").
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	diags *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the driver's canonical file:line: analyzer: message
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Run applies each analyzer to the package and returns the combined
// diagnostics sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ---- shared type helpers ----

// pathHasSuffix reports whether an import path is exactly suffix or
// ends with "/"+suffix, so "eden/internal/edenid" matches "edenid" and
// "internal/edenid" but "myedenid" does not.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// namedFromPkg reports whether t is (or contains, through composite
// type structure) a named type declared in a package whose import path
// ends in pkgSuffix. It does not descend into other packages' named
// types: a locator-defined struct that embeds an ID is the locator's
// own finding, in its own package.
func namedFromPkg(t types.Type, pkgSuffix string, depth int) (types.Type, bool) {
	if t == nil || depth > 12 {
		return nil, false
	}
	switch tt := t.(type) {
	case *types.Named:
		if obj := tt.Obj(); obj != nil && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), pkgSuffix) {
			return tt, true
		}
		return nil, false
	case *types.Alias:
		return namedFromPkg(types.Unalias(tt), pkgSuffix, depth+1)
	case *types.Pointer:
		return namedFromPkg(tt.Elem(), pkgSuffix, depth+1)
	case *types.Slice:
		return namedFromPkg(tt.Elem(), pkgSuffix, depth+1)
	case *types.Array:
		return namedFromPkg(tt.Elem(), pkgSuffix, depth+1)
	case *types.Map:
		if hit, ok := namedFromPkg(tt.Key(), pkgSuffix, depth+1); ok {
			return hit, true
		}
		return namedFromPkg(tt.Elem(), pkgSuffix, depth+1)
	case *types.Chan:
		return namedFromPkg(tt.Elem(), pkgSuffix, depth+1)
	case *types.Signature:
		for i := 0; i < tt.Params().Len(); i++ {
			if hit, ok := namedFromPkg(tt.Params().At(i).Type(), pkgSuffix, depth+1); ok {
				return hit, true
			}
		}
		for i := 0; i < tt.Results().Len(); i++ {
			if hit, ok := namedFromPkg(tt.Results().At(i).Type(), pkgSuffix, depth+1); ok {
				return hit, true
			}
		}
		return nil, false
	}
	return nil, false
}

// namedTypeName returns the bare name of t's core named type ("ID",
// "Set"), or "" if t is not a named type (after stripping pointers and
// aliases).
func namedTypeName(t types.Type) string {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// typeString renders t compactly for messages.
func typeString(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// recvTypeName returns the receiver's named type for a method call
// selector like x.Read(...), or "" when fun is not a method selector.
func recvTypeName(info *types.Info, fun ast.Expr) string {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	return typeString(tv.Type)
}

// isPkgFunc reports whether the call's callee is the function pkgName.funcName
// from a package whose path ends in pkgSuffix (e.g. time.Sleep).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgSuffix, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pathHasSuffix(pn.Imported().Path(), pkgSuffix)
}
