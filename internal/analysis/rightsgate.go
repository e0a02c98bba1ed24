package analysis

import (
	"go/ast"
	"go/types"
)

// RightsGate enforces the coordinator discipline: the kernel code
// responsible for "reception of invocation requests, verification of
// rights, and dispatching of processes to invocations" must verify
// rights before it dispatches. Concretely: inside the kernel package,
// any function that hands an invocation to a handler — calling a value
// of the Handler type, or queueing a call at an object's scheduler
// (Object.arrive, the one enqueue site) — must first reach a rights
// check on the way there: a call into the rights machinery
// (rights.Set/Capability Has/HasAny or any internal/rights function),
// or a use of the ErrRights/StatusRights outcome.
//
// The check is per-function and source-ordered: a rights check that
// lives only in a caller does not discharge the dispatching function,
// which must either check locally or carry an //edenvet:ignore
// explaining which caller checks.
var RightsGate = &Analyzer{
	Name: "rightsgate",
	Doc:  "kernel functions that dispatch an invocation to a handler must reach a rights check first",
	Run:  runRightsGate,
}

func runRightsGate(pass *Pass) {
	if !pathHasSuffix(pass.PkgPath, "internal/kernel") && pass.Pkg.Name() != "kernel" {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRightsGateFunc(pass, fd)
		}
	}
}

func checkRightsGateFunc(pass *Pass, fd *ast.FuncDecl) {
	type dispatch struct {
		pos  ast.Node
		what string
	}
	var dispatches []dispatch
	var checks []ast.Node // every piece of rights evidence, in walk order

	iife := immediatelyInvoked(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			// A literal is its own scope; its body is dispatched (and
			// checked) on its own schedule — unless it is invoked right
			// here, in which case its body is this function's body.
			return iife[nn]
		case *ast.CallExpr:
			if isHandlerCall(pass.Info, nn) {
				dispatches = append(dispatches, dispatch{nn, "calls an operation handler"})
			}
			if isArriveCall(pass.Info, nn) {
				dispatches = append(dispatches, dispatch{nn, "queues a call at the object's scheduler"})
			}
			if isRightsCheck(pass.Info, nn) {
				checks = append(checks, nn)
			}
		case *ast.Ident:
			if nn.Name == "ErrRights" || nn.Name == "StatusRights" {
				checks = append(checks, nn)
			}
		}
		return true
	})

	for _, d := range dispatches {
		covered := false
		for _, c := range checks {
			if c.Pos() < d.pos.Pos() {
				covered = true
				break
			}
		}
		if !covered {
			pass.Reportf(d.pos.Pos(),
				"%s %q %s without a preceding rights check; verify capability rights (or produce ErrRights) before dispatching",
				funcKind(fd), fd.Name.Name, d.what)
		}
	}
}

// immediatelyInvoked collects the function literals that are called on
// the spot (`func() { ... }()`): their bodies execute synchronously as
// part of the enclosing function.
func immediatelyInvoked(body ast.Node) map[*ast.FuncLit]bool {
	iife := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				iife[lit] = true
			}
		}
		return true
	})
	return iife
}

// isHandlerCall reports whether the call invokes a value whose type is
// the kernel's Handler function type.
func isHandlerCall(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	if namedTypeName(tv.Type) != "Handler" {
		return false
	}
	_, isSig := types.Unalias(tv.Type).Underlying().(*types.Signature)
	return isSig
}

// isArriveCall reports whether the call queues an invocation at an
// object's scheduler: the arrive method of Object.
func isArriveCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "arrive" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && namedTypeName(tv.Type) == "Object"
}

// isRightsCheck reports whether the call is rights-verification
// evidence: Has/HasAny on a rights set or capability, or any call into
// the rights package.
func isRightsCheck(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Has", "HasAny":
		if tv, ok := info.Types[sel.X]; ok {
			switch namedTypeName(tv.Type) {
			case "Set", "Capability":
				return true
			}
		}
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Name() == "rights" {
			return true
		}
	}
	return false
}
