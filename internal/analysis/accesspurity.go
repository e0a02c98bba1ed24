package analysis

// accesspurity is the first client of the effect engine (effects.go):
// it checks that every operation registered read-only actually is.
//
// The coordinator (kernel/object.go) fans AccessRead invocations out to
// a per-object reader pool under a shared RWMutex purely on the type
// manager's declaration, and replica serving runs the same operations
// on checkpoint shadows and frozen replicas on other nodes. Both trust
// the declaration completely: a handler registered AccessRead that
// mutates its representation races every concurrent reader and serves
// torn state across the mesh. This analyzer makes the declaration a
// checked property instead of a promise.
//
// Call.Data is reached through the Call, so a read handler that keeps
// it leaks it too: every call served for another node borrows its
// request until the reply is sent, and a handler keeps nothing of Data.
// Running every operation (internal/conform's Reads and Writes) catches
// a kept request read back; this catches one a read keeps where nothing
// reads it. A write's handler is not analyzed here, as this analyzer
// proves read-only declarations; Writes runs every write.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// AccessPurity proves read-only operation declarations against handler
// bodies.
var AccessPurity = &Analyzer{
	Name: "accesspurity",
	Doc:  "a handler registered Access: AccessRead must not mutate or leak the object representation or its request",
	Run:  runAccessPurity,
}

// accessReadVal is kernel.AccessRead's value. The analyzer reads the
// registration's constant value rather than the identifier so
// eden-facade re-exports and local aliases all resolve.
const accessReadVal = 1

func runAccessPurity(pass *Pass) {
	eng := newEffectEngine(pass)
	// Named functions used as handlers for several operations would
	// otherwise be reported once per registration.
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[lit]
			if !ok || !isNamedPtr(tv.Type, "internal/kernel", "Operation") {
				return true
			}
			checkOperation(pass, eng, lit, reported)
			return true
		})
	}
}

// checkOperation examines one kernel.Operation composite literal.
func checkOperation(pass *Pass, eng *effectEngine, lit *ast.CompositeLit, reported map[token.Pos]bool) {
	opName := "?"
	access := -1 // unset
	var handler ast.Expr

	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue // positional Operation literals do not occur; fail open
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Name":
			if v := constValue(pass.Info, kv.Value); v != nil && v.Kind() == constant.String {
				opName = constant.StringVal(v)
			}
		case "Access":
			if v := constValue(pass.Info, kv.Value); v != nil && v.Kind() == constant.Int {
				if n, exact := constant.Int64Val(v); exact {
					access = int(n)
				}
			}
		case "Handler":
			handler = kv.Value
		}
	}

	if access != accessReadVal {
		return // shared or write: the coordinator serializes appropriately
	}
	if handler == nil {
		return
	}
	for _, ev := range handlerEffects(pass, eng, handler) {
		if reported[ev.Pos] || ev.Root != 0 {
			continue
		}
		reported[ev.Pos] = true
		switch ev.Kind {
		case effectMutate:
			pass.Reportf(ev.Pos,
				"read-only operation %q %s; the reader pool runs this handler concurrently with other readers — declare AccessWrite or drop the write",
				opName, ev.What)
		case effectEscape:
			pass.Reportf(ev.Pos,
				"read-only operation %q %s; the reference outlives the read lock (and a read served for another node borrows its request only until the reply is sent)",
				opName, ev.What)
		}
	}
}

// handlerEffects analyzes an operation handler expression — a function
// literal or a reference to a package-local function — and returns the
// mutation/escape events; those reachable from its *kernel.Call
// parameter are root 0.
func handlerEffects(pass *Pass, eng *effectEngine, handler ast.Expr) []effectEvent {
	handler = ast.Unparen(handler)
	// Strip a Handler(...) or kernel.Handler(...) conversion.
	if call, ok := handler.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			handler = ast.Unparen(call.Args[0])
		}
	}
	switch h := handler.(type) {
	case *ast.FuncLit:
		return eng.literalEffects(h) // the handler's single parameter is the Call
	case *ast.Ident, *ast.SelectorExpr:
		sum := eng.summarize(identFunc(pass.Info, h))
		if sum == nil {
			return nil // foreign handler: beyond one package's proof
		}
		return sum.effects
	}
	return nil
}

// constValue returns the expression's constant value, or nil.
func constValue(info *types.Info, e ast.Expr) constant.Value {
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	return tv.Value
}
