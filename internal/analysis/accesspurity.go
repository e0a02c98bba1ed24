package analysis

// accesspurity is the first client of the effect engine (effects.go):
// it checks that every operation registered read-only actually is.
//
// The reader pool (kernel/readers.go) fans AccessRead invocations out
// under a shared RWMutex purely on the type manager's declaration, and
// the replica-read roadmap item would additionally serve ReadOnly
// operations from frozen replicas on other nodes. Both trust the
// declaration completely: a handler registered AccessRead that mutates
// its representation races every concurrent reader today and serves
// torn state across the mesh tomorrow. This analyzer makes the
// declaration a checked property instead of a promise.

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
	Doc:  "a handler registered Access: AccessRead or ReadOnly: true must not mutate or leak the object representation",
	Run:  runAccessPurity,
}

// Access class constant values, mirrored from kernel.Access. The
// analyzer reads the registration's constant value rather than the
// identifier so eden-facade re-exports and local aliases all resolve.
const (
	accessSharedVal = 0
	accessReadVal   = 1
	accessWriteVal  = 2
)

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
	readOnly := false
	var accessExpr, handler ast.Expr

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
			accessExpr = kv.Value
			if v := constValue(pass.Info, kv.Value); v != nil && v.Kind() == constant.Int {
				if n, exact := constant.Int64Val(v); exact {
					access = int(n)
				}
			}
		case "ReadOnly":
			if v := constValue(pass.Info, kv.Value); v != nil && v.Kind() == constant.Bool {
				readOnly = constant.BoolVal(v)
			}
		case "Handler":
			handler = kv.Value
		}
	}

	// The static mirror of TypeManager.Op's runtime panic (and of
	// Registry.Register's validation for hand-built Operations maps).
	if readOnly && access == accessWriteVal {
		pass.Reportf(accessExpr.Pos(),
			"operation %q declares ReadOnly: true but Access: AccessWrite; a read-only writer is a contradiction", opName)
		return
	}
	if access != accessReadVal && !readOnly {
		return // shared or write: the coordinator serializes appropriately
	}
	if handler == nil {
		return
	}
	for _, ev := range handlerEffects(pass, eng, handler) {
		if reported[ev.Pos] {
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
				"read-only operation %q %s; the reference outlives the read lock and can be mutated unsynchronized",
				opName, ev.What)
		}
	}
}

// handlerEffects analyzes an operation handler expression — a function
// literal or a reference to a package-local function — and returns the
// mutation/escape events reachable from its *kernel.Call parameter.
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
		var events []effectEvent
		tr := &tracker{
			eng:   eng,
			roots: make(map[types.Object]int),
			body:  h.Body,
			sink:  func(ev effectEvent) { events = append(events, ev) },
		}
		tr.bindParams(h.Type, 0) // the handler's single parameter is the Call
		tr.walkBody(h.Body)
		return events
	case *ast.Ident, *ast.SelectorExpr:
		fn := identFunc(pass.Info, h)
		sum := eng.summarize(fn)
		if sum == nil {
			return nil // foreign handler: beyond one package's proof
		}
		var events []effectEvent
		for _, ev := range sum.effects {
			if ev.Root == 0 { // effects reachable from the Call parameter
				events = append(events, ev)
			}
		}
		return events
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
