package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// TimeoutProp enforces the invocation time-limit discipline: "the
// invocation request may also contain a user-supplied timeout" — and in
// a system that forwards, retries and recovers, every invocation must
// carry a bounded one. A call site that passes nil options (or an
// options literal with no Timeout, or Timeout: 0) silently falls back
// to whatever the node default happens to be, which makes the wait
// budget invisible at the place that incurs it. Call sites must either
// state a bounded timeout or visibly propagate one supplied by their
// caller (passing an options variable through counts as propagation).
var TimeoutProp = &Analyzer{
	Name: "timeoutprop",
	Doc:  "invocation call sites must pass a bounded timeout or propagate a caller-supplied one",
	Run:  runTimeoutProp,
}

func runTimeoutProp(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkTimeoutCall(pass, call)
			return true
		})
	}
}

func checkTimeoutCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// InvokeAsync is an invocation site like Invoke: its deadline is
	// fixed at submission and bounds the wait in the target's queues
	// too, so an unbounded one is just as invisible.
	switch sel.Sel.Name {
	case "Invoke", "InvokeAsync":
	default:
		return
	}
	// The callee's final parameter must be *...InvokeOptions — that is
	// what distinguishes a kernel invocation from any other Invoke.
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := types.Unalias(tv.Type).(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	last := sig.Params().At(sig.Params().Len() - 1).Type()
	if !strings.HasSuffix(namedTypeName(last), "InvokeOptions") {
		return
	}
	if len(call.Args) != sig.Params().Len() {
		return
	}
	opts := call.Args[len(call.Args)-1]

	switch arg := opts.(type) {
	case *ast.Ident:
		if arg.Name == "nil" && pass.Info.Types[arg].IsNil() {
			pass.Reportf(call.Pos(),
				"invocation passes nil options: the wait budget is invisible here; pass InvokeOptions{Timeout: ...} or propagate the caller's options")
		}
		// Any other identifier is propagation of a caller-supplied
		// options value.
	case *ast.UnaryExpr:
		if lit, ok := arg.X.(*ast.CompositeLit); ok {
			checkTimeoutLit(pass, call, lit)
		}
	case *ast.CompositeLit:
		checkTimeoutLit(pass, call, arg)
	}
}

// checkTimeoutLit inspects an InvokeOptions literal at the call site:
// it must set Timeout to something not constant-zero.
func checkTimeoutLit(pass *Pass, call *ast.CallExpr, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Timeout" {
			continue
		}
		// Timeout present: flag only a known-zero constant.
		if tv, ok := pass.Info.Types[kv.Value]; ok && tv.Value != nil {
			if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
				pass.Reportf(call.Pos(),
					"invocation hardcodes Timeout: 0 (wait forever / node default); pass a bounded timeout")
			}
		}
		return
	}
	pass.Reportf(call.Pos(),
		"invocation options omit Timeout: the wait budget is invisible here; set a bounded Timeout")
}
