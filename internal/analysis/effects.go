package analysis

// This file is the suite's shared effect engine: a small
// intraprocedural mutation/escape analysis over go/types, with a
// package-local call graph that gives analyzers one level (in practice
// a depth-capped chain) of interprocedural summary.
//
// The engine answers one domain-specific question precisely rather
// than the general aliasing problem: may this code mutate, or leak a
// live reference to, state reachable from an Eden object's
// representation? Three effect sources are tracked, mirroring the ways
// a handler can break a read-only declaration:
//
//   - assignments that write through a tracked value (field stores,
//     element stores, *p = x, x.f++),
//   - escapes: a tracked reference (the representation pointer, or an
//     &-of-path rooted in it) stored somewhere that outlives the
//     tracked scope — a captured variable, a channel, a goroutine,
//   - calls to methods summarized as mutating, either by a
//     package-local summary (computed recursively, depth-capped) or by
//     the built-in effect tables for the kernel's own API
//     (segment.Representation, kernel.Object, kernel.Call).
//
// Everything is intraprocedural plus summaries: no SSA, no
// path-sensitivity. Like lockhold, the engine prefers a small number
// of explainable false positives (silenced with a reasoned
// //edenvet:ignore) over unsound silence.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// maxSummaryDepth bounds recursive summarization through the
// package-local call graph. One level is the documented contract;
// deeper chains are best-effort.
const maxSummaryDepth = 4

// effectKind classifies one effect event.
type effectKind uint8

const (
	// effectMutate: a write through the tracked value.
	effectMutate effectKind = iota
	// effectEscape: the tracked reference leaked to a location that
	// outlives the analyzed scope.
	effectEscape
)

// effectEvent is one mutation or escape attributed to a tracked root.
type effectEvent struct {
	Root int // index of the seeded root the event is reachable from
	Kind effectKind
	Pos  token.Pos
	What string // human-readable description, e.g. `call to (*segment.Representation).SetData`
}

// funcSummary records a package-local function's effects on values
// reachable from its receiver and parameters.
type funcSummary struct {
	// effects are the function's mutation/escape events, attributed to
	// parameter indices (receiver first when present).
	effects []effectEvent
	// returns[i] reports that some result may alias parameter i, so
	// callers must keep tracking the result.
	returns map[int]bool
}

// paramEffect returns the first event of the given kind attributed to
// param index i, or nil.
func (s *funcSummary) paramEffect(i int, kind effectKind) *effectEvent {
	if s == nil {
		return nil
	}
	for j := range s.effects {
		if s.effects[j].Root == i && s.effects[j].Kind == kind {
			return &s.effects[j]
		}
	}
	return nil
}

// effectEngine computes and memoizes function summaries for one
// package.
type effectEngine struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*funcSummary
	busy  map[*types.Func]bool // recursion guard
}

func newEffectEngine(pass *Pass) *effectEngine {
	e := &effectEngine{
		pass:  pass,
		decls: make(map[*types.Func]*ast.FuncDecl),
		sums:  make(map[*types.Func]*funcSummary),
		busy:  make(map[*types.Func]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				e.decls[fn] = fd
			}
		}
	}
	return e
}

// declOf returns the package-local declaration of fn, or nil for
// foreign (or bodyless) functions.
func (e *effectEngine) declOf(fn *types.Func) *ast.FuncDecl {
	if fn == nil {
		return nil
	}
	return e.decls[fn]
}

// staticCallee resolves a call expression to the invoked *types.Func,
// for direct calls and method calls (including interface methods,
// which resolve to the interface's declared method). Calls through
// function values resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.F(...).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// summarize computes (memoized) the effect summary of a package-local
// function. Foreign functions, bodyless declarations and recursion
// cycles summarize to nil, which callers treat as effect-free — the
// built-in tables cover the foreign API the suite cares about.
func (e *effectEngine) summarize(fn *types.Func) *funcSummary {
	if fn == nil {
		return nil
	}
	if s, ok := e.sums[fn]; ok {
		return s
	}
	fd := e.declOf(fn)
	if fd == nil || e.busy[fn] || len(e.busy) >= maxSummaryDepth {
		return nil
	}
	e.busy[fn] = true
	defer delete(e.busy, fn)

	sum := &funcSummary{returns: make(map[int]bool)}
	tr := &tracker{
		eng:   e,
		roots: make(map[types.Object]int),
		body:  fd.Body,
		sink: func(ev effectEvent) {
			sum.effects = append(sum.effects, ev)
		},
		returned: func(root int) { sum.returns[root] = true },
	}
	idx := 0
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := e.pass.Info.Defs[name]; obj != nil && trackableType(obj.Type()) {
					tr.roots[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := e.pass.Info.Defs[name]; obj != nil && trackableType(obj.Type()) {
					tr.roots[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	if len(tr.roots) > 0 {
		tr.walkBody(fd.Body)
	}
	e.sums[fn] = sum
	return sum
}

// trackableType reports whether a parameter of this type can lead to
// an object representation: the kernel's Call and Object handles, the
// representation itself, and pointers/interfaces wrapping them.
func trackableType(t types.Type) bool {
	return isNamedPtr(t, "internal/kernel", "Call") ||
		isNamedPtr(t, "internal/kernel", "Object") ||
		isNamedPtr(t, "internal/segment", "Representation")
}

// isNamedPtr reports whether t is *pkg.Name or pkg.Name for a package
// whose import path ends in pkgSuffix.
func isNamedPtr(t types.Type, pkgSuffix, name string) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// ---- built-in effect tables for the kernel API ----
//
// The tables classify foreign methods the engine cannot summarize from
// source. They are the engine's trusted base: every method of the
// types a handler touches is either listed read-only here or treated
// as mutating, so a new mutating method added to the representation
// API fails closed.

// repPureMethods are segment.Representation methods that neither
// mutate the representation nor return a live internal reference
// (Data/Caps/Clone/Encode all copy; CopyData copies into the caller's
// buffer). MarkClean is left out on purpose: moving the clean mark
// changes what the next checkpoint ships, so it fails closed.
var repPureMethods = map[string]bool{
	"Data": true, "CopyData": true, "Caps": true, "Has": true, "Names": true,
	"NumSegments": true, "Size": true, "Capabilities": true,
	"Clone": true, "Equal": true, "Encode": true, "EncodePartial": true,
	"Dirty": true, "HasDirty": true, "Stamp": true,
}

// objectMethodEffect classifies kernel.Object methods as seen from a
// read-only handler. "pure" methods neither write the representation
// nor destroy the incarnation; the listed mutators either take the
// write lock (Update, Checkpoint) or tear down / repurpose the
// incarnation (Passivate, Crash, Destroy, Freeze, Move).
var objectPureMethods = map[string]bool{
	"ID": true, "TypeName": true, "Node": true, "Frozen": true,
	"IsReplica": true, "Version": true, "Epoch": true, "SelfCapability": true,
	"Describe": true, "Invoke": true, "Semaphore": true, "Port": true,
	"Checksite": true, "SetChecksite": true, "Replicate": true,
}

var objectMutatingMethods = map[string]bool{
	"Update": true, "Checkpoint": true, "Passivate": true,
	"Crash": true, "Destroy": true, "Freeze": true, "Move": true,
}

// callPureMethods are kernel.Call methods: they write the reply or
// reach the kernel, never the representation. Self propagates the
// taint (its result is the tracked object).
var callPureMethods = map[string]bool{
	"Return": true, "ReturnCaps": true, "Fail": true, "Kernel": true,
	"Subprocess": true, // the literal argument is analyzed inline
}

// ---- the tracker ----

// tracker walks one function body propagating taint from a seeded set
// of root objects and reporting mutation/escape events to its sink.
type tracker struct {
	eng   *effectEngine
	roots map[types.Object]int // ident object -> root index
	body  *ast.BlockStmt       // the analyzed scope, for locality tests
	sink  func(effectEvent)
	// returned, when non-nil, is told that a tracked root may flow to
	// the function's results.
	returned func(root int)
}

func (tr *tracker) info() *types.Info { return tr.eng.pass.Info }

// report emits one event.
func (tr *tracker) report(root int, kind effectKind, pos token.Pos, format string, args ...interface{}) {
	tr.sink(effectEvent{Root: root, Kind: kind, Pos: pos, What: fmt.Sprintf(format, args...)})
}

// rootOf resolves the tracked root an expression is reachable from,
// following parens, derefs, address-taking, selections, indexing,
// slicing, type assertions, and the propagation rules for calls
// (Call.Self, and package-local functions whose summary marks a
// result as aliasing a tracked argument).
func (tr *tracker) rootOf(e ast.Expr) (int, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := tr.info().Uses[x]; obj != nil {
			if idx, ok := tr.roots[obj]; ok {
				return idx, true
			}
		}
		if obj := tr.info().Defs[x]; obj != nil {
			if idx, ok := tr.roots[obj]; ok {
				return idx, true
			}
		}
		return 0, false
	case *ast.ParenExpr:
		return tr.rootOf(x.X)
	case *ast.StarExpr:
		return tr.rootOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return tr.rootOf(x.X)
		}
		return 0, false
	case *ast.SelectorExpr:
		return tr.rootOf(x.X)
	case *ast.IndexExpr:
		return tr.rootOf(x.X)
	case *ast.SliceExpr:
		return tr.rootOf(x.X)
	case *ast.TypeAssertExpr:
		return tr.rootOf(x.X)
	case *ast.CallExpr:
		return tr.callResultRoot(x)
	}
	return 0, false
}

// callResultRoot applies result-aliasing propagation: c.Self() is the
// tracked object; a package-local callee whose summary returns one of
// its parameters propagates the argument's root.
func (tr *tracker) callResultRoot(call *ast.CallExpr) (int, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if recvIsNamed(tr.info(), sel, "internal/kernel", "Call") && sel.Sel.Name == "Self" {
			return tr.rootOf(sel.X)
		}
	}
	fn := staticCallee(tr.info(), call)
	sum := tr.eng.summarize(fn)
	if sum == nil || len(sum.returns) == 0 {
		return 0, false
	}
	for argIdx, rootIdx := range tr.callArgRoots(fn, call) {
		if sum.returns[argIdx] && rootIdx >= 0 {
			return rootIdx, true
		}
	}
	return 0, false
}

// recvIsNamed reports whether the selector's receiver has the named
// type (possibly behind a pointer).
func recvIsNamed(info *types.Info, sel *ast.SelectorExpr, pkgSuffix, name string) bool {
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	return isNamedPtr(tv.Type, pkgSuffix, name)
}

// referenceLike reports whether values of t can carry a live alias:
// pointers, slices, maps, channels, functions and interfaces. Scalars,
// strings and plain structs/arrays of scalars copy.
func referenceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if referenceLike(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return referenceLike(u.Elem())
	}
	return false
}

// localTo reports whether the identifier's object is declared inside
// the analyzed scope (so storing into it cannot outlive the scope).
func (tr *tracker) localTo(obj types.Object) bool {
	if obj == nil {
		return false
	}
	return obj.Pos() >= tr.body.Pos() && obj.Pos() <= tr.body.End()
}

// pathBase peels a store destination down to its base identifier:
// x.f[i].g -> x. The second result is false for destinations with no
// identifier base (e.g. calls).
func pathBase(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// writesThrough reports whether assigning to lhs writes through a
// tracked value (rather than rebinding a variable): the destination
// must take at least one dereference/selection/indexing step from a
// tracked base.
func (tr *tracker) writesThrough(lhs ast.Expr) (int, bool) {
	switch lhs.(type) {
	case *ast.Ident:
		return 0, false // rebinding, handled by alias introduction
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr, *ast.ParenExpr:
		return tr.rootOf(lhs)
	}
	return 0, false
}

// walkBody drives the statement walk.
func (tr *tracker) walkBody(blk *ast.BlockStmt) {
	for _, s := range blk.List {
		tr.walkStmt(s)
	}
}

func (tr *tracker) walkStmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		tr.walkAssign(s)
	case *ast.IncDecStmt:
		if root, ok := tr.writesThrough(s.X); ok {
			tr.report(root, effectMutate, s.Pos(), "writes %s", renderExpr(s.X))
		}
		tr.walkExpr(s.X)
	case *ast.ExprStmt:
		tr.walkExpr(s.X)
	case *ast.SendStmt:
		tr.walkExpr(s.Chan)
		tr.walkExpr(s.Value)
		if root, ok := tr.rootOf(s.Value); ok && tr.exprRefLike(s.Value) {
			tr.report(root, effectEscape, s.Pos(), "sends %s on a channel", renderExpr(s.Value))
		}
	case *ast.GoStmt:
		tr.walkGoCall(s.Call)
	case *ast.DeferStmt:
		// Deferred calls run in this frame before it returns; analyze
		// them like ordinary calls.
		tr.walkExpr(s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			tr.walkExpr(r)
			if root, ok := tr.rootOf(r); ok && tr.exprRefLike(r) && tr.returned != nil {
				tr.returned(root)
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			tr.walkStmt(s.Init)
		}
		tr.walkExpr(s.Cond)
		tr.walkBody(s.Body)
		if s.Else != nil {
			tr.walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			tr.walkStmt(s.Init)
		}
		if s.Cond != nil {
			tr.walkExpr(s.Cond)
		}
		tr.walkBody(s.Body)
		if s.Post != nil {
			tr.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		tr.walkExpr(s.X)
		// Ranging over a tracked container binds tracked elements when
		// they are reference-like.
		if root, ok := tr.rootOf(s.X); ok {
			for _, v := range []ast.Expr{s.Key, s.Value} {
				if id, isIdent := v.(*ast.Ident); isIdent {
					if obj := tr.info().Defs[id]; obj != nil && referenceLike(obj.Type()) {
						tr.roots[obj] = root
					}
				}
			}
		}
		tr.walkBody(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			tr.walkStmt(s.Init)
		}
		if s.Tag != nil {
			tr.walkExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					tr.walkExpr(e)
				}
				for _, st := range cc.Body {
					tr.walkStmt(st)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			tr.walkStmt(s.Init)
		}
		tr.walkStmt(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					tr.walkStmt(st)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					tr.walkStmt(cc.Comm)
				}
				for _, st := range cc.Body {
					tr.walkStmt(st)
				}
			}
		}
	case *ast.BlockStmt:
		tr.walkBody(s)
	case *ast.LabeledStmt:
		tr.walkStmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, val := range vs.Values {
						tr.walkExpr(val)
						if i < len(vs.Names) {
							tr.bindAlias(vs.Names[i], val)
						}
					}
				}
			}
		}
	}
}

// walkAssign handles writes-through, alias introduction, and escapes.
func (tr *tracker) walkAssign(s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		tr.walkExpr(rhs)
	}
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0] // multi-value: x, err := f()
		}
		// Write through a tracked destination.
		if root, ok := tr.writesThrough(lhs); ok {
			tr.report(root, effectMutate, s.Pos(), "writes %s", renderExpr(lhs))
		}
		if rhs == nil {
			continue
		}
		rhsRoot, rhsTracked := tr.rootOf(rhs)
		if !rhsTracked && len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			// Multi-value call results: propagate only when the callee
			// summary says so; callResultRoot already handled index 0.
			continue
		}
		if !rhsTracked || !tr.exprRefLike(rhs) {
			if id, ok := lhs.(*ast.Ident); ok {
				tr.bindAlias(id, rhs)
			}
			continue
		}
		// Tracked reference on the right-hand side.
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			obj := tr.info().Defs[id]
			if obj == nil {
				obj = tr.info().Uses[id]
			}
			if tr.localTo(obj) {
				// Alias to a local: keep tracking, no escape.
				tr.roots[obj] = rhsRoot
				continue
			}
			tr.report(rhsRoot, effectEscape, s.Pos(),
				"stores %s in %q, which outlives the call", renderExpr(rhs), id.Name)
			continue
		}
		// Stored into a structured destination: an escape unless the
		// destination itself is rooted in a local.
		if base, ok := pathBase(lhs); ok {
			obj := tr.info().Uses[base]
			if obj == nil {
				obj = tr.info().Defs[base]
			}
			if _, destTracked := tr.rootOf(lhs); destTracked {
				continue // already reported as a write-through above
			}
			if tr.localTo(obj) {
				tr.roots[obj] = rhsRoot // conservatively taint the container
				continue
			}
			tr.report(rhsRoot, effectEscape, s.Pos(),
				"stores %s in %s, which outlives the call", renderExpr(rhs), renderExpr(lhs))
		}
	}
}

// bindAlias propagates taint through `x := y` when y is tracked and
// reference-like.
func (tr *tracker) bindAlias(id *ast.Ident, rhs ast.Expr) {
	if id.Name == "_" {
		return
	}
	root, ok := tr.rootOf(rhs)
	if !ok || !tr.exprRefLike(rhs) {
		return
	}
	obj := tr.info().Defs[id]
	if obj == nil {
		obj = tr.info().Uses[id]
	}
	if obj != nil {
		tr.roots[obj] = root
	}
}

// exprRefLike reports whether the expression's static type can carry
// an alias.
func (tr *tracker) exprRefLike(e ast.Expr) bool {
	tv, ok := tr.info().Types[e]
	if !ok {
		return false
	}
	return referenceLike(tv.Type)
}

// walkGoCall handles `go f(args)`: the spawned work runs concurrently
// with (and may outlive) the analyzed scope, so tracked references in
// the arguments or captured by a literal escape.
func (tr *tracker) walkGoCall(call *ast.CallExpr) {
	for _, arg := range call.Args {
		tr.walkExpr(arg)
		if root, ok := tr.rootOf(arg); ok && tr.exprRefLike(arg) {
			tr.report(root, effectEscape, arg.Pos(),
				"passes %s to a goroutine", renderExpr(arg))
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		tr.reportCapturedRoots(lit, "captured by a goroutine")
		return
	}
	tr.walkExpr(call.Fun)
}

// reportCapturedRoots reports an escape for every tracked root the
// literal's body references.
func (tr *tracker) reportCapturedRoots(lit *ast.FuncLit, how string) {
	seen := make(map[int]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := tr.info().Uses[id]
		if obj == nil {
			return true
		}
		if root, tracked := tr.roots[obj]; tracked && !seen[root] {
			seen[root] = true
			tr.report(root, effectEscape, id.Pos(), "%s %s", renderExpr(id), how)
		}
		return true
	})
}

// walkExpr analyzes one expression for calls, address-taking and
// nested literals.
func (tr *tracker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		tr.walkCall(x)
	case *ast.FuncLit:
		// A literal that is not a call argument we understand and not
		// immediately invoked may run later, concurrently, or never:
		// capturing a tracked root is an escape from the analyzed
		// scope's locking discipline.
		tr.reportCapturedRoots(x, "captured by a function literal that may outlive the call")
	case *ast.ParenExpr:
		tr.walkExpr(x.X)
	case *ast.UnaryExpr:
		tr.walkExpr(x.X)
	case *ast.BinaryExpr:
		tr.walkExpr(x.X)
		tr.walkExpr(x.Y)
	case *ast.StarExpr:
		tr.walkExpr(x.X)
	case *ast.SelectorExpr:
		tr.walkExpr(x.X)
	case *ast.IndexExpr:
		tr.walkExpr(x.X)
		tr.walkExpr(x.Index)
	case *ast.SliceExpr:
		tr.walkExpr(x.X)
		tr.walkExpr(x.Low)
		tr.walkExpr(x.High)
		tr.walkExpr(x.Max)
	case *ast.TypeAssertExpr:
		tr.walkExpr(x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				tr.walkExpr(kv.Value)
				tr.compositeEscape(kv.Value, x)
				continue
			}
			tr.walkExpr(elt)
			tr.compositeEscape(elt, x)
		}
	case *ast.KeyValueExpr:
		tr.walkExpr(x.Value)
	}
}

// compositeEscape: embedding a tracked reference in a composite
// literal hands it to whatever the literal becomes; treat as escape
// (the literal's fate is beyond intraprocedural reach).
func (tr *tracker) compositeEscape(elt ast.Expr, lit *ast.CompositeLit) {
	if root, ok := tr.rootOf(elt); ok && tr.exprRefLike(elt) {
		tr.report(root, effectEscape, elt.Pos(),
			"stores %s in a composite literal", renderExpr(elt))
	}
}

// walkCall classifies one call: kernel API methods by table,
// package-local callees by summary, builtins specially.
func (tr *tracker) walkCall(call *ast.CallExpr) {
	// Builtins with effect semantics.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && tr.info().Uses[id] == nil {
		switch id.Name {
		case "copy":
			if len(call.Args) == 2 {
				if root, ok := tr.rootOf(call.Args[0]); ok {
					tr.report(root, effectMutate, call.Pos(), "copies into %s", renderExpr(call.Args[0]))
				}
			}
		case "delete":
			if len(call.Args) >= 1 {
				if root, ok := tr.rootOf(call.Args[0]); ok {
					tr.report(root, effectMutate, call.Pos(), "deletes from %s", renderExpr(call.Args[0]))
				}
			}
		}
		for _, arg := range call.Args {
			tr.walkExpr(arg)
		}
		return
	}

	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tr.walkKernelMethod(call, sel) {
			return
		}
	}

	// Package-local callee: apply its summary to tracked arguments.
	fn := staticCallee(tr.info(), call)
	if fd := tr.eng.declOf(fn); fd != nil {
		sum := tr.eng.summarize(fn)
		for argIdx, rootIdx := range tr.callArgRoots(fn, call) {
			if rootIdx < 0 {
				continue
			}
			if ev := sum.paramEffect(argIdx, effectMutate); ev != nil {
				tr.report(rootIdx, effectMutate, call.Pos(),
					"calls %s, which %s (at %s)", fn.Name(), ev.What, tr.eng.pass.Fset.Position(ev.Pos))
			}
			if ev := sum.paramEffect(argIdx, effectEscape); ev != nil {
				tr.report(rootIdx, effectEscape, call.Pos(),
					"calls %s, which %s (at %s)", fn.Name(), ev.What, tr.eng.pass.Fset.Position(ev.Pos))
			}
		}
		for _, arg := range call.Args {
			tr.walkExpr(arg)
		}
		return
	}

	// Foreign call: arguments are analyzed but, with the kernel API
	// handled above, passing a tracked value to a read (fmt, strings,
	// binary decode) is the overwhelmingly common case — the engine
	// stays quiet rather than flag every formatted dump of state.
	for _, arg := range call.Args {
		tr.walkExpr(arg)
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		tr.walkExpr(fun.X)
	}
}

// walkKernelMethod handles method calls on tracked kernel API values;
// reports true when the call was fully classified.
func (tr *tracker) walkKernelMethod(call *ast.CallExpr, sel *ast.SelectorExpr) bool {
	root, tracked := tr.rootOf(sel.X)
	if !tracked {
		return false
	}
	name := sel.Sel.Name

	switch {
	case recvIsNamed(tr.info(), sel, "internal/segment", "Representation"):
		if repPureMethods[name] {
			tr.walkArgs(call)
			return true
		}
		tr.report(root, effectMutate, call.Pos(),
			"calls (*segment.Representation).%s, which mutates the representation", name)
		tr.walkArgs(call)
		return true

	case recvIsNamed(tr.info(), sel, "internal/kernel", "Object"):
		switch {
		case name == "View":
			// The view function's parameter is the representation:
			// analyze its body with the same root.
			tr.analyzeAccessorFn(call, root)
			return true
		case objectMutatingMethods[name]:
			tr.report(root, effectMutate, call.Pos(),
				"calls (*kernel.Object).%s, which requires write access", name)
			tr.walkArgs(call)
			return true
		case name == "SpawnBehavior":
			// The behavior runs concurrently; analyze its body inline
			// (mutations through the object still count) — capture of
			// the raw representation would be caught there.
			tr.analyzeAccessorFn(call, root)
			return true
		case objectPureMethods[name]:
			tr.walkArgs(call)
			return true
		default:
			// Fail closed: an Object method absent from both tables is
			// treated as mutating so new kernel API starts checked.
			tr.report(root, effectMutate, call.Pos(),
				"calls (*kernel.Object).%s, which is not in the read-only method table", name)
			tr.walkArgs(call)
			return true
		}

	case recvIsNamed(tr.info(), sel, "internal/kernel", "Call"):
		if name == "Self" {
			return true // propagation handled by rootOf
		}
		if name == "Subprocess" {
			tr.analyzeAccessorFn(call, root)
			return true
		}
		if callPureMethods[name] {
			tr.walkArgs(call)
			return true
		}
		tr.walkArgs(call)
		return true
	}
	return false
}

// analyzeAccessorFn analyzes the function argument of View/Update/
// Subprocess/SpawnBehavior inline: its parameter (if any) is bound to
// the same root, and its body runs under this tracker so captured
// locals keep their meaning.
func (tr *tracker) analyzeAccessorFn(call *ast.CallExpr, root int) {
	if len(call.Args) == 0 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	switch fn := arg.(type) {
	case *ast.FuncLit:
		tr.bindParams(fn.Type, root)
		tr.walkBody(fn.Body)
	case *ast.Ident, *ast.SelectorExpr:
		// Named accessor function: summarize it and translate its
		// first-parameter effects to this root.
		callee := identFunc(tr.info(), arg)
		sum := tr.eng.summarize(callee)
		if sum == nil {
			return
		}
		for kind := range [2]struct{}{} {
			if ev := sum.paramEffect(0, effectKind(kind)); ev != nil {
				tr.report(root, effectKind(kind), call.Pos(),
					"calls %s, which %s (at %s)", callee.Name(), ev.What, tr.eng.pass.Fset.Position(ev.Pos))
			}
		}
	}
}

// bindParams binds every parameter of a function literal's type to the
// given root (the representation view function has exactly one).
func (tr *tracker) bindParams(ft *ast.FuncType, root int) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := tr.info().Defs[name]; obj != nil {
				tr.roots[obj] = root
			}
		}
	}
}

// identFunc resolves an identifier or selector to the *types.Func it
// names.
func identFunc(info *types.Info, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[x].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// walkArgs analyzes a call's arguments without classifying the call
// itself.
func (tr *tracker) walkArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		tr.walkExpr(arg)
	}
}

// callArgRoots maps callee parameter indices to the tracked root of
// the corresponding argument (-1 when untracked), aligning the
// receiver of a method call with summary index 0.
func (tr *tracker) callArgRoots(fn *types.Func, call *ast.CallExpr) map[int]int {
	out := make(map[int]int)
	offset := 0
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			offset = 1
			if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
				if root, ok := tr.rootOf(sel.X); ok {
					out[0] = root
				} else {
					out[0] = -1
				}
			}
		}
	}
	for i, arg := range call.Args {
		if root, ok := tr.rootOf(arg); ok {
			out[offset+i] = root
		} else {
			out[offset+i] = -1
		}
	}
	return out
}

// renderExpr prints an expression compactly for messages.
func renderExpr(e ast.Expr) string {
	return exprKey(e)
}
