package analysis

// returngives holds handlers to the kernel's reply-ownership rule,
// "Return gives": Call.Return keeps the slice it is given, uncopied. On
// a local call that slice becomes the invoker's Reply.Data, and on a
// call from another node the reply is encoded from it (and the
// at-most-once table may keep it for a retransmission). Two handler
// mistakes therefore change a reply behind the kernel's back:
//
//   - writing into the slice after giving it away — an index or array
//     assignment, copy into it, encoding/binary's Put* into it, or an
//     append onto a re-slice of it;
//   - giving away package-level state, or a slice of it: one shared
//     buffer would become every caller's reply.
//
// The check is per function that takes a *kernel.Call, source-ordered
// and branch-insensitive, like rightsgate. Slices are tracked by the
// variable (and selector path) they are rooted in; a local bound to a
// slice of another (`b := out[:]`, `x := append(b[:0], …)`) joins its
// alias class wherever in the function the binding is. A Return followed
// in its own block by a `return` of the checked function reaches no
// further, so an early exit does not make the code after it suspect.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReturnGives enforces the Return-gives ownership rule in handlers.
var ReturnGives = &Analyzer{
	Name: "returngives",
	Doc:  "a slice given to Call.Return is the reply itself: it must not be written afterwards, nor be package-level state",
	Run:  runReturnGives,
}

func runReturnGives(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !takesCall(pass.Info, ft) {
				return true
			}
			newGivesWalk(pass, body).check()
			return false // literals nested in a handler are part of its walk
		})
	}
}

// takesCall reports whether the function has a *kernel.Call parameter.
func takesCall(info *types.Info, ft *ast.FuncType) bool {
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isNamedPtr(tv.Type, "internal/kernel", "Call") {
			return true
		}
	}
	return false
}

// sliceID names the array a slice expression reaches: the variable it
// is rooted in and the selector/index path from there ("c.Data").
type sliceID struct {
	base types.Object
	path string
}

// give is one Return call: what it gives, and how far it is live.
type give struct {
	call  *ast.CallExpr
	arg   ast.Expr
	id    sliceID
	ok    bool      // arg is rooted in a variable
	reach token.Pos // the end of the code that can run after the Return
}

// access is one write into, or rebinding of, a tracked slice.
type access struct {
	id   sliceID
	pos  token.Pos
	what string
}

type givesWalk struct {
	pass    *Pass
	body    *ast.BlockStmt
	alias   map[sliceID]sliceID // union-find parent links
	global  map[sliceID]string  // bound from package-level state: its name
	gives   []give
	writes  []access
	rebinds []access
}

func newGivesWalk(pass *Pass, body *ast.BlockStmt) *givesWalk {
	return &givesWalk{
		pass:   pass,
		body:   body,
		alias:  make(map[sliceID]sliceID),
		global: make(map[sliceID]string),
	}
}

func (w *givesWalk) info() *types.Info { return w.pass.Info }

func (w *givesWalk) find(id sliceID) sliceID {
	for {
		up, ok := w.alias[id]
		if !ok || up == id {
			return id
		}
		id = up
	}
}

func (w *givesWalk) union(a, b sliceID) {
	if ra, rb := w.find(a), w.find(b); ra != rb {
		w.alias[ra] = rb
	}
}

// check collects the function's gives, writes, rebindings and alias
// bindings in one walk, then judges every give.
func (w *givesWalk) check() {
	var stack []ast.Node
	ast.Inspect(w.body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.AssignStmt:
			w.assign(x)
		case *ast.IncDecStmt:
			w.writeIndex(x.X, x.Pos())
		case *ast.ValueSpec:
			for i, v := range x.Values {
				if i < len(x.Names) {
					w.bind(x.Names[i], v)
				}
			}
		case *ast.CallExpr:
			w.call(x, stack)
		}
		return true
	})
	w.judge()
}

// assign records index writes, whole-array overwrites, rebindings and
// alias bindings.
func (w *givesWalk) assign(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		if w.writeIndex(lhs, s.Pos()) {
			continue
		}
		id, ok := w.sliceOf(lhs)
		if !ok {
			continue
		}
		if isArray(w.typeOf(lhs)) {
			// An array is the memory a slice of it aliases: assigning
			// to it writes what was given, it does not rebind.
			w.writes = append(w.writes, access{id, s.Pos(), "overwrites " + exprKey(lhs)})
			continue
		}
		w.rebinds = append(w.rebinds, access{id: id, pos: s.End()})
		if len(s.Lhs) == len(s.Rhs) {
			w.bind(lhs, s.Rhs[i])
		}
	}
}

// writeIndex records `x[i] = …` or `x[i]++` into a slice or array; it
// reports whether lhs was such an element.
func (w *givesWalk) writeIndex(lhs ast.Expr, pos token.Pos) bool {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	if _, isMap := types.Unalias(w.typeOf(ix.X)).Underlying().(*types.Map); isMap {
		return true // a map element is rebound, not written through
	}
	if id, ok := w.sliceOf(ix.X); ok {
		w.writes = append(w.writes, access{id, pos, "writes " + exprKey(lhs)})
	}
	return true
}

// bind joins lhs to the alias class of a slice-typed rhs, and marks it
// when rhs is package-level state.
func (w *givesWalk) bind(lhs, rhs ast.Expr) {
	if _, isSlice := types.Unalias(w.typeOf(rhs)).Underlying().(*types.Slice); !isSlice {
		return // arrays copy; anything else carries no bytes
	}
	lid, ok := w.sliceOf(lhs)
	if !ok {
		return
	}
	if name, ok := w.globalName(rhs); ok {
		w.global[lid] = name
	}
	if rid, ok := w.sliceOf(rhs); ok {
		w.union(lid, rid)
	}
}

// call records copy/append/binary.Put* writes and Return gives.
func (w *givesWalk) call(c *ast.CallExpr, stack []ast.Node) {
	switch {
	case w.isBuiltin(c, "copy") && len(c.Args) == 2:
		w.writeCall(c.Args[0], c.Pos(), "copies into ")
	case w.isBuiltin(c, "append") && len(c.Args) > 0:
		if _, reslice := ast.Unparen(c.Args[0]).(*ast.SliceExpr); reslice {
			w.writeCall(c.Args[0], c.Pos(), "appends onto ")
		}
	}
	if fn := staticCallee(w.info(), c); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "encoding/binary" && strings.HasPrefix(fn.Name(), "Put") && len(c.Args) > 0 {
		w.writeCall(c.Args[0], c.Pos(), fn.Name()+" writes ")
	}
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Return" || len(c.Args) != 1 || !recvIsNamed(w.info(), sel, "internal/kernel", "Call") {
		return
	}
	g := give{call: c, arg: c.Args[0], reach: w.reach(stack)}
	g.id, g.ok = w.sliceOf(g.arg)
	w.gives = append(w.gives, g)
}

func (w *givesWalk) writeCall(dst ast.Expr, pos token.Pos, what string) {
	if id, ok := w.sliceOf(dst); ok {
		w.writes = append(w.writes, access{id, pos, what + exprKey(dst)})
	}
}

// reach bounds what can run after the Return at the top of stack: a
// `return` later in the Return's own block ends the checked function
// there, unless a function literal (a View callback, say) lies between,
// whose return only resumes the code after its call.
func (w *givesWalk) reach(stack []ast.Node) token.Pos {
	for _, n := range stack {
		if _, lit := n.(*ast.FuncLit); lit {
			return w.body.End()
		}
	}
	for i := len(stack) - 2; i >= 0; i-- {
		var stmts []ast.Stmt
		switch b := stack[i].(type) {
		case *ast.BlockStmt:
			stmts = b.List
		case *ast.CaseClause:
			stmts = b.Body
		case *ast.CommClause:
			stmts = b.Body
		default:
			continue
		}
		for _, st := range stmts {
			if _, ret := st.(*ast.ReturnStmt); ret && st.Pos() > stack[i+1].Pos() {
				return st.End()
			}
		}
		break
	}
	return w.body.End()
}

// judge reports package-level gives, and writes that can run after the
// Return that gave their slice away.
func (w *givesWalk) judge() {
	reported := make(map[token.Pos]bool)
	for _, g := range w.gives {
		if name, ok := w.globalName(g.arg); ok {
			w.pass.Reportf(g.call.Pos(),
				"gives package-level %s to Return; the reply is that slice, not a copy, so every caller would share one buffer", name)
		} else if name := w.globalAlias(g); name != "" {
			w.pass.Reportf(g.call.Pos(),
				"gives %s, a slice of package-level %s, to Return; the reply is that slice, not a copy, so every caller would share one buffer",
				exprKey(g.arg), name)
		}
		if !g.ok {
			continue
		}
		root := w.find(g.id)
		for _, wr := range w.writes {
			if reported[wr.pos] || wr.pos < g.call.End() || wr.pos >= g.reach ||
				w.find(wr.id) != root || w.rebound(wr.id, g.call.End(), wr.pos) {
				continue
			}
			reported[wr.pos] = true
			w.pass.Reportf(wr.pos,
				"%s after giving it to Return (line %d); Return keeps the slice, so this rewrites the reply",
				wr.what, w.pass.Fset.Position(g.call.Pos()).Line)
		}
	}
}

// globalAlias names the package-level state a local in the given
// slice's alias class was bound from (the first by name), or "".
func (w *givesWalk) globalAlias(g give) string {
	if !g.ok {
		return ""
	}
	root, found := w.find(g.id), ""
	for id, name := range w.global {
		if w.find(id) == root && (found == "" || name < found) {
			found = name
		}
	}
	return found
}

// rebound reports whether id's variable was assigned anew between from
// and to, so a write at to reaches another array.
func (w *givesWalk) rebound(id sliceID, from, to token.Pos) bool {
	for _, r := range w.rebinds {
		if r.id == id && r.pos > from && r.pos <= to {
			return true
		}
	}
	return false
}

// sliceOf resolves the variable a slice expression is rooted in,
// through parens, re-slicing and append (whose result may be its first
// argument's array).
func (w *givesWalk) sliceOf(e ast.Expr) (sliceID, bool) {
	e = w.strip(e)
	base, ok := pathBase(e)
	if !ok {
		return sliceID{}, false
	}
	obj := w.info().Uses[base]
	if obj == nil {
		obj = w.info().Defs[base]
	}
	if obj == nil {
		return sliceID{}, false
	}
	return sliceID{obj, exprKey(e)}, true
}

// strip peels parens, re-slices and appends off a slice expression.
func (w *givesWalk) strip(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			if !w.isBuiltin(x, "append") || len(x.Args) == 0 {
				return e
			}
			e = x.Args[0]
		default:
			return e
		}
	}
}

// globalName reports whether e reads package-level state: a slice, an
// array or a field of a package-level variable, or an element of one.
func (w *givesWalk) globalName(e ast.Expr) (string, bool) {
	for e = w.strip(e); ; {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := w.info().Uses[x.Sel].(*types.Var); ok && packageLevel(v) {
				return exprKey(x), true
			}
			e = x.X
		case *ast.Ident:
			v, ok := w.info().Uses[x].(*types.Var)
			if ok && packageLevel(v) {
				return x.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// packageLevel reports whether v is declared at package scope.
func packageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func (w *givesWalk) isBuiltin(c *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(c.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := w.info().Uses[id].(*types.Builtin)
	return builtin
}

func (w *givesWalk) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.info().Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := w.info().Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return types.Typ[types.Invalid]
}

func isArray(t types.Type) bool {
	_, ok := types.Unalias(t).Underlying().(*types.Array)
	return ok
}
