package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// LockHold flags blocking operations performed while a sync.Mutex or
// sync.RWMutex acquired in the same function is still held. The kernel
// juggles several mutexes per node plus one per object; holding any of
// them across an invocation, a channel wait, network I/O or a sleep is
// the seed of the classic distributed-deadlock cycle (node A's kernel
// lock waits on node B's reply, whose handler waits on A's kernel
// lock).
//
// The analysis is lexical, not path-sensitive: Lock() puts the mutex
// in the held set, Unlock() removes it, a deferred Unlock holds it to
// the end of the function, and any blocking operation encountered while
// the set is non-empty is reported. Function literals are independent
// scopes (their bodies run on their own goroutine or schedule).
// sync.Cond.Wait is exempt — it is specified to be called with the
// lock held and releases it while waiting.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no blocking operation (invoke, channel wait, net I/O, sleep) while a mutex acquired in the same function is held",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lh := &lockHolder{pass: pass, held: make(map[string]token.Pos)}
			lh.scanBlock(fd.Body)
		}
	}
}

type lockHolder struct {
	pass *Pass
	// held maps the lock expression's source text ("k.mu", "o.sched")
	// to the position of the acquisition currently in force.
	held map[string]token.Pos
}

// scanBlock walks statements lexically, updating the held set and
// reporting blocking operations under a lock.
func (lh *lockHolder) scanBlock(blk *ast.BlockStmt) {
	for _, stmt := range blk.List {
		lh.scanStmt(stmt)
	}
}

func (lh *lockHolder) scanStmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && lh.noteLockOp(call, false) {
			return
		}
		lh.scanExpr(s.X)
	case *ast.DeferStmt:
		if lh.noteLockOp(s.Call, true) {
			return
		}
		// Other deferred calls run at return; their arguments are
		// evaluated now but the call itself does not block here.
		for _, arg := range s.Call.Args {
			lh.scanExpr(arg)
		}
	case *ast.GoStmt:
		// The spawned call's arguments are evaluated synchronously;
		// the call body runs elsewhere.
		for _, arg := range s.Call.Args {
			lh.scanExpr(arg)
		}
	case *ast.SendStmt:
		lh.scanExpr(s.Value)
		lh.reportIfHeld(s.Pos(), "channel send")
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lh.scanExpr(rhs)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			lh.scanExpr(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			lh.scanStmt(s.Init)
		}
		lh.scanExpr(s.Cond)
		lh.scanBlock(s.Body)
		if s.Else != nil {
			lh.scanStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lh.scanStmt(s.Init)
		}
		if s.Cond != nil {
			lh.scanExpr(s.Cond)
		}
		lh.scanBlock(s.Body)
		if s.Post != nil {
			lh.scanStmt(s.Post)
		}
	case *ast.RangeStmt:
		if tv, ok := lh.pass.Info.Types[s.X]; ok {
			if _, isChan := types.Unalias(tv.Type).Underlying().(*types.Chan); isChan {
				lh.reportIfHeld(s.Pos(), "range over channel")
			}
		}
		lh.scanExpr(s.X)
		lh.scanBlock(s.Body)
	case *ast.SelectStmt:
		lh.scanSelect(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lh.scanStmt(s.Init)
		}
		if s.Tag != nil {
			lh.scanExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					lh.scanExpr(e)
				}
				for _, st := range cc.Body {
					lh.scanStmt(st)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lh.scanStmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					lh.scanStmt(st)
				}
			}
		}
	case *ast.BlockStmt:
		lh.scanBlock(s)
	case *ast.LabeledStmt:
		lh.scanStmt(s.Stmt)
	}
}

// scanSelect handles select specially: with a default clause nothing
// blocks; without one the select as a whole is a blocking wait.
func (lh *lockHolder) scanSelect(s *ast.SelectStmt) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		lh.reportIfHeld(s.Pos(), "select with no default")
	}
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok {
			for _, st := range cc.Body {
				lh.scanStmt(st)
			}
		}
	}
}

// scanExpr looks for blocking operations inside an expression: channel
// receives and blocking calls. Function literals are skipped.
func (lh *lockHolder) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	iife := immediatelyInvoked(e)
	ast.Inspect(e, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			// An immediately-invoked literal runs synchronously under
			// whatever locks are held; scan its body with the shared
			// held set. Any other literal runs on its own schedule.
			if iife[nn] {
				lh.scanBlock(nn.Body)
			}
			return false
		case *ast.UnaryExpr:
			if nn.Op == token.ARROW {
				lh.reportIfHeld(nn.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if kind, blocking := blockingCall(lh.pass.Info, nn); blocking {
				lh.reportIfHeld(nn.Pos(), kind)
			}
		}
		return true
	})
}

// noteLockOp updates the held set if call is a Lock/RLock/Unlock/
// RUnlock on a sync mutex; it reports whether it consumed the call.
func (lh *lockHolder) noteLockOp(call *ast.CallExpr, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false
	}
	if !isSyncMutex(lh.pass.Info, sel.X) {
		return false
	}
	key := exprKey(sel.X)
	switch name {
	case "Lock", "RLock":
		if !deferred { // `defer mu.Lock()` would be a bug, not an acquisition
			lh.held[key] = call.Pos()
		}
	case "Unlock", "RUnlock":
		if deferred {
			// Held until the function returns: keep it in the set so
			// everything after the defer is "under lock".
			return true
		}
		delete(lh.held, key)
	}
	return true
}

func (lh *lockHolder) reportIfHeld(pos token.Pos, what string) {
	for key, at := range lh.held {
		lh.pass.Reportf(pos, "%s while mutex %q is held (acquired at %s); release it before blocking",
			what, key, lh.pass.Fset.Position(at))
		return // one report per site is enough
	}
}

// blockingCall classifies calls that suspend the goroutine.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if isPkgFunc(info, call, "time", "Sleep") {
		return "time.Sleep", true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	recv := recvTypeName(info, call.Fun)
	switch sel.Sel.Name {
	case "Invoke":
		// A kernel invocation suspends the caller "pending completion".
		if strings.Contains(recv, "Kernel") || strings.Contains(recv, "Object") ||
			strings.Contains(recv, "Node") || strings.Contains(recv, "Call") {
			return "kernel invocation", true
		}
	case "Wait":
		// sync.WaitGroup.Wait blocks; sync.Cond.Wait is the sanctioned
		// hold-and-wait primitive and is exempt.
		if strings.Contains(recv, "sync.WaitGroup") {
			return "sync.WaitGroup.Wait", true
		}
	case "Read", "Write":
		if strings.Contains(recv, "net.") {
			return "network I/O", true
		}
	case "Accept":
		if strings.Contains(recv, "net.") {
			return "net accept", true
		}
	case "P", "Receive":
		if strings.Contains(recv, "Semaphore") || strings.Contains(recv, "Port") {
			return "intra-object synchronization wait", true
		}
	}
	return "", false
}

// isSyncMutex reports whether the expression's type is sync.Mutex or
// sync.RWMutex (possibly behind a pointer).
func isSyncMutex(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok {
		return false
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// exprKey renders a lock expression for the held-set key and messages.
func exprKey(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return "?"
	}
	return buf.String()
}
