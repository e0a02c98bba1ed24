package analysis

// killpointcover proves that the crash harness can see every
// durability transition. The blackbox/whitebox crash loops (PR 6) kill
// the node at killpoint.Hit crossings and assert recovery; a store
// mutation in a lifecycle path with no killpoint before or after it is
// a durability transition the harness can never schedule a crash
// around — new checkpoint/move/passivate code silently escapes the
// whole fault-injection regime.
//
// The analyzer walks the call trees of the lifecycle roots
// (Checkpoint, Passivate, Move/moveObject, activate/Reincarnate,
// resolveIntent), flattening package-local callees and function
// literals into one lexical event stream of killpoint.Hit crossings
// and store mutations (store.Put / store.Delete and the move-intent
// halves store.PutIntent / store.DeleteIntent, by callee package).
// Every store mutation
// must have a Hit somewhere before it and somewhere after it in the
// stream — the bracketing that lets the harness kill on either side of
// the transition. The walk is lexical, not path-sensitive: a Hit
// inside an error branch still counts, which matches how the harness
// arms points (any crossing is a kill opportunity).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// KillpointCover requires store mutations in lifecycle call trees to be
// bracketed by killpoint.Hit crossings.
var KillpointCover = &Analyzer{
	Name: "killpointcover",
	Doc:  "store mutations in Checkpoint/Passivate/Move/Reincarnate call trees must be bracketed by killpoint.Hit crossings",
	Run:  runKillpointCover,
}

// lifecycleRoots are the function/method names whose call trees are
// durability paths. Destroy and acceptShip are deliberately absent:
// destruction is not a recoverable transition (there is no state to
// restore), and the receiving half of a move commits under the
// sender's move killpoints. resolveIntent is a root of its own —
// move-transaction recovery commits and rolls back outside any live
// move, so its intent mutations cannot ride on moveObject's
// bracketing. The commit both share (commitMove) is no root: each
// caller brackets it with killpoints of its own.
var lifecycleRoots = map[string]bool{
	"Checkpoint":    true,
	"Passivate":     true,
	"Move":          true,
	"moveObject":    true,
	"activate":      true,
	"Reincarnate":   true,
	"resolveIntent": true,
}

// kpMaxDepth bounds call-tree flattening.
const kpMaxDepth = 6

type kpKind uint8

const (
	kpHit kpKind = iota
	kpMut
)

// kpEvent is one killpoint crossing or store mutation, in lexical
// order within the flattened call tree.
type kpEvent struct {
	Kind kpKind
	Pos  token.Pos
	What string // for muts: "store.Put", "store.Delete"
}

func runKillpointCover(pass *Pass) {
	if !importsPath(pass.Files, "internal/killpoint") {
		// A package with no killpoints has opted out of the crash
		// harness entirely; the analyzer covers the instrumented ones.
		return
	}
	kp := &kpWalker{pass: pass, sums: make(map[*types.Func][]kpEvent), decls: make(map[*types.Func]*ast.FuncDecl)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				kp.decls[fn] = fd
			}
		}
	}
	reported := make(map[token.Pos]bool)
	for fn, fd := range kp.decls {
		if !lifecycleRoots[fd.Name.Name] {
			continue
		}
		events := kp.summarize(fn)
		for i, ev := range events {
			if ev.Kind != kpMut || reported[ev.Pos] {
				continue
			}
			before, after := false, false
			for j := 0; j < i; j++ {
				if events[j].Kind == kpHit {
					before = true
					break
				}
			}
			for j := i + 1; j < len(events); j++ {
				if events[j].Kind == kpHit {
					after = true
					break
				}
			}
			if before && after {
				continue
			}
			reported[ev.Pos] = true
			side := "before or after"
			switch {
			case before && !after:
				side = "after"
			case !before && after:
				side = "before"
			}
			pass.Reportf(ev.Pos,
				"%s in lifecycle path %s has no killpoint.Hit %s it; the crash harness cannot schedule a kill around this durability transition",
				ev.What, fd.Name.Name, side)
		}
	}
}

// kpWalker flattens call trees into event streams, memoized per
// function.
type kpWalker struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func][]kpEvent
	busy  map[*types.Func]bool
	depth int
}

// summarize returns the lexical event stream of one package-local
// function, splicing in callee streams.
func (kp *kpWalker) summarize(fn *types.Func) []kpEvent {
	if events, ok := kp.sums[fn]; ok {
		return events
	}
	fd := kp.decls[fn]
	if fd == nil {
		return nil
	}
	if kp.busy == nil {
		kp.busy = make(map[*types.Func]bool)
	}
	if kp.busy[fn] || kp.depth >= kpMaxDepth {
		return nil
	}
	kp.busy[fn] = true
	kp.depth++
	var events []kpEvent
	kp.scan(fd.Body, &events)
	kp.depth--
	delete(kp.busy, fn)
	kp.sums[fn] = events
	return events
}

// scan appends the subtree's events in lexical order. Function
// literals (including go/defer bodies) are inlined: the harness kills
// the whole process, so where the goroutine boundary falls does not
// change what a crash can interrupt.
func (kp *kpWalker) scan(n ast.Node, events *[]kpEvent) {
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgFunc(kp.pass.Info, call, "internal/killpoint", "Hit") {
			*events = append(*events, kpEvent{Kind: kpHit, Pos: call.Pos()})
			return true
		}
		if what, ok := storeMutation(kp.pass.Info, call); ok {
			*events = append(*events, kpEvent{Kind: kpMut, Pos: call.Pos(), What: what})
			return true
		}
		if callee := staticCallee(kp.pass.Info, call); callee != nil {
			if _, local := kp.decls[callee]; local {
				*events = append(*events, kp.summarize(callee)...)
			}
		}
		return true
	})
}

// storeMutation reports whether the call mutates long-term storage: a
// Put or Delete — or a move-intent write/erase, the durable halves of
// the move transaction — whose callee is declared in the store package.
func storeMutation(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Put", "Delete", "PutIntent", "DeleteIntent":
	default:
		return "", false
	}
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	if !pathHasSuffix(path, "internal/store") {
		return "", false
	}
	return "store." + name, true
}

// importsPath reports whether any file imports a package whose path
// ends in suffix.
func importsPath(files []*ast.File, suffix string) bool {
	for _, f := range files {
		for _, imp := range f.Imports {
			if imp.Path == nil {
				continue
			}
			p := imp.Path.Value
			if len(p) >= 2 {
				p = p[1 : len(p)-1]
			}
			if pathHasSuffix(p, suffix) {
				return true
			}
		}
	}
	return false
}
