package kernel

// TestSchedulePolicy checks the scheduling policy exhaustively at small
// scope. It drives the functions the monitor calls — coordState.step,
// exit and drain — through every sequence of events within the scope,
// stepping each state's successors from the state itself, and checks the
// policy's invariants after every event.

import (
	"fmt"
	"testing"
	"time"
)

// policyMaxCalls bounds the calls of one run of the model, each of any
// class and mode.
const policyMaxCalls = 5

// arrivalPos is the position of a step's arriving call: after every queued
// one, since it is the youngest.
const arrivalPos = policyMaxCalls

// pcall is one call of the model.
type pcall struct {
	class, mode uint8
	expired     bool // its deadline has passed
}

// pstate is one state of the model: the schedule as the policy sees it,
// without frames. The queued calls are kept in arrival order, so the
// ring each sits in follows from its class and mode. A state reached
// holds no expired call — every step sheds them — so expiry is chosen
// where it matters, just before a step (successors).
type pstate struct {
	open, down bool
	running    [2][3]uint8 // executing processes per class and mode
	nq         uint8
	queue      [policyMaxCalls]pcall
}

// key packs the state into 38 bits, each field at a fixed place; a
// state reached has no expired call.
func (s *pstate) key() uint64 {
	k := uint64(b2i(s.open))<<1 | uint64(b2i(s.down))
	for _, row := range s.running {
		for _, n := range row {
			k = k<<3 | uint64(n)
		}
	}
	k = k<<3 | uint64(s.nq)
	for i, q := range s.queue {
		if i < int(s.nq) {
			k = k<<3 | uint64(q.class)<<2 | uint64(q.mode)
		} else {
			k <<= 3
		}
	}
	return k
}

func (s pstate) String() string {
	q := ""
	for _, c := range s.queue[:s.nq] {
		q += fmt.Sprintf(" %d/%v", c.class, Access(c.mode))
		if c.expired {
			q += "(expired)"
		}
	}
	return fmt.Sprintf("open=%v down=%v running=%v queue=[%s ]", s.open, s.down, s.running, q)
}

// calls counts the calls queued or running.
func (s *pstate) calls() int {
	n := int(s.nq)
	for _, row := range s.running {
		for _, k := range row {
			n += int(k)
		}
	}
	return n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pevent names an event for a failure report.
type pevent struct {
	kind        string
	class, mode int
}

func (e pevent) String() string {
	if e.kind == "arrive" || e.kind == "complete" {
		return fmt.Sprintf("%s %d/%v", e.kind, e.class, Access(e.mode))
	}
	return e.kind
}

// policyChecker explores one configuration of the policy's inputs: a
// class table and the two caps.
type policyChecker struct {
	t          *testing.T
	classes    []classSpec
	maxReaders int
	maxQueue   int

	ops     [2][3]boundOp
	frames  [policyMaxCalls + 1]callCtx // the queued calls by position, then the arrival
	cs      coordState
	t0      time.Time
	live    time.Time // the deadline of a live call, after t0
	expired time.Time // the deadline of an expired call, before t0
	clock   int       // calls of now during the current step
	now     func() time.Time

	seen  map[uint64]struct{}
	work  []pstate
	steps int // steps checked
}

func newPolicyChecker(t *testing.T, seen map[uint64]struct{}, limits []int, maxReaders, maxQueue int) *policyChecker {
	t0 := time.Unix(1e9, 0)
	pc := &policyChecker{t: t, maxReaders: maxReaders, maxQueue: maxQueue, seen: seen,
		t0: t0, live: t0.Add(time.Hour), expired: t0.Add(-time.Nanosecond)}
	for c, l := range limits {
		pc.classes = append(pc.classes, classSpec{name: fmt.Sprint("c", c), limit: l})
		for m := range pc.ops[c] {
			pc.ops[c][m] = boundOp{class: int32(c), mode: Access(m)}
		}
	}
	pc.now = func() time.Time {
		pc.clock++
		return pc.t0
	}
	return pc
}

// run explores every state reachable from the empty, open schedule and
// returns how many there are.
func (pc *policyChecker) run() int {
	clear(pc.seen)
	pc.visit(pevent{kind: "start"}, pstate{}, pstate{open: true})
	for len(pc.work) > 0 {
		s := pc.work[len(pc.work)-1]
		pc.work = pc.work[:len(pc.work)-1]
		pc.successors(s)
	}
	return len(pc.seen)
}

// visit checks a state the first time an event reaches it, and queues
// it for exploration; the step that led to it has already been checked.
func (pc *policyChecker) visit(ev pevent, s, next pstate) {
	k := next.key()
	if _, ok := pc.seen[k]; !ok {
		pc.check(ev, s, next)
		pc.seen[k] = struct{}{}
		pc.work = append(pc.work, next)
	}
}

func (pc *policyChecker) fail(ev pevent, s pstate, invariant, format string, args ...any) {
	pc.t.Helper()
	pc.t.Fatalf("classes %v, reader cap %d, queue cap %d: %v from %v: %s: %s",
		pc.classes, pc.maxReaders, pc.maxQueue, ev, s, invariant, fmt.Sprintf(format, args...))
}

// load sets the policy's state to s: the class and mode counts, and each
// queued call in a frame of its own, stamped with its position.
func (pc *policyChecker) load(s pstate) {
	pc.cs = coordState{}
	rows := pc.cs.rows(len(pc.classes))
	for c := range rows {
		for m, n := range s.running[c] {
			rows[c].running += int32(n)
			pc.cs.active[m] += int32(n)
		}
	}
	for i, q := range s.queue[:s.nq] {
		f := &pc.frames[i]
		f.op, f.seq, f.next = &pc.ops[q.class][q.mode], uint64(i), nil
		f.deadline = pc.live
		if q.expired {
			f.deadline = pc.expired
		}
		rows[q.class].push(Access(q.mode), f)
	}
	pc.cs.seq = uint64(s.nq)
}

// index returns the frame's position.
func (pc *policyChecker) index(c *callCtx) int {
	for i := range pc.frames {
		if c == &pc.frames[i] {
			return i
		}
	}
	pc.t.Fatal("the policy returned a frame it was never given")
	return -1
}

// call returns the model's call at position i of a step from pre.
func (pc *policyChecker) call(pre *pstate, i int) pcall {
	if i == arrivalPos {
		op := pc.frames[arrivalPos].op
		return pcall{class: uint8(op.class), mode: uint8(op.mode)}
	}
	return pre.queue[i]
}

// successors checks every event from s and visits the states they lead
// to. A deadline passing changes nothing until the next step — only the
// deadline pass looks — so a step is taken from s with each subset of
// its queued calls expired, and the model keeps no expired call.
func (pc *policyChecker) successors(s pstate) {
	for mask := 0; mask < 1<<s.nq; mask++ {
		x := s
		for i := range x.queue[:x.nq] {
			x.queue[i].expired = mask&(1<<i) != 0
		}
		for c := range pc.classes {
			for m := range 3 {
				ev := pevent{"arrive", c, m}
				if !s.down && s.calls() < policyMaxCalls {
					pc.load(x)
					in := &pc.frames[arrivalPos]
					in.op, in.next, in.deadline = &pc.ops[c][m], nil, pc.live
					pc.step(ev, x, x, in)
				}
				// A process may finish after teardown too: a crash does
				// not wait for running handlers.
				if s.running[c][m] > 0 {
					ev.kind = "complete"
					pre := x
					pre.running[c][m]--
					pc.load(x)
					pc.cs.exit(pc.classes, &pc.ops[c][m])
					pc.step(ev, x, pre, nil)
				}
			}
		}
		if !s.down && !s.open {
			// A move or passivation aborts: resumeService.
			pre := x
			pre.open = true
			pc.load(pre)
			pc.step(pevent{kind: "reopen"}, x, pre, nil)
		}
	}
	if s.down {
		return
	}
	if s.open {
		// A move or passivation claims the object.
		next := s
		next.open = false
		pc.visit(pevent{kind: "close"}, s, next)
	}
	pc.teardown(s)
}

// The fates a step gives each call it holds.
const (
	fateWaiting = iota
	fateShed
	fateStarted
)

// step runs one scheduling step on the schedule loaded from pre — s with
// the event's own change made — and the arrival in, if any; checks its
// decisions; and visits the state after it.
func (pc *policyChecker) step(ev pevent, s, pre pstate, in *callCtx) {
	pc.steps++
	pc.clock = 0
	shed, start, refused := pc.cs.step(pc.classes, in, pc.maxReaders, pc.maxQueue, pre.open, pc.now)
	if pc.clock > 1 || (pc.clock == 1 && pre.nq == 0) {
		pc.fail(ev, s, "clock", "read the clock %d times with %d calls queued", pc.clock, pre.nq)
	}

	// The calls the step holds, in arrival order: the queued ones by
	// position, then the arrival unless the door refused it.
	var held [policyMaxCalls + 1]int
	n := 0
	for i := range pre.queue[:pre.nq] {
		held[n] = i
		n++
	}
	if in != nil {
		if refused {
			// The door refuses a call only when its queue holds cap-many
			// live calls.
			live := 0
			for _, q := range pre.queue[:pre.nq] {
				if int32(q.class) == in.op.class && Access(q.mode) == in.op.mode && !q.expired {
					live++
				}
			}
			if live < pc.maxQueue {
				pc.fail(ev, s, "door", "refused the arrival with %d live calls in its queue, cap %d", live, pc.maxQueue)
			}
		} else {
			held[n] = arrivalPos
			n++
		}
	}
	cands := held[:n]
	isHeld := func(i int) bool {
		for _, h := range cands {
			if h == i {
				return true
			}
		}
		return false
	}

	// Every call ends exactly once, and a step disposes only of calls it
	// holds; only expired calls are shed, and none is left queued.
	var fate [policyMaxCalls + 1]int
	for c := shed; c != nil; c = c.next {
		i := pc.index(c)
		if !isHeld(i) || fate[i] != fateWaiting {
			pc.fail(ev, s, "exactly once", "shed call %d twice or without holding it", i)
		}
		fate[i] = fateShed
		if !pc.call(&pre, i).expired {
			pc.fail(ev, s, "deadline", "shed the live call %d", i)
		}
	}
	var started [policyMaxCalls + 1]int
	ns := 0
	for c := start; c != nil; c = c.next {
		i := pc.index(c)
		if !isHeld(i) || fate[i] != fateWaiting {
			pc.fail(ev, s, "exactly once", "started call %d twice, after shedding it, or without holding it", i)
		}
		fate[i] = fateStarted
		started[ns] = i
		ns++
	}
	if ns > 0 && !pre.open {
		pc.fail(ev, s, "closed", "started %d calls while the object is closed", ns)
	}
	for _, i := range cands {
		if pc.call(&pre, i).expired && fate[i] != fateShed {
			pc.fail(ev, s, "deadline", "left the expired call %d unshed", i)
		}
	}

	// Arrival order: when a call starts, every call of its mode that
	// arrived before it and still waits is in a class at its limit.
	// Within one class and mode that is FIFO; across classes, the older
	// head goes first.
	var run [2]int
	for c := range pc.classes {
		for _, k := range pre.running[c] {
			run[c] += int(k)
		}
	}
	room := func(c uint8) bool { l := pc.classes[c].limit; return l == 0 || run[c] < l }
	for k, x := range started[:ns] {
		cx := pc.call(&pre, x)
		for _, y := range cands {
			cy := pc.call(&pre, y)
			if y >= x || cy.mode != cx.mode || fate[y] == fateShed {
				continue
			}
			waits := fate[y] == fateWaiting
			for _, z := range started[k+1 : ns] {
				waits = waits || z == y
			}
			if waits && room(cy.class) {
				pc.fail(ev, s, "arrival order", "started call %d (%d/%v) before the older call %d of class %d, which had room",
					x, cx.class, Access(cx.mode), y, cy.class)
			}
		}
		run[cx.class]++
	}

	// Writer preference: no reader starts while a queued writer's class
	// has room.
	for _, x := range started[:ns] {
		if Access(pc.call(&pre, x).mode) != AccessRead {
			continue
		}
		for _, y := range cands {
			cy := pc.call(&pre, y)
			if fate[y] != fateWaiting || Access(cy.mode) != AccessWrite {
				continue
			}
			busy := 0
			for _, k := range pre.running[cy.class] {
				busy += int(k)
			}
			if l := pc.classes[cy.class].limit; l == 0 || busy < l {
				pc.fail(ev, s, "writer preference", "started reader %d while writer %d waits with room in class %d", x, y, cy.class)
			}
		}
		break
	}

	next := pre
	next.nq = 0
	for _, i := range cands {
		q := pc.call(&pre, i)
		switch fate[i] {
		case fateWaiting:
			next.queue[next.nq] = q
			next.nq++
		case fateStarted:
			next.running[q.class][q.mode]++
		}
	}
	pc.agree(ev, s, &pre, &next, &fate)
	pc.visit(ev, s, next)
}

// agree checks that the policy's own state says what the model does:
// each ring holds its class and mode's waiting calls in arrival order
// and counts them, and the class and mode counts match.
func (pc *policyChecker) agree(ev pevent, s pstate, pre, next *pstate, fate *[policyMaxCalls + 1]int) {
	rows := pc.cs.rows(len(pc.classes))
	var modes [3]int
	ringed := 0
	for c := range rows {
		cl := &rows[c]
		running := 0
		for m := range cl.tail {
			running += int(next.running[c][m])
			modes[m] += int(next.running[c][m])
			k, prev := 0, -1
			for t, f := cl.tail[m], cl.head(Access(m)); f != nil && k <= policyMaxCalls; f = f.next {
				i := pc.index(f)
				if q := pc.call(pre, i); fate[i] != fateWaiting || int(q.class) != c || int(q.mode) != m || i <= prev {
					pc.fail(ev, s, "queues", "class %d %v queue holds call %d out of place", c, Access(m), i)
				}
				k, prev = k+1, i
				if f == t {
					break
				}
			}
			if int(cl.n[m]) != k {
				pc.fail(ev, s, "queues", "class %d %v queue holds %d calls, counts %d", c, Access(m), k, cl.n[m])
			}
			ringed += k
		}
		if int(cl.running) != running {
			pc.fail(ev, s, "counts", "class %d counts %d running, want %d", c, cl.running, running)
		}
	}
	if ringed != int(next.nq) {
		pc.fail(ev, s, "queues", "rings hold %d calls, want %d", ringed, next.nq)
	}
	for m, k := range pc.cs.active {
		if int(k) != modes[m] {
			pc.fail(ev, s, "counts", "%v counts %d running, want %d", Access(m), k, modes[m])
		}
	}
}

// teardown drains the schedule loaded from s, which must hand back
// exactly the calls queued.
func (pc *policyChecker) teardown(s pstate) {
	ev := pevent{kind: "teardown"}
	pc.load(s)
	var got [policyMaxCalls + 1]int
	for c := pc.cs.drain(pc.classes); c != nil; c = c.next {
		got[pc.index(c)]++
	}
	for i, k := range got {
		if want := b2i(i < int(s.nq)); k != want {
			pc.fail(ev, s, "exactly once", "drain handed back call %d %d times, want %d", i, k, want)
		}
	}
	for c, cl := range pc.cs.rows(len(pc.classes)) {
		if cl.tail != [3]*callCtx{} || cl.n != [3]int32{} {
			pc.fail(ev, s, "queues", "class %d still queues %v after drain", c, cl.n)
		}
	}
	next := pstate{down: true, running: s.running}
	pc.visit(ev, s, next)
}

// check verifies the invariants that hold in every state.
func (pc *policyChecker) check(ev pevent, s, next pstate) {
	var modes [3]int
	for c := range pc.classes {
		n := 0
		for m, k := range next.running[c] {
			n += int(k)
			modes[m] += int(k)
		}
		if l := pc.classes[c].limit; l > 0 && n > l {
			pc.fail(ev, s, "class limit", "class %d runs %d, limit %d", c, n, l)
		}
	}
	if modes[AccessRead] > pc.maxReaders {
		pc.fail(ev, s, "reader cap", "%d readers run, cap %d", modes[AccessRead], pc.maxReaders)
	}
	if w := modes[AccessWrite]; w > 1 || (w == 1 && modes[AccessRead] > 0) {
		pc.fail(ev, s, "writer alone", "%d writers run beside %d readers", w, modes[AccessRead])
	}
	var queued [2][3]int
	for _, q := range next.queue[:next.nq] {
		queued[q.class][q.mode]++
		if queued[q.class][q.mode] > pc.maxQueue {
			pc.fail(ev, s, "queue cap", "class %d %v queue holds %d, cap %d", q.class, Access(q.mode), queued[q.class][q.mode], pc.maxQueue)
		}
	}
	// Progress: a reached state's queued calls are all live, and with
	// nothing running at least one of them is admissible, so none may
	// wait.
	if next.open && modes == [3]int{} && next.nq > 0 {
		pc.fail(ev, s, "progress", "nothing runs on the open object while %d live calls wait: %v", next.nq, next)
	}
}

// TestSchedulePolicy explores one or two classes with limits 1, 2 or
// unlimited, reader and queue caps of 1 or 2, and up to policyMaxCalls
// calls present. Events: a call arrives, a process completes (after
// teardown too), queued calls' deadlines pass, a move or passivation
// closes the object and aborts (reopening it), and teardown.
func TestSchedulePolicy(t *testing.T) {
	limits := [][]int{{1}, {2}, {0}}
	// Classes are symmetric: the policy orders them by their calls'
	// arrival, never by their position in the table.
	for i, a := range []int{1, 2, 0} {
		for _, b := range []int{1, 2, 0}[i:] {
			limits = append(limits, []int{a, b})
		}
	}
	start := time.Now()
	seen := make(map[uint64]struct{})
	states, steps, configs := 0, 0, 0
	for _, l := range limits {
		for _, readers := range []int{1, 2} {
			for _, queue := range []int{1, 2} {
				pc := newPolicyChecker(t, seen, l, readers, queue)
				states += pc.run()
				steps += pc.steps
				configs++
			}
		}
	}
	t.Logf("%d configurations: %d states, %d steps checked in %v", configs, states, steps, time.Since(start).Round(time.Millisecond))
}
