package kernel

// TestRoutePolicy checks the route policy exhaustively at small scope. It
// drives routeStep through every world of a small scope on a discrete
// clock, carrying each action out as the kernel and the locator would, and
// checks the policy's invariants on every action and at the end of every
// invocation:
//
//   - no wait ends past the deadline, and a probe gives the serving node
//     no more time than is left (so no broadcast goes out once the
//     deadline has passed);
//   - a non-read runs once: every send carries the invocation's one corr,
//     and a node answers a retransmission from its at-most-once table;
//   - if some node serves the object throughout, and half the budget
//     covers a wrong guess's wait, the operation and eight message
//     delays, the invocation succeeds;
//   - ErrNoSuchObject comes only after a recovery answer was awaited for
//     its full budget (DefaultTimeout plus the locate budget), or up to
//     the deadline, and ErrTimeout only once the deadline has passed;
//   - the frames of an invocation stay within a bound in its tries: a
//     probe and a broadcast with its answers per try, and one recovery.
//
// A world has an invoker (node 1), the object's creator (node 2) and, in
// most worlds, a third node; the object's home, which may be any of them
// or none (its home failed); a node holding its checkpoint, which claims
// it in a recovery; a node holding a frozen replica; and one odd node,
// which may be dead, slow, mid-move or mid-claim. The invoker's locator
// starts with nothing cached, the guess ruled out, a stale hint or the
// right one. A message takes rlat. The model assumes what the role
// protocol guarantees (TestRolePolicy): a checksite claims the object only
// while no live node serves it.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"eden/internal/locator"
	"eden/internal/msg"
)

// rlat is one message's delay in the checker's world.
const rlat = 10 * time.Millisecond

// rodd is how a world's odd node behaves.
type rodd uint8

const (
	oddNone     rodd = iota
	oddDead          // down: frames to it are lost, and it answers nothing
	oddSlow          // its operation takes work
	oddMoving        // it moves the object to moveTo at moveAt, or once a call running then ends
	oddClaiming      // it holds the checkpoint, and its claim takes claim
)

// rhint is what the invoker's locator holds of the object at the start.
type rhint uint8

const (
	rhNothing rhint = iota // the lookup guesses the creator
	rhNoGuess              // a guess at the creator proved wrong before
	rhStale                // a home hint naming stale, which does not hold the object
	rhRight                // a home hint naming the home
)

// rworld is one world of the route checker.
type rworld struct {
	locate, dflt, timeout time.Duration // the locate budget, DefaultTimeout, the invocation's
	nodes                 uint32        // 2 or 3
	read, any             bool          // the operation is AccessRead; AllowReplica
	home                  uint32        // holds the object at the start; 0: none does
	backup                uint32        // holds its checkpoint; 0: none
	replica               uint32        // holds a frozen replica; 0: none
	odd                   uint32
	how                   rodd
	work, claim, moveAt   time.Duration
	moveTo                uint32
	hint                  rhint
	stale                 uint32
}

func (w rworld) String() string {
	s := fmt.Sprintf("locate %v, default %v, timeout %v, %d nodes, read %v, any %v, home %d, backup %d, replica %d, hint %d",
		w.locate, w.dflt, w.timeout, w.nodes, w.read, w.any, w.home, w.backup, w.replica, w.hint)
	if w.hint == rhStale {
		s += fmt.Sprintf(" (node %d)", w.stale)
	}
	switch w.how {
	case oddDead:
		s += fmt.Sprintf(", node %d dead", w.odd)
	case oddSlow:
		s += fmt.Sprintf(", node %d slow (%v)", w.odd, w.work)
	case oddMoving:
		s += fmt.Sprintf(", node %d moves it to %d at %v", w.odd, w.moveTo, w.moveAt)
	case oddClaiming:
		s += fmt.Sprintf(", node %d claims in %v", w.odd, w.claim)
	}
	return s
}

// rreply is a reply on its way to the invoker.
type rreply struct {
	at     time.Duration
	status msg.Status
	dest   uint32
}

// rstep is one step of a run, for a failure's trace.
type rstep struct {
	at time.Duration
	a  routeAction
	ev routeEvent
}

// rsim runs one invocation in one world.
type rsim struct {
	w   rworld
	now time.Duration

	moveDone, claimAt time.Duration // when a move takes effect, and a claim (0: none)

	// The invoker's locator.
	lhome            uint32
	hasHome, noGuess bool
	lrep             uint32

	slot [4]struct {
		until  time.Duration
		status msg.Status
		used   bool
	} // each node's at-most-once slot for the one corr
	replies []rreply
	taken   msg.Status // the status of the reply the last probe took

	runs, frames, broadcasts int
	recoverAt, recoverWait   time.Duration
	recovered                bool
	steps                    []rstep
}

// holder is the node serving the object at t, if it is alive.
func (m *rsim) holder(t time.Duration) uint32 {
	switch {
	case m.claimAt > 0 && t >= m.claimAt:
		return m.w.backup
	case m.w.how == oddMoving && t >= m.moveDone:
		return m.w.moveTo
	}
	return m.w.home
}

func (m *rsim) alive(n uint32) bool {
	return n >= 1 && n <= m.w.nodes && (n != m.w.odd || m.w.how != oddDead)
}

func (m *rsim) workAt(n uint32) time.Duration {
	if n == m.w.odd && m.w.how == oddSlow {
		return m.w.work
	}
	return 0
}

func (m *rsim) forget() {
	m.lhome, m.hasHome, m.lrep, m.noGuess = 0, false, 0, true
}

func (m *rsim) learn(n uint32, replica bool) {
	switch {
	case replica:
		m.lrep = n
	case n != 2:
		m.lhome, m.hasHome = n, true
	default: // a home at the creator is what a lookup guesses
		m.lhome, m.hasHome, m.noGuess = 0, false, false
	}
}

// local is tryLocal at the invoker.
func (m *rsim) local(any bool) routeEvent {
	switch h := m.holder(m.now); {
	case h == 1:
		if !m.w.read {
			m.runs++
		}
		return routeEvent{kind: reServed}
	case any && m.w.replica == 1 && m.w.read:
		return routeEvent{kind: reServed}
	case any && m.w.replica == 1:
		return routeEvent{kind: reMoved, dest: h} // a replica bounces a non-read to the home
	}
	return routeEvent{kind: reAbsent}
}

// lookup is Locator.Lookup, or LookupAny.
func (m *rsim) lookup(wait time.Duration, any bool) routeEvent {
	if m.holder(m.now) == 1 || any && m.w.replica == 1 {
		return routeEvent{kind: reFound, loc: locator.Location{Node: 1, Replica: m.holder(m.now) != 1, Fresh: true}}
	}
	switch {
	case any && m.lrep != 0:
		return routeEvent{kind: reFound, loc: locator.Location{Node: m.lrep, Replica: true}}
	case m.hasHome:
		return routeEvent{kind: reFound, loc: locator.Location{Node: m.lhome}}
	case !m.noGuess:
		return routeEvent{kind: reFound, loc: locator.Location{Node: 2, Guess: true}}
	}
	return m.broadcast(wait, !any, false)
}

// broadcast runs the location protocol from the invoker: a wait of zero or
// less is the locate budget, as Locator.broadcast makes it. A live node
// answers if it serves the object, holds a replica (not for a home-only
// lookup) or, in a recovery, holds the checkpoint of an object no live
// node serves and claims it.
func (m *rsim) broadcast(wait time.Duration, wantHome, recover bool) routeEvent {
	if wait <= 0 {
		wait = m.w.locate
	}
	m.broadcasts++
	end := m.now + wait
	var best routeEvent
	bestAt := end + 1
	for n := uint32(2); n <= m.w.nodes; n++ {
		if !m.alive(n) {
			continue
		}
		m.frames++
		t := m.now + rlat
		at, replica := time.Duration(0), false
		switch h := m.holder(t); {
		case h == n:
			at = t + rlat
		case recover && n == m.w.backup && (h == 0 || !m.alive(h)):
			claim := time.Duration(0)
			if m.w.how == oddClaiming {
				claim = m.w.claim
			}
			m.claimAt = t + claim
			at = m.claimAt + rlat
		case !recover && !wantHome && n == m.w.replica:
			at, replica = t+rlat, true
		default:
			continue
		}
		m.frames++
		if at <= end {
			m.learn(n, replica)
			if (!replica || !wantHome) && at < bestAt {
				bestAt, best = at, routeEvent{kind: reFound, loc: locator.Location{Node: n, Replica: replica, Fresh: true}}
			}
		}
	}
	if bestAt <= end {
		m.now = bestAt
		return best
	}
	m.now = end
	return routeEvent{kind: reSilent}
}

// arrive is the request reaching node n at t, with serve to run in.
func (m *rsim) arrive(n uint32, t, serve time.Duration, any bool) {
	h := m.holder(t)
	switch {
	case h == n:
		sl := &m.slot[n]
		if !m.w.read && sl.used {
			if t >= sl.until { // answered from the table
				m.reply(t+rlat, sl.status, 0)
			} // else a duplicate of the running call: dropped, and its reply answers
			return
		}
		work := m.workAt(n)
		until, status := t+work, msg.StatusOK
		if work > serve {
			until, status = t+serve, msg.StatusTimeout
		}
		if !m.w.read {
			m.runs++
			sl.until, sl.status, sl.used = until, status, true
		}
		if m.w.how == oddMoving && n == m.w.odd && t+work > m.moveDone {
			m.moveDone = t + work // a move waits for the running call
		}
		m.reply(until+rlat, status, 0)
	case m.w.how == oddMoving && n == m.w.odd && t >= m.moveDone:
		m.reply(t+rlat, msg.StatusMoved, m.w.moveTo)
	case any && n == m.w.replica && m.w.read:
		m.reply(t+rlat, msg.StatusOK, 0)
	case any && n == m.w.replica:
		m.reply(t+rlat, msg.StatusMoved, h)
	default:
		m.reply(t+rlat, msg.StatusNoSuchObject, 0)
	}
}

func (m *rsim) reply(at time.Duration, status msg.Status, dest uint32) {
	m.frames++
	m.replies = append(m.replies, rreply{at, status, dest})
}

// probe sends the request to n under the invocation's corr and waits: the
// first reply to arrive for the corr answers it, whichever send it
// answers.
func (m *rsim) probe(n uint32, wait, serve time.Duration, any bool) routeEvent {
	end := m.now + wait
	if m.alive(n) {
		m.frames++
		m.arrive(n, m.now+rlat, serve, any)
	}
	first := -1
	for i, r := range m.replies {
		if r.at > m.now && r.at <= end && (first < 0 || r.at < m.replies[first].at) {
			first = i
		}
	}
	ev := routeEvent{kind: reAbsent}
	if first < 0 {
		m.now = end
	} else {
		r := m.replies[first]
		m.now, m.taken = r.at, r.status
		switch r.status {
		case msg.StatusMoved:
			ev = routeEvent{kind: reMoved, dest: r.dest}
		case msg.StatusNoSuchObject:
		default:
			ev = routeEvent{kind: reServed}
		}
	}
	kept := m.replies[:0] // a reply that arrives while nothing waits is lost
	for _, r := range m.replies {
		if r.at > m.now {
			kept = append(kept, r)
		}
	}
	m.replies = kept
	return ev
}

// rresult is how one invocation ended.
type rresult struct {
	err   error // nil: served
	tries int
}

// run carries out the policy's actions in the world until the invocation
// ends, and reports the first invariant broken ("" if none).
func (m *rsim) run() (rresult, string) {
	w := m.w
	m.moveDone = w.moveAt
	switch w.hint {
	case rhNoGuess:
		m.noGuess = true
	case rhStale:
		m.learn(w.stale, false)
	case rhRight:
		m.learn(w.home, false)
	}
	if w.replica != 0 {
		m.lrep = w.replica
	}
	var last msg.Status
	s := routeState{locate: w.locate, recover: w.dflt + w.locate, replica: w.any}
	a := s.try(w.timeout, false, 0)
	for {
		if len(m.steps) == 64 {
			return rresult{}, "the route does not end"
		}
		if a.forget || a.moved != 0 {
			m.forget()
		}
		if a.moved != 0 {
			m.learn(a.moved, false)
		}
		rest := w.timeout - m.now
		var ev routeEvent
		switch a.kind {
		case raLocal:
			ev, last = m.local(a.any), msg.StatusOK
		case raLookup:
			if a.wait <= 0 || a.wait > rest {
				return rresult{}, fmt.Sprintf("a lookup waits %v with %v left", a.wait, rest)
			}
			ev = m.lookup(a.wait, a.any)
		case raProbe:
			if a.wait <= 0 || a.wait > rest || a.serve > rest {
				return rresult{}, fmt.Sprintf("a probe waits %v and serves %v with %v left", a.wait, a.serve, rest)
			}
			ev = m.probe(a.node, a.wait, a.serve, a.any)
			last = m.taken
		case raRecover:
			m.forget()
			m.recovered, m.recoverAt = true, m.now
			if m.recoverWait = a.wait; a.wait <= 0 {
				m.recoverWait = w.locate
			}
			if a.wait <= 0 || m.recoverWait > rest {
				return rresult{}, fmt.Sprintf("a recovery waits %v with %v left", m.recoverWait, rest)
			}
			ev = m.broadcast(a.wait, true, true)
		case raReply:
			res := rresult{tries: s.tries}
			if res.err = errFromStatus(last, nil); res.err == nil && last != msg.StatusOK {
				res.err = errors.New("unexpected status")
			}
			return res, m.ended(res)
		case raFail:
			res := rresult{err: a.err, tries: s.tries}
			return res, m.ended(res)
		}
		if ev.kind != reServed {
			ev.rest = w.timeout - m.now
		}
		m.steps = append(m.steps, rstep{m.now, a, ev})
		a = routeStep(&s, ev)
	}
}

// ended checks the invariants on an invocation's outcome.
func (m *rsim) ended(res rresult) string {
	w := m.w
	if !w.read && m.runs > 1 {
		return fmt.Sprintf("a non-read ran %d times", m.runs)
	}
	served := w.home != 0 && !(w.odd == w.home && (w.how == oddDead || w.how == oddMoving))
	if served && res.err != nil && w.timeout/2 >= w.locate/2+m.workAt(w.home)+8*rlat {
		return fmt.Sprintf("the invocation failed: %v", res.err)
	}
	if errors.Is(res.err, ErrNoSuchObject) && (!m.recovered || m.recoverWait < w.dflt+w.locate && m.recoverAt+m.recoverWait < w.timeout) {
		return fmt.Sprintf("no such object, after a recovery awaited %v (at %v)", m.recoverWait, m.recoverAt)
	}
	if errors.Is(res.err, ErrTimeout) && m.now < w.timeout {
		return fmt.Sprintf("timed out at %v", m.now)
	}
	if bound := res.tries*(2+2*int(w.nodes-1)) + 2*int(w.nodes-1); m.frames > bound {
		return fmt.Sprintf("%d frames in %d tries", m.frames, res.tries)
	}
	return ""
}

func (m *rsim) trace() string {
	var b strings.Builder
	for _, st := range m.steps {
		fmt.Fprintf(&b, "\n  %v: %s -> %s", st.at, fmtAction(st.a), fmtEvent(st.ev))
	}
	return b.String()
}

func fmtAction(a routeAction) string {
	s := [...]string{"local", "lookup", "probe", "recover", "reply", "fail"}[a.kind]
	switch a.kind {
	case raLookup, raRecover:
		s += fmt.Sprintf(" wait %v", a.wait)
	case raProbe:
		s += fmt.Sprintf(" %d wait %v serve %v", a.node, a.wait, a.serve)
	}
	if a.any {
		s += " any"
	}
	if a.forget {
		s = "forget, " + s
	}
	if a.moved != 0 {
		s = fmt.Sprintf("moved to %d, %s", a.moved, s)
	}
	return s
}

func fmtEvent(ev routeEvent) string {
	s := [...]string{"served", "moved", "absent", "found", "silent"}[ev.kind]
	switch ev.kind {
	case reMoved:
		s += fmt.Sprintf(" to %d", ev.dest)
	case reFound:
		s += fmt.Sprintf(" %+v", ev.loc)
	}
	return s
}

// routeWorlds calls f with every world of the checker's scope.
func routeWorlds(f func(rworld)) {
	budgets := [][2]time.Duration{
		{250 * time.Millisecond, 750 * time.Millisecond}, // the kernel tests' locate budget and DefaultTimeout
		{2 * time.Second, 750 * time.Millisecond},
		{2 * time.Second, 5 * time.Second}, // the defaults
	}
	for _, b := range budgets {
		L, D := b[0], b[1]
		timeouts := []time.Duration{rlat, 2 * rlat, L / 2, L, D, 3 * time.Second, D + 2*L}
		for i, T := range timeouts {
			if slices.Contains(timeouts[:i], T) {
				continue
			}
			for nodes := uint32(2); nodes <= 3; nodes++ {
				for _, read := range []bool{false, true} {
					for _, any := range []bool{false, true} {
						w := rworld{locate: L, dflt: D, timeout: T, nodes: nodes, read: read, any: any}
						worldPlaces(w, f)
					}
				}
			}
		}
	}
}

// worldPlaces varies where the object, its checkpoint and its replica are.
func worldPlaces(w rworld, f func(rworld)) {
	for w.home = 0; w.home <= w.nodes; w.home++ {
		for w.backup = 0; w.backup <= w.nodes; w.backup++ {
			if w.backup == 1 || w.backup != 0 && w.backup == w.home {
				continue
			}
			for _, rep := range []uint32{0, 1, 3} {
				if rep > w.nodes || rep != 0 && (w.home == 0 || rep == w.home || rep == w.backup) {
					continue
				}
				w.replica = rep
				worldOdds(w, f)
			}
		}
	}
}

// worldOdds varies the odd node and what the invoker's locator knows.
func worldOdds(w rworld, f func(rworld)) {
	type odd struct {
		how                 rodd
		work, claim, moveAt time.Duration
		moveTo              uint32
	}
	odds := []odd{{how: oddDead}}
	for _, work := range []time.Duration{rlat, w.locate/2 - rlat, w.locate/2 + rlat, w.locate, 1200 * time.Millisecond} {
		odds = append(odds, odd{how: oddSlow, work: work})
	}
	for _, to := range []uint32{1, 2, 3} {
		for _, at := range []time.Duration{0, rlat, 2 * rlat, 3 * rlat, w.locate / 2, w.locate} {
			odds = append(odds, odd{how: oddMoving, moveTo: to, moveAt: at})
		}
	}
	for _, c := range []time.Duration{0, rlat, w.dflt / 2, w.dflt - 2*rlat, w.dflt} {
		odds = append(odds, odd{how: oddClaiming, claim: c})
	}
	hints := func(w rworld) {
		for w.hint = rhNothing; w.hint <= rhRight; w.hint++ {
			switch {
			case w.hint == rhRight && (w.home == 0 || w.home == 2):
			case w.hint == rhStale:
				for w.stale = 2; w.stale <= w.nodes; w.stale++ {
					if w.stale != w.home {
						f(w)
					}
				}
			default:
				f(w)
			}
		}
	}
	hints(w)
	for w.odd = 2; w.odd <= w.nodes; w.odd++ {
		for _, o := range odds {
			w.how, w.work, w.claim, w.moveAt, w.moveTo = o.how, o.work, o.claim, o.moveAt, o.moveTo
			switch {
			case o.how == oddMoving && (w.home != w.odd || o.moveTo == w.odd || o.moveTo > w.nodes || o.moveTo == w.replica || o.moveTo == w.backup):
			case o.how == oddClaiming && (w.home != 0 || w.backup != w.odd):
			default:
				hints(w)
			}
		}
	}
}

// checkRoutes runs every world and returns the first broken invariant, with
// the world and the trace, and how many worlds and steps it took.
func checkRoutes() (found string, worlds, steps int) {
	routeWorlds(func(w rworld) {
		if found != "" {
			return
		}
		m := rsim{w: w}
		_, bad := m.run()
		worlds++
		steps += len(m.steps)
		if bad != "" {
			found = fmt.Sprintf("%s, depth %d\nworld: %v%s", bad, len(m.steps), w, m.trace())
		}
	})
	return found, worlds, steps
}

func TestRoutePolicy(t *testing.T) {
	start := time.Now()
	found, worlds, steps := checkRoutes()
	if found != "" {
		t.Fatalf("after %d worlds, %d steps: %s", worlds, steps, found)
	}
	t.Logf("%d worlds, %d steps checked in %v", worlds, steps, time.Since(start).Round(time.Millisecond))
}

// TestRoutePolicySlowGuess pins what a right guess at an operation slower
// than the guess's wait costs: the invoker stops waiting at half the
// locate budget, forgets the guess, broadcasts, and sends the request
// again under the same corr, which the creator drops while the first
// execution runs; that execution's reply answers. Five frames and a
// broadcast, where the request and its reply would do.
func TestRoutePolicySlowGuess(t *testing.T) {
	w := rworld{locate: 250 * time.Millisecond, dflt: 750 * time.Millisecond, timeout: 750 * time.Millisecond,
		nodes: 2, home: 2, odd: 2, how: oddSlow, work: 200 * time.Millisecond}
	m := rsim{w: w}
	res, bad := m.run()
	if bad != "" || res.err != nil {
		t.Fatalf("%s %v%s", bad, res.err, m.trace())
	}
	var probes []routeAction
	for _, st := range m.steps {
		if st.a.kind == raProbe {
			probes = append(probes, st.a)
		}
	}
	if len(probes) != 2 || probes[0].wait != w.locate/2 || probes[1].node != 2 || m.frames != 5 || m.broadcasts != 1 || m.runs != 1 {
		t.Fatalf("%d frames, %d broadcasts, %d runs, probes %v; want a guess waited for %v, one broadcast and a retransmission to node 2: 5 frames, one run%s",
			m.frames, m.broadcasts, m.runs, probes, w.locate/2, m.trace())
	}
	t.Logf("%d frames, %d broadcast:%s", m.frames, m.broadcasts, m.trace())
}

// TestRouteFailureReasons drives routeStep to each way a route fails, and
// checks the reason and the sentinel it wraps.
func TestRouteFailureReasons(t *testing.T) {
	for _, c := range []struct {
		name     string
		events   []routeEvent
		want     error
		sentinel error
	}{
		{"deadline", []routeEvent{{kind: reAbsent, rest: time.Second}, {kind: reFound, loc: locator.Location{Node: 2, Guess: true}, rest: time.Second},
			{kind: reAbsent}}, errRouteDeadline, ErrTimeout},
		{"no answer", []routeEvent{{kind: reAbsent, rest: time.Second}, {kind: reSilent, rest: time.Second},
			{kind: reFound, loc: locator.Location{Node: 3, Fresh: true}, rest: time.Second}, {kind: reAbsent, rest: time.Second},
			{kind: reAbsent, rest: time.Second}, {kind: reSilent, rest: time.Second}}, errRouteNoAnswer, ErrNoSuchObject},
		{"recovery unanswered", []routeEvent{{kind: reAbsent, rest: time.Second}, {kind: reSilent, rest: time.Second},
			{kind: reSilent, rest: time.Second}}, errRouteUnrecovered, ErrNoSuchObject},
		{"hops", make([]routeEvent, maxHops), errRouteHops, ErrNoSuchObject}, // filled with bounces below
		{"bounced", []routeEvent{{kind: reMoved}}, errRouteBounced, ErrNoSuchObject},
	} {
		s := routeState{locate: time.Second, recover: 3 * time.Second}
		a := s.try(time.Second, false, 0)
		for i, ev := range c.events {
			if c.want == errRouteHops {
				ev = routeEvent{kind: reMoved, dest: uint32(2 + i%2), rest: time.Second}
			}
			a = routeStep(&s, ev)
		}
		if a.kind != raFail || a.err != c.want || !errors.Is(a.err, c.sentinel) {
			t.Errorf("%s: action %s (%v), want a failure wrapping %v", c.name, fmtAction(a), a.err, c.sentinel)
		}
	}
}
