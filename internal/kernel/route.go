package kernel

import (
	"fmt"
	"time"

	"eden/internal/locator"
)

// The route policy (DESIGN §5, "Routing: one pure policy"): routeStep moves
// the route's state past the answer to the last action and returns the next
// action, and touches nothing else: no kernel, locator, transport or clock.
// Kernel.invoke carries the actions out, and TestRoutePolicy checks the
// rules.

// routeState is one invocation's route.
type routeState struct {
	locate, recover time.Duration // the budgets of a lookup and of a recovery
	spent, lookup   time.Duration // what wrong guesses took of locate; the last lookup's budget
	sentAt          time.Duration // the rest when the probe went out
	tries           int           // local tries: the first, then one per chase or retry
	await           routeKind     // the action answered next
	replica         bool          // a replica will do, until a bounce
	guess           bool          // the probe is a guess at the creator
	recovered       bool          // the one recovery has run
}

// routeKind names an action.
type routeKind uint8

const (
	raLocal   routeKind = iota // serve it here, if it is here
	raLookup                   // look up its home, or with any, a replica too
	raProbe                    // send the request to node
	raRecover                  // run failure recovery
	raReply                    // the reply is the answer
	raFail                     // fail with err
)

// routeAction is one action. Before it, the locator forgets the object's
// hints (forget), or learns that it moved to moved.
type routeAction struct {
	kind        routeKind
	forget, any bool
	moved, node uint32
	wait, serve time.Duration // how long to await the answer; how long a probed node may take
	err         error
}

// routeEvent answers the last action, with rest of the invocation's time
// left; a served answer need not carry it.
type routeEvent struct {
	kind routeEventKind
	dest uint32 // reMoved: the new home, 0 if the bounce named none
	loc  locator.Location
	rest time.Duration
}

type routeEventKind uint8

const (
	reServed routeEventKind = iota // the object served the call, here or at the probed node
	reMoved                        // a bounce
	reAbsent                       // not here; the probe met no such object, a timeout or a send error
	reFound                        // a lookup or a recovery answered loc
	reSilent                       // a lookup or a recovery went unanswered
)

// Why a route fails.
var (
	errRouteDeadline    = fmt.Errorf("%w: the deadline passed while routing", ErrTimeout)
	errRouteNoAnswer    = fmt.Errorf("%w: no node answered the lookup", ErrNoSuchObject)
	errRouteUnrecovered = fmt.Errorf("%w: the recovery went unanswered or was refused", ErrNoSuchObject)
	errRouteHops        = fmt.Errorf("%w: forwarding chain exceeded %d hops", ErrNoSuchObject, maxHops)
	errRouteBounced     = fmt.Errorf("%w: bounced with no destination", ErrNoSuchObject)
)

// routeStep is the policy: it moves s past ev, and returns the next action.
// A served answer ends the route; it is the common case, and small enough
// to inline.
func routeStep(s *routeState, ev routeEvent) routeAction {
	if ev.kind == reServed {
		return routeAction{kind: raReply}
	}
	return s.step(ev)
}

func (s *routeState) step(ev routeEvent) routeAction {
	rest := ev.rest
	switch {
	case ev.kind == reMoved && ev.dest == 0:
		return routeAction{kind: raFail, err: errRouteBounced}
	case ev.kind == reMoved:
		s.replica = false // the bounce directs the call at the home
		return s.try(rest, false, ev.dest)
	case s.await == raLocal:
		if s.lookup = min(rest, s.locate-s.spent); s.lookup <= 0 {
			return s.unanswered(rest)
		}
		s.await = raLookup
		return routeAction{kind: raLookup, wait: s.lookup, any: s.replica}
	case s.await == raProbe:
		if s.guess {
			s.spent += s.sentAt - rest
		}
		return s.try(rest, true, 0)
	case s.await == raRecover && ev.kind == reFound:
		return s.try(rest, false, 0) // the locator learned where
	case s.await == raRecover:
		return routeAction{kind: raFail, err: errRouteUnrecovered}
	case ev.kind == reFound:
		return s.probe(rest, ev.loc)
	}
	return s.unanswered(rest)
}

// try tries the object here, first or again, unless the deadline has passed
// or the chase is too long; the locator first forgets the object, or learns
// it moved.
func (s *routeState) try(rest time.Duration, forget bool, moved uint32) routeAction {
	a := routeAction{forget: forget, moved: moved}
	switch s.tries++; {
	case rest <= 0:
		a.kind, a.err = raFail, errRouteDeadline
	case s.tries > maxHops:
		a.kind, a.err = raFail, errRouteHops
	default:
		a.kind, a.any, s.await = raLocal, s.replica, raLocal
	}
	return a
}

// unanswered follows a lookup nobody answered: recovery, once.
func (s *routeState) unanswered(rest time.Duration) routeAction {
	switch {
	case s.recovered:
		return routeAction{kind: raFail, err: errRouteNoAnswer}
	case rest <= 0:
		return routeAction{kind: raFail, err: errRouteDeadline}
	}
	s.recovered, s.await = true, raRecover
	return routeAction{kind: raRecover, wait: min(rest, s.recover)}
}

// probe sends the request where the lookup pointed. A probe with no time
// to wait is not sent, and fails as if it were.
func (s *routeState) probe(rest time.Duration, loc locator.Location) routeAction {
	if rest <= 0 {
		return routeAction{kind: raFail, err: errRouteDeadline}
	}
	a := routeAction{kind: raProbe, node: loc.Node, wait: rest, serve: rest, any: s.replica}
	switch {
	case loc.Guess:
		a.wait = min(rest, s.lookup/2)
	case !loc.Fresh:
		a.wait = min(rest/2, time.Second)
	}
	s.await, s.guess, s.sentAt = raProbe, loc.Guess, rest
	if a.wait <= 0 {
		return s.step(routeEvent{kind: reAbsent, rest: rest})
	}
	return a
}
