// Package locator implements Eden's location-independent addressing:
// the machinery by which a kernel, "when called upon to perform an
// invocation, [determines] the node on which the target object resides
// and [forwards] the invocation message to that object".
//
// An object's name "may indicate where the object was created", and
// most objects never leave the node that created them. So the first
// guess for a name nothing is known about is its creating node: Lookup
// answers it without a frame, marked Guess, and the invoker sends the
// invocation straight there. A creator that forwarded the object
// bounces the call to its new home; one that holds nothing says so, and
// only then does the invoker ask the locator again, which now runs the
// broadcast location protocol: a LocateReq goes to all nodes, and every
// node hosting the object (or a replica) answers. The name is a guess,
// never an authority.
//
// Each node's Locator therefore caches only the exceptions: the node
// believed to host an object that lives away from its creator, the set
// of nodes holding frozen replicas, and the objects for which the guess
// proved wrong and is ruled out. Hints are learned from broadcast
// answers, move notifications and forwarding bounces, and invalidated
// when they prove wrong, so the cache self-repairs under object
// mobility.
package locator

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/edenid"
	"eden/internal/msg"
)

// Errors reported by the locator.
var (
	// ErrNotFound reports that no node answered a location broadcast
	// within the timeout.
	ErrNotFound = errors.New("locator: object not found on any node")
	// ErrClosed reports use of a closed locator.
	ErrClosed = errors.New("locator: closed")
)

// HostCheck answers, for the local node, whether it hosts the object.
// home is true when this node is the object's unique active/passive
// home; replica is true when it caches a frozen replica. When recover
// is true the caller is running the failure-recovery protocol: a node
// holding only a checkpoint backup (a remote checksite) should then
// claim the object as home so it can be reincarnated there.
type HostCheck func(id edenid.ID, recover bool) (home, replica bool)

// SendFunc transmits one frame; the kernel supplies its transport's
// Send, which borrows env.Payload only until it returns.
type SendFunc func(env msg.Envelope) error

// Stats counts locator activity. The owning kernel's telemetry registry
// reads it under the names in the tags.
type Stats struct {
	// Hits counts lookups satisfied from the hint cache.
	Hits int64 `metric:"locator.hits"`
	// Guesses counts lookups answered with the object's creating node
	// because nothing was cached.
	Guesses int64 `metric:"locator.guesses"`
	// Misses counts lookups that had to broadcast.
	Misses int64 `metric:"locator.misses"`
	// Broadcasts counts LocateReq frames sent.
	Broadcasts int64 `metric:"locator.broadcasts"`
	// Invalidations counts hints discarded as wrong.
	Invalidations int64 `metric:"locator.invalidations"`
}

// Location is a resolved object position.
type Location struct {
	// Node hosts the object.
	Node uint32
	// Replica is true when Node holds a frozen replica rather than
	// the object's home.
	Replica bool
	// Fresh is true when the position was just confirmed by the node
	// itself (a broadcast answer or the local host check), false when
	// it came from the hint cache and may be stale.
	Fresh bool
	// Guess is true when nothing was cached and Node is the creating
	// node named in the object's ID: unconfirmed, and the caller reports
	// a wrong guess with Forget.
	Guess bool
}

// hintEntry is what is known about one object beyond its name. An
// object at its creating node has no entry unless it has replicas.
type hintEntry struct {
	home     uint32
	hasHome  bool
	noGuess  bool // a guess at the creator proved wrong, or some later hint did
	replicas map[uint32]bool
}

type waiter struct {
	ch       chan msg.LocateRep
	object   edenid.ID
	wantHome bool
}

// Locator is one node's location service. Create with New; the owning
// kernel must route inbound KindLocateReq/KindLocateRep frames to
// HandleRequest/HandleReply.
type Locator struct {
	node  uint32
	send  SendFunc
	check HostCheck

	mu      sync.Mutex
	hints   map[edenid.ID]*hintEntry
	waiters map[uint64]*waiter
	corr    uint64
	closed  bool

	hits          atomic.Int64
	guesses       atomic.Int64
	misses        atomic.Int64
	broadcasts    atomic.Int64
	invalidations atomic.Int64

	// DefaultTimeout bounds a broadcast lookup when the caller passes
	// no timeout.
	DefaultTimeout time.Duration

	rng *rand.Rand
}

// New returns a Locator for the given node. send transmits frames;
// check answers whether the local node hosts an object.
func New(node uint32, send SendFunc, check HostCheck) *Locator {
	return &Locator{
		node:           node,
		send:           send,
		check:          check,
		hints:          make(map[edenid.ID]*hintEntry),
		waiters:        make(map[uint64]*waiter),
		DefaultTimeout: 2 * time.Second,
		rng:            rand.New(rand.NewSource(int64(node)*7919 + 17)),
	}
}

// Stats returns cumulative counters.
func (l *Locator) Stats() Stats {
	return Stats{
		Hits:          l.hits.Load(),
		Guesses:       l.guesses.Load(),
		Misses:        l.misses.Load(),
		Broadcasts:    l.broadcasts.Load(),
		Invalidations: l.invalidations.Load(),
	}
}

// Learn installs a location hint. Replica hints accumulate; home
// hints replace the previous home. A home at the creating node or on this
// node is what a lookup answers anyway: learning one stores nothing, and
// discards the cached home and the mark that ruled the guess out.
func (l *Locator) Learn(id edenid.ID, node uint32, replica bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if replica {
		e := l.entry(id)
		if e.replicas == nil {
			e.replicas = make(map[uint32]bool)
		}
		e.replicas[node] = true
		return
	}
	l.setHome(id, node)
}

// entry returns the object's hint entry, making an empty one if there
// is none. Caller holds l.mu.
func (l *Locator) entry(id edenid.ID) *hintEntry {
	e := l.hints[id]
	if e == nil {
		e = &hintEntry{}
		l.hints[id] = e
	}
	return e
}

// setHome records the object's home: as a hint when it is away from its
// creator, as the absence of one when it is at its creator or on this
// node, whose lookups ask the local host check first. Caller holds l.mu.
func (l *Locator) setHome(id edenid.ID, home uint32) {
	if home != id.Node() && home != l.node {
		e := l.entry(id)
		e.home, e.hasHome = home, true
		return
	}
	e := l.hints[id]
	if e == nil {
		return
	}
	e.home, e.hasHome, e.noGuess = 0, false, false
	if len(e.replicas) == 0 {
		delete(l.hints, id)
	}
}

// Forget discards what a lookup of the object would answer, after it
// proved wrong or the object was destroyed: the cached home and replicas,
// and the guess at its creating node. The guess stays ruled out until a
// hint places the object at its creator again (Learn), so one invocation
// never tries a wrong guess twice.
func (l *Locator) Forget(id edenid.ID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.hints[id]; e != nil && (e.hasHome || len(e.replicas) > 0) {
		l.invalidations.Add(1)
	}
	if id.Node() == l.node {
		delete(l.hints, id) // never guessed
		return
	}
	l.hints[id] = &hintEntry{noGuess: true}
}

// SetReplicas replaces the object's replica hint set wholesale and
// installs the home hint. Invalidation frames carry the authoritative
// checksite list, so merging (Learn) would resurrect retired sites;
// replacement is what keeps a move from leaving the old home's
// checksites in the cache — the dual-home hazard.
func (l *Locator) SetReplicas(id edenid.ID, home uint32, sites []uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(id)
	if len(e.replicas) > 0 {
		e.replicas = nil
		l.invalidations.Add(1)
	}
	for _, s := range sites {
		if s != home {
			if e.replicas == nil {
				e.replicas = make(map[uint32]bool, len(sites))
			}
			e.replicas[s] = true
		}
	}
	l.setHome(id, home)
}

// cached returns what the hint cache says. When wantHome is true only the
// home qualifies; otherwise a replica (preferring the local node, then a
// random replica) is acceptable, and the home serves as fallback. With
// no home cached and the guess not ruled out, the answer is the creating
// node — unless that is this node, which the local host check already
// asked.
func (l *Locator) cached(id edenid.ID, wantHome bool) (Location, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.hints[id]
	if e != nil && !wantHome {
		if e.replicas[l.node] {
			return Location{Node: l.node, Replica: true}, true
		}
		if len(e.replicas) > 0 {
			// Random choice spreads read load across replica sites.
			k := l.rng.Intn(len(e.replicas))
			for n := range e.replicas {
				if k == 0 {
					return Location{Node: n, Replica: true}, true
				}
				k--
			}
		}
	}
	switch {
	case e != nil && e.hasHome:
		return Location{Node: e.home}, true
	case e != nil && e.noGuess, id.Node() == l.node:
		return Location{}, false
	}
	return Location{Node: id.Node(), Guess: true}, true
}

// Lookup resolves the object's home node, consulting the hint cache,
// then guessing the creating node, and falling back to the broadcast
// protocol once the guess is ruled out. A zero timeout uses
// DefaultTimeout.
func (l *Locator) Lookup(id edenid.ID, timeout time.Duration) (Location, error) {
	return l.lookup(id, true, false, timeout)
}

// Recover runs the failure-recovery location protocol: it bypasses the
// hint cache and asks every node — including nodes holding only a
// checkpoint backup — to claim the object, so that after its home node
// fails the object can reincarnate at a checksite.
func (l *Locator) Recover(id edenid.ID, timeout time.Duration) (Location, error) {
	l.Forget(id)
	// The recovering node may itself hold the checkpoint backup; a
	// broadcast never loops back, so ask locally first (this also
	// promotes the local backup to home).
	if home, _ := l.check(id, true); home {
		return Location{Node: l.node, Fresh: true}, nil
	}
	return l.broadcast(id, true, true, timeout)
}

// LookupAny resolves any node able to serve the object — its home or a
// frozen replica. Read-only invocation paths use this to exploit
// cached replicas.
func (l *Locator) LookupAny(id edenid.ID, timeout time.Duration) (Location, error) {
	return l.lookup(id, false, false, timeout)
}

func (l *Locator) lookup(id edenid.ID, wantHome, recover bool, timeout time.Duration) (Location, error) {
	// The local node answers for itself without touching the cache.
	if home, replica := l.check(id, recover); home || (replica && !wantHome) {
		return Location{Node: l.node, Replica: !home, Fresh: true}, nil
	}
	if loc, ok := l.cached(id, wantHome); ok {
		if loc.Guess {
			l.guesses.Add(1)
		} else {
			l.hits.Add(1)
		}
		return loc, nil
	}
	l.misses.Add(1)
	return l.broadcast(id, wantHome, recover, timeout)
}

// sendBody transmits one frame whose payload is in a pooled buffer, and
// frees the buffer: the transport borrows a payload only until its Send
// returns.
func (l *Locator) sendBody(env msg.Envelope, payload *msg.Buffer) error {
	env.Payload = payload.B
	err := l.send(env)
	payload.Free()
	return err
}

// broadcast runs the location protocol for one object.
func (l *Locator) broadcast(id edenid.ID, wantHome, recover bool, timeout time.Duration) (Location, error) {
	if timeout <= 0 {
		timeout = l.DefaultTimeout
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Location{}, ErrClosed
	}
	l.corr++
	corr := l.corr
	w := &waiter{ch: make(chan msg.LocateRep, 8), object: id, wantHome: wantHome}
	l.waiters[corr] = w
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.waiters, corr)
		l.mu.Unlock()
	}()

	l.broadcasts.Add(1)
	err := l.sendBody(msg.Envelope{Kind: msg.KindLocateReq, To: msg.Broadcast, Corr: corr},
		msg.Encode(msg.LocateReq{Object: id, Recover: recover}))
	if err != nil {
		return Location{}, fmt.Errorf("locator: broadcast: %w", err)
	}

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case rep := <-w.ch:
			if rep.Object != id {
				continue
			}
			l.Learn(id, rep.Node, rep.Replica)
			if wantHome && rep.Replica {
				// A replica cannot serve a home-only lookup; the hint
				// is cached, keep waiting for the home to answer.
				continue
			}
			return Location{Node: rep.Node, Replica: rep.Replica, Fresh: true}, nil
		case <-deadline.C:
			return Location{}, fmt.Errorf("%w: %v", ErrNotFound, id)
		}
	}
}

// HandleRequest processes an inbound LocateReq: if the local node
// hosts the object (or a replica), it answers the requester directly. A
// recovery request is answered from a goroutine of its own, because the
// check may claim the object, which waits for other nodes' answers — and
// those arrive through the caller's frame handler.
func (l *Locator) HandleRequest(env msg.Envelope) {
	req, err := msg.DecodeLocateReq(env.Payload)
	if err != nil {
		return
	}
	if req.Recover {
		go l.answer(env, req)
		return
	}
	l.answer(env, req)
}

// answer answers one locate request if the local node can serve it.
func (l *Locator) answer(env msg.Envelope, req msg.LocateReq) {
	home, replica := l.check(req.Object, req.Recover)
	if !home && !replica {
		return
	}
	rep := msg.LocateRep{Object: req.Object, Node: l.node, Replica: !home}
	_ = l.sendBody(msg.Envelope{Kind: msg.KindLocateRep, To: env.From, Corr: env.Corr}, msg.Encode(rep))
}

// HandleReply processes an inbound LocateRep, delivering it to the
// waiting lookup (and caching the hint regardless, so even late
// replies improve the cache).
func (l *Locator) HandleReply(env msg.Envelope) {
	rep, err := msg.DecodeLocateRep(env.Payload)
	if err != nil {
		return
	}
	l.Learn(rep.Object, rep.Node, rep.Replica)
	l.mu.Lock()
	w := l.waiters[env.Corr]
	l.mu.Unlock()
	if w == nil || w.object != rep.Object {
		return
	}
	select {
	case w.ch <- rep:
	default: // waiter's buffer full; hint already cached
	}
}

// Close fails all pending lookups and rejects new ones.
func (l *Locator) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}
