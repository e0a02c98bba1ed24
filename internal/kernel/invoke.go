package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"eden/internal/capability"
	"eden/internal/locator"
	"eden/internal/msg"
	"eden/internal/rights"
)

// Reply is the outcome of an invocation: "the object executes the
// request and responds with status and return parameters".
type Reply struct {
	// Data carries the data results. From another node they are the bytes
	// inside the frame the reply arrived in, which nothing else refers to.
	// From a local call they are the very slice the handler gave Return —
	// the invoker's own request bytes, if the handler returned Call.Data.
	Data []byte
	// Caps carries the capability results.
	Caps capability.List
}

// InvokeOptions tunes one invocation.
type InvokeOptions struct {
	// Timeout is the user-supplied time limit; zero uses the node
	// default. "The invocation request may also contain a
	// user-supplied timeout."
	Timeout time.Duration
	// AllowReplica permits serving the invocation from a cached
	// frozen replica. Only read-only operations succeed there; a
	// replica bounces anything else to the home node transparently.
	AllowReplica bool
}

// maxHops bounds forwarding chases after moves.
const maxHops = 8

// statusPassive is a reply that never leaves the kernel: the incarnation
// the call was submitted to was passivated before the call ran, so its
// state is in the local record and the call belongs on whatever
// resolution finds now. tryLocal consumes it.
const statusPassive msg.Status = 0xff

// maxReresolve bounds how often one tryLocal goes back to resolution
// after meeting a passivated incarnation.
const maxReresolve = 2

// statusDuplicate never leaves the kernel either: the request retransmits
// a call still executing here and is dropped by serveInvoke — that
// execution's reply carries the same (From, Corr) and satisfies whichever
// of the invoker's attempts is waiting.
const statusDuplicate msg.Status = 0xfe

// servedCacheSize is the at-most-once window: how many of the most
// recent state-changing remote invocations a node remembers.
const servedCacheSize = 4096

// servedKey identifies one logical remote invocation.
type servedKey struct {
	from uint32
	corr uint64
}

// servedTable makes remote execution at-most-once where that means
// something. A call to an operation not declared ReadOnly takes a slot
// before it is queued; its retransmission (an attempt timed out, a reply
// was lost) is dropped while that execution runs and answered with its
// reply afterwards. A ReadOnly operation cannot change state (DESIGN §6)
// and any replica may serve it (§7), so it may run twice: it takes no
// slot and its reply is retained nowhere. Slots are values in a ring:
// call n occupies ring[n%servedCacheSize] and evicts what was there. idx
// holds exactly the occupied slots' keys — a freed slot is zeroed — so
// an eviction removes the one entry its slot wrote.
type servedTable struct {
	mu   sync.Mutex
	n    uint64               // calls admitted so far
	idx  map[servedKey]uint64 // logical invocation -> the n of its slot
	ring []servedSlot         // made by the first call that needs it
}

type servedSlot struct {
	n   uint64 // the call occupying the slot; 0 when free
	key servedKey
	rep msg.InvokeRep // the outcome to replay; statusDuplicate until there is one
}

// begin admits one call. n != 0: first sight of it — execute, then end(n).
// n == 0: a retransmission, and rep is its answer.
func (t *servedTable) begin(key servedKey) (n uint64, rep msg.InvokeRep) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, dup := t.idx[key]; dup {
		return 0, t.ring[n%servedCacheSize].rep
	}
	if t.ring == nil {
		t.ring = make([]servedSlot, servedCacheSize)
	}
	t.n++
	s := &t.ring[t.n%servedCacheSize]
	if s.n != 0 {
		delete(t.idx, s.key)
	}
	*s = servedSlot{n: t.n, key: key, rep: msg.InvokeRep{Status: statusDuplicate}}
	t.idx[key] = t.n
	return t.n, msg.InvokeRep{}
}

// end settles call n with its outcome. A call that met a moved or
// passivated incarnation never ran: its slot is freed, so that the retry
// — which may find the object elsewhere by then — is not answered here.
// The slot keeps a copy of reply data that sits in a much larger array —
// a handler that returned a few bytes of its request would otherwise
// pin the whole receive frame for as long as the slot lives.
func (t *servedTable) end(n uint64, rep msg.InvokeRep) {
	if cap(rep.Data) > 2*len(rep.Data)+64 {
		rep.Data = bytes.Clone(rep.Data)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.ring[n%servedCacheSize]
	switch {
	case s.n != n: // the ring came round while the call ran
	case rep.Status == msg.StatusMoved || rep.Status == statusPassive:
		delete(t.idx, s.key)
		*s = servedSlot{}
	default:
		s.rep = rep
	}
}

// Invoke performs a synchronous invocation: "parameters are passed and
// the caller's thread of control is suspended pending completion".
// The kernel locates the target — local fast path, hint cache,
// broadcast, or failure recovery from a checkpoint backup — and
// forwards the request.
func (k *Kernel) Invoke(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions) (Reply, error) {
	if target.IsNull() {
		return Reply{}, fmt.Errorf("%w: null capability", ErrNoSuchObject)
	}
	if !target.Has(rights.Invoke) {
		return Reply{}, fmt.Errorf("%w: capability lacks invoke right", ErrRights)
	}
	var o InvokeOptions
	if opts != nil {
		o = *opts
	}
	if o.Timeout <= 0 {
		o.Timeout = k.cfg.DefaultTimeout
	}
	deadline := time.Now().Add(o.Timeout)

	req := msg.InvokeReq{
		Target:       target,
		Operation:    operation,
		Data:         data,
		Caps:         caps,
		TimeoutNanos: int64(o.Timeout),
	}
	// One trace id per user-level invocation; it rides the envelope so
	// the serving node's span joins this one. With telemetry disabled
	// the id is 0, the span inert, and nothing below allocates for it.
	trace := k.tel.reg.NextTraceID(k.cfg.Node)
	sp := k.tel.reg.StartSpan("invoke", trace, k.cfg.Node)
	rep, err := k.invoke(req, o.AllowReplica, deadline, trace)
	sp.End(spanStatus(err))
	if err != nil && errors.Is(err, ErrTimeout) {
		k.tel.timeouts.Inc()
	}
	return rep, err
}

// invoke routes one invocation, chasing moves and falling back to
// recovery, until the deadline. One correlation id is allocated per
// *logical* invocation and reused across retransmissions, so the
// serving kernel can deduplicate re-executions.
func (k *Kernel) invoke(req msg.InvokeReq, allowReplica bool, deadline time.Time, trace uint64) (Reply, error) {
	id := req.Target.ID()
	corr := k.corr.Add(1)
	start := k.tel.now() // zero (no clock read) when telemetry is off
	triedRecovery := false
	// guessSpent is what a wrong guess at the object's creating node took
	// out of the locate budget: the broadcast after it gets the rest, so a
	// dead creator delays failure recovery by nothing.
	var guessSpent time.Duration
	for hop := 0; hop < maxHops; hop++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return Reply{}, ErrTimeout
		}

		// Local fast path: the target is (or can become) active here.
		if rep, served, err := k.tryLocal(req, allowReplica, nil, deadline); served {
			if err != nil {
				return Reply{}, err
			}
			if rep.Status == msg.StatusMoved {
				if dest, ok := movedDest(rep); ok {
					k.loc.Forget(id)
					k.loc.Learn(id, dest, false)
					k.stChases.Add(1)
					allowReplica = false
					continue
				}
				return Reply{}, ErrNoSuchObject
			}
			k.tel.localLat.ObserveSince(start)
			return replyFrom(rep)
		}

		// Locate the target elsewhere. Location answers arrive within
		// a round trip, so the broadcast wait is bounded separately
		// from the invocation budget.
		ltimeout := min(remaining, k.loc.DefaultTimeout-guessSpent)
		var loc locator.Location
		err := locator.ErrNotFound
		switch {
		case ltimeout <= 0:
		case allowReplica:
			loc, err = k.loc.LookupAny(id, ltimeout)
		default:
			loc, err = k.loc.Lookup(id, ltimeout)
		}
		if err != nil {
			// Nobody answered: the home may have failed. Run the
			// recovery protocol once — a checkpoint backup site will
			// claim the object and reincarnate it.
			if !triedRecovery {
				triedRecovery = true
				rtimeout := time.Until(deadline)
				if rtimeout > k.loc.DefaultTimeout {
					rtimeout = k.loc.DefaultTimeout
				}
				if rl, rerr := k.loc.Recover(id, rtimeout); rerr == nil {
					k.loc.Learn(id, rl.Node, false)
					continue
				}
			}
			return Reply{}, fmt.Errorf("%w: %v", ErrNoSuchObject, id)
		}

		// A cached hint may point at a dead or stale node; probe it
		// with a bounded slice of the budget so a wrong hint cannot
		// consume the caller's whole timeout. A guess at the creator is
		// a probe too, paid from the locate budget. A freshly confirmed
		// location gets the full remainder.
		attempt := time.Until(deadline)
		var sent time.Time
		switch {
		case loc.Guess:
			attempt = min(attempt, ltimeout/2)
			sent = time.Now()
		case !loc.Fresh:
			attempt = min(attempt/2, time.Second)
		}
		// The stale-tolerance flag travels with the request so the
		// serving node knows whether a checkpoint shadow qualifies;
		// re-derived per attempt because a StatusMoved bounce clears
		// allowReplica for the rest of the chase.
		if allowReplica {
			req.Flags |= msg.FlagAllowReplica
		} else {
			req.Flags &^= msg.FlagAllowReplica
		}
		rep, err := k.invokeRemote(loc.Node, corr, trace, req, attempt)
		if err != nil || rep.Status == msg.StatusNoSuchObject {
			// The node is stale, down, or was a wrong guess: drop what
			// pointed there (for a guess, that rules it out) and retry
			// through location.
			k.loc.Forget(id)
			if loc.Guess {
				guessSpent += time.Since(sent)
			}
			if time.Until(deadline) <= 0 {
				return Reply{}, ErrTimeout
			}
			continue
		}
		if rep.Status == msg.StatusMoved {
			if dest, ok := movedDest(rep); ok {
				k.loc.Forget(id)
				k.loc.Learn(id, dest, false)
				k.stChases.Add(1)
				// The bounce directs us at the home; replicas are no
				// longer acceptable (a local replica would bounce the
				// same request forever).
				allowReplica = false
				continue
			}
			return Reply{}, ErrNoSuchObject
		}
		k.tel.remoteLat.ObserveSince(start)
		return replyFrom(rep)
	}
	return Reply{}, fmt.Errorf("%w: forwarding chain exceeded %d hops", ErrNoSuchObject, maxHops)
}

func replyFrom(rep msg.InvokeRep) (Reply, error) {
	if err := errFromStatus(rep.Status, rep.Data); err != nil {
		return Reply{}, err
	}
	return Reply{Data: rep.Data, Caps: rep.Caps}, nil
}

// tryLocal serves the invocation on this node if the target is active,
// passive, a forwarded ghost, or (when permitted) a cached replica
// here. served reports whether the invocation was handled locally.
// origin is non-nil for requests that arrived over the wire, and names
// the logical invocation: those get a StatusMoved bounce from a
// forwarding pointer, while locally originated invocations fall through
// to the locator (bouncing them here would loop on this node's own
// forward).
//
// Resolution and arrival are separate critical sections, so the
// incarnation resolved may have been passivated by the time the call
// arrives at it, or while the call waited in its queue. Such a call
// never ran, and the object's state is in the local record: it goes
// round again (at most maxReresolve times) and lands on the passive
// record, or on the incarnation a racing call made from it.
func (k *Kernel) tryLocal(req msg.InvokeReq, allowReplica bool, origin *servedKey, deadline time.Time) (msg.InvokeRep, bool, error) {
	for round := 0; ; round++ {
		rep, served, err := k.tryLocalOnce(req, allowReplica, origin, deadline)
		if rep.Status != statusPassive {
			return rep, served, err
		}
		if round == maxReresolve {
			return msg.InvokeRep{Status: msg.StatusCrashed}, true, nil
		}
	}
}

func (k *Kernel) tryLocalOnce(req msg.InvokeReq, allowReplica bool, origin *servedKey, deadline time.Time) (msg.InvokeRep, bool, error) {
	id := req.Target.ID()
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return msg.InvokeRep{}, true, ErrClosed
	}
	obj, isActive := k.active[id]
	fwd, isFwd := k.forwards[id]
	var replica *Object
	if allowReplica {
		replica = k.replicas[id]
	}
	_, isBackup := k.backups[id]
	rescan := k.scanErr != nil
	k.mu.Unlock()

	var shadowServe bool
	switch {
	case isActive:
	case isFwd:
		if origin != nil {
			return movedReply(fwd), true, nil
		}
		// Locally originated: fall through to the locator. The local
		// forwarding pointer is deliberately NOT cached as a hint here:
		// it may be stale (the object moved on), and re-learning it on
		// every retry would clobber the fresher hints the chase
		// produces, bouncing forever between two old homes.
		return msg.InvokeRep{}, false, nil
	case replica != nil:
		obj = replica
		shadowServe = replica.shadow
	default:
		// Whether a local record is a backup, or in doubt, is the boot
		// scan's to say: one that failed runs again before the record is
		// served, and while it still fails the call is refused.
		if rescan {
			if _, here := k.store.Stat(id); here {
				if err := k.bootScan(); err != nil {
					return msg.InvokeRep{Status: msg.StatusCrashed, Data: []byte(err.Error())}, true, nil
				}
				return k.tryLocalOnce(req, allowReplica, origin, deadline)
			}
		}
		// A pending move intent puts the local record in doubt: a
		// committed move this node never finished may have superseded
		// it. Resolve the transaction first (movetxn.go); serving the
		// record while unresolved could execute at a stale epoch.
		if _, pending := k.pendingIntent(id); pending {
			outcome, rerr := k.resolvePendingIntent(id)
			switch outcome {
			case moveRolledForward:
				if origin != nil {
					k.mu.Lock()
					dest, isNowFwd := k.forwards[id]
					k.mu.Unlock()
					if isNowFwd {
						return movedReply(dest), true, nil
					}
					return msg.InvokeRep{Status: msg.StatusNoSuchObject}, true, nil
				}
				// Locally originated: chase through the locator, which
				// the resolution just refreshed.
				return msg.InvokeRep{}, false, nil
			case moveRolledBack:
				// The move never happened; fall through to the normal
				// passive path below.
			default:
				reason := "kernel: move in doubt"
				if rerr != nil {
					reason = rerr.Error()
				}
				// Refusing service is the safe side: the destination may
				// be serving acked writes behind a partition.
				return msg.InvokeRep{Status: msg.StatusCrashed, Data: []byte(reason)}, true, nil
			}
		}
		// Passive here? Only if our store holds the object's home
		// record (not a backup held for another node). The store answers
		// from its directory: on a node that never held the object this
		// is a map miss, and where it is held the record is read once,
		// by activate.
		if _, here := k.store.Stat(id); !here || isBackup {
			// A backup record may still serve a stale-tolerant read as
			// a checkpoint shadow when this node is a checksite.
			if isBackup && allowReplica && k.cfg.ReplicaServe {
				if sh := k.replicaShadow(id); sh != nil {
					obj = sh
					shadowServe = true
					break
				}
			}
			return msg.InvokeRep{}, false, nil
		}
		var aerr error
		obj, aerr = k.activate(id)
		if aerr != nil {
			return msg.InvokeRep{Status: msg.StatusCrashed, Data: []byte(aerr.Error())}, true, nil
		}
	}
	var start time.Time
	if shadowServe {
		start = k.tel.now()
	}
	if k.testHook != nil {
		k.testHook(hookArrival, obj)
	}
	rep, err := k.dispatch(obj, req, deadline, origin)
	if rep.Status == statusPassive || rep.Status == statusDuplicate {
		return rep, true, err // not served: tryLocal resolves again, serveInvoke drops it
	}
	k.stLocal.Add(1)
	// Served requests that arrived over the wire are counted by
	// kernel.invoke.served at the dedup layer; invLocal counts only
	// invocations that originated here and never touched the network.
	if origin == nil {
		k.tel.invLocal.Inc()
	}
	if shadowServe && err == nil {
		switch rep.Status {
		case msg.StatusOK:
			k.tel.replicaHit.Inc()
			k.tel.replicaReadLat.ObserveSince(start)
		case msg.StatusMoved:
			// The shadow refused the call (non-read op, or retired
			// under us) and bounced it to the home.
			k.tel.replicaMiss.Inc()
		}
	}
	return rep, true, err
}

// dispatch submits one call to an object and awaits the reply, honoring
// the node's virtual processor budget. The invoker is its own
// coordinator: under the object's monitor it queues the call and runs
// the schedule, which — uncontended — starts the call's process before
// the lock is released; the only hand-offs are to that process and back.
// One absolute deadline covers the whole dispatch — the virtual-
// processor wait and the reply wait share it, so a call can never
// consume more than its caller's time limit. origin is nil for a local call.
func (k *Kernel) dispatch(obj *Object, req msg.InvokeReq, deadline time.Time, origin *servedKey) (rep msg.InvokeRep, _ error) {
	// The serving side verifies rights before admitting the call: a
	// request that arrived over the wire carries whatever capability
	// the sender claims, and the target's node — not the sender — is
	// the authority. validate checks per-operation rights below; this
	// gate rejects capabilities lacking Invoke outright.
	if !req.Target.Has(rights.Invoke) {
		k.tel.rightsDenied.Inc()
		return msg.InvokeRep{Status: msg.StatusRights, Data: []byte("capability lacks invoke right")}, nil
	}
	start := k.tel.dispatchLat.Start()
	timeout := time.Until(deadline)
	c := getFrame()
	c.name, c.data, c.caps, c.rts = req.Operation, req.Data, req.Caps, req.Target.Rights()
	c.o, c.deadline = obj, deadline
	if rep, ok := obj.validate(c); !ok {
		c.recycle()
		return rep, nil
	}
	// The operation is known and the call has cost nothing yet: the one
	// place to decide whether a retransmission of it may run again.
	if origin != nil && !c.op.ReadOnly {
		n, answer := k.served.begin(*origin)
		if n == 0 {
			c.recycle()
			return answer, nil
		}
		defer func() { k.served.end(n, rep) }()
	}
	remaining := timeout
	if k.vprocs != nil {
		// The node has a fixed pool of virtual processors; handler
		// execution beyond it queues here. A call whose deadline
		// expires in this queue is shed — it never cost a processor.
		select {
		case k.vprocs <- struct{}{}:
		default:
			c.arm(timeout)
			select {
			case k.vprocs <- struct{}{}:
				c.disarm()
				remaining = time.Until(deadline)
			case <-c.timer.C:
				k.tel.admissionShed.Inc()
				c.recycle()
				return msg.InvokeRep{Status: msg.StatusTimeout}, nil
			}
		}
		c.vproc = true
	}
	c.owners.Store(2) // the invoker's share and the object side's
	obj.sched.Lock()
	if obj.state == stDown {
		// The incarnation died between lookup and arrival: the object
		// side's one disposal of the call happens here.
		moved, passive := obj.movedTo, obj.passive
		obj.sched.Unlock()
		c.finish(k.retryAfterDown(obj, moved, passive))
	} else {
		obj.arrive(c)
		obj.sched.Unlock()
	}
	rep, ok := c.await(remaining)
	c.release()
	if !ok {
		// "The invoker wishes to be notified if the invocation is not
		// completed within some time limit." The process may still
		// complete; only the caller stops waiting.
		return msg.InvokeRep{Status: msg.StatusTimeout}, nil
	}
	k.tel.dispatchLat.ObserveSince(start)
	return rep, nil
}

// retryAfterDown resolves a dispatch race where the incarnation died
// between lookup and arrival: the object may have moved, passivated,
// or crashed. moved and passive are the incarnation's: one retired
// toward a live home (a move, or a shadow superseded by a fresher
// checkpoint) records the destination, one passivated says so.
func (k *Kernel) retryAfterDown(obj *Object, moved uint32, passive bool) msg.InvokeRep {
	if moved == 0 {
		k.mu.Lock()
		moved = k.forwards[obj.id]
		k.mu.Unlock()
	}
	return downReply(moved, passive)
}

// roundTrip sends one request envelope and waits for the reply envelope
// carrying its correlation id. The wait is a pooled frame registered in
// k.pend; handleFrame delivers into it under pendMu, and the entry is
// removed under pendMu before the frame is recycled, so a reply that
// arrives after the invoker gave up finds the live frame or nothing.
func (k *Kernel) roundTrip(env msg.Envelope, payload *msg.Buffer, timeout time.Duration) (msg.InvokeRep, error) {
	c := getFrame()
	k.pendMu.Lock()
	k.pend[env.Corr] = c
	k.pendMu.Unlock()
	var rep msg.InvokeRep
	err := k.send(env, payload)
	if err != nil {
		err = fmt.Errorf("kernel: send to node %d: %w", env.To, err)
	} else if r, ok := c.await(timeout); ok {
		rep = r
	} else {
		err = ErrTimeout
	}
	k.pendMu.Lock()
	delete(k.pend, env.Corr)
	k.pendMu.Unlock()
	c.recycle()
	return rep, err
}

// invokeRemote ships the request to another node's kernel and awaits
// its reply envelope. corr identifies the logical invocation across
// retries (the receiver deduplicates on it).
func (k *Kernel) invokeRemote(node uint32, corr, trace uint64, req msg.InvokeReq, timeout time.Duration) (msg.InvokeRep, error) {
	if timeout <= 0 {
		return msg.InvokeRep{}, ErrTimeout
	}
	req.TimeoutNanos = int64(timeout)
	k.stRemote.Add(1)
	k.tel.invRemote.Inc()
	return k.roundTrip(msg.Envelope{Kind: msg.KindInvokeReq, To: node, Corr: corr, Trace: trace}, msg.Encode(req), timeout)
}

// serveInvoke executes an invocation received from another node and
// sends the reply envelope back. The request is decoded in place: its
// data is the handler's Call.Data, inside the frame it arrived in. The
// request's own flag decides whether a replica or checkpoint shadow
// qualifies: an invoker that demands the home (after a StatusMoved
// bounce, or because it never opted into stale reads) clears the flag,
// and serving a shadow anyway would bounce it here forever.
func (k *Kernel) serveInvoke(env msg.Envelope) {
	req, err := msg.DecodeInvokeReq(env.Payload)
	if err != nil {
		return // corrupt frame; the invoker will time out and retry
	}
	timeout := time.Duration(req.TimeoutNanos)
	if timeout <= 0 {
		timeout = k.cfg.DefaultTimeout
	}
	// The serving-side span joins the invoker's via the envelope's
	// trace id; together they split a remote invocation's latency into
	// service time (here) and everything else (wire + location).
	sp := k.tel.reg.StartSpan("serve", env.Trace, k.cfg.Node)
	origin := servedKey{from: env.From, corr: env.Corr}
	rep, served, derr := k.tryLocal(req, req.AllowReplica(), &origin, time.Now().Add(timeout))
	if derr != nil {
		rep = msg.InvokeRep{Status: msg.StatusCrashed, Data: []byte(derr.Error())}
	} else if !served {
		rep = msg.InvokeRep{Status: msg.StatusNoSuchObject}
	}
	if rep.Status == statusDuplicate {
		sp.End("duplicate")
		return
	}
	k.stServed.Add(1)
	k.tel.invServed.Inc()
	sp.End(rep.Status.String())
	_ = k.send(msg.Envelope{Kind: msg.KindInvokeRep, To: env.From, Corr: env.Corr, Trace: env.Trace}, msg.Encode(rep))
}
