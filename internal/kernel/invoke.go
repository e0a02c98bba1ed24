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

// servedIndexSize is the length of a servedTable's index: twice the
// ring, so that a probe meets an empty entry within a few steps.
const servedIndexSize = 2 * servedCacheSize

// An index entry, a ring position plus one, fits in a uint16.
const _ uint16 = servedCacheSize

// servedKey identifies one logical remote invocation.
type servedKey struct {
	from uint32
	corr uint64
}

// inbound is a call that arrived from another node, as serveInvoke
// hands it down to dispatch: the logical invocation, and the way back
// for a reply written in place.
type inbound struct {
	key servedKey
	// frame is the pooled buffer the handler wrote its reply into
	// (Call.ReturnBuffer), already in its wire form; serveInvoke sends
	// and frees it. nil when the reply is to be encoded.
	frame *msg.Buffer
	// kept: a handler may still read the request after the reply is
	// sent (its invoker's time ran out), so serveInvoke leaves the
	// request's frame to the collector instead of freeing it.
	kept bool
}

// home is the index entry where a probe for the key starts: the high
// half of a multiplicative hash, so that one sender's consecutive corrs
// scatter.
func (k servedKey) home() int {
	h := (k.corr ^ uint64(k.from)<<40) * 0x9e3779b97f4a7c15
	return int((h >> 32) % servedIndexSize)
}

// servedTable makes remote execution at-most-once where that means
// something. A call to an operation not declared AccessRead takes a slot
// before it is queued; its retransmission (an attempt timed out, a reply
// was lost) is dropped while that execution runs and answered with its
// reply afterwards. An AccessRead operation cannot change state (DESIGN §6)
// and any replica may serve it (§7), so it may run twice: it takes no
// slot and its reply is retained nowhere. Slots are values in a ring:
// call n occupies ring[n%servedCacheSize] and evicts what was there.
// idx is an open-addressed hash index over the occupied slots: each entry
// is 0 (empty) or one more than a ring position, a key's entry is found
// by probing forward from its home, and a removal shifts back the
// entries behind it rather than leaving a tombstone, so a probe ends at
// the first empty entry. A freed slot is zeroed and unindexed, so idx
// holds exactly the occupied slots.
type servedTable struct {
	mu   sync.Mutex
	n    uint64       // calls admitted so far
	ring []servedSlot // made, with idx, by the first call that needs them
	idx  []uint16
}

// servedSlot is one remembered call and the outcome to replay, which is
// statusDuplicate until there is one. The key and the reply are spread
// over its fields so that they pack into 72 bytes.
type servedSlot struct {
	n      uint64 // the call occupying the slot; 0 when free
	corr   uint64
	from   uint32
	status msg.Status
	data   []byte
	caps   capability.List
}

func (s *servedSlot) key() servedKey { return servedKey{from: s.from, corr: s.corr} }

func (s *servedSlot) reply() msg.InvokeRep {
	return msg.InvokeRep{Status: s.status, Data: s.data, Caps: s.caps}
}

// begin admits one call. n != 0: first sight of it — execute, then end(n).
// n == 0: a retransmission, and rep is its answer.
func (t *servedTable) begin(key servedKey) (n uint64, rep msg.InvokeRep) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil {
		t.ring = make([]servedSlot, servedCacheSize)
		t.idx = make([]uint16, servedIndexSize)
	}
	if i := t.lookup(key); i >= 0 {
		return 0, t.ring[t.idx[i]-1].reply()
	}
	t.n++
	pos := t.n % servedCacheSize
	s := &t.ring[pos]
	if s.n != 0 {
		t.unindex(t.lookup(s.key()))
	}
	*s = servedSlot{n: t.n, corr: key.corr, from: key.from, status: statusDuplicate}
	i := key.home()
	for t.idx[i] != 0 {
		i = (i + 1) % servedIndexSize
	}
	t.idx[i] = uint16(pos + 1)
	return t.n, msg.InvokeRep{}
}

// end settles call n with its outcome. A call that met a moved or
// passivated incarnation never ran: its slot is freed, so that the retry
// — which may find the object elsewhere by then — is not answered here.
// The slot keeps a copy of reply data that lies in req, the request data,
// whose frame is freed once the reply is sent: data that ends where req
// does, as every c.Data[i:j] does (the decoder clips Data's capacity).
// Comparing addresses would catch c.Data[i:j:k] too, but needs unsafe,
// which the module keeps to internal/segment.
func (t *servedTable) end(n uint64, rep msg.InvokeRep, req []byte) {
	if c, r := cap(rep.Data), cap(req); c > 0 && r > 0 && &rep.Data[:c][c-1] == &req[:r][r-1] {
		rep.Data = bytes.Clone(rep.Data)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.ring[n%servedCacheSize]
	switch {
	case s.n != n: // the ring came round while the call ran
	case rep.Status == msg.StatusMoved || rep.Status == statusPassive:
		t.unindex(t.lookup(s.key()))
		*s = servedSlot{}
	default:
		s.status, s.data, s.caps = rep.Status, rep.Data, rep.Caps
	}
}

// lookup returns the index entry of key's slot, or -1. The index is at
// most half full, so the probe meets an empty entry.
func (t *servedTable) lookup(key servedKey) int {
	for i := key.home(); ; i = (i + 1) % servedIndexSize {
		e := t.idx[i]
		if e == 0 {
			return -1
		}
		if s := &t.ring[e-1]; s.corr == key.corr && s.from == key.from {
			return i
		}
	}
}

// unindex empties index entry i. Every later entry of its probe run
// whose home is not between the hole and itself would become
// unreachable, so it moves back into the hole, which moves to where it
// was.
func (t *servedTable) unindex(i int) {
	for j := i; ; {
		j = (j + 1) % servedIndexSize
		e := t.idx[j]
		if e == 0 {
			break
		}
		home := t.ring[e-1].key().home()
		if (j-home+servedIndexSize)%servedIndexSize >= (j-i+servedIndexSize)%servedIndexSize {
			t.idx[i], i = e, j
		}
	}
	t.idx[i] = 0
}

// Invoke performs a synchronous invocation: "parameters are passed and
// the caller's thread of control is suspended pending completion".
// The kernel locates the target and forwards the request (invoke).
func (k *Kernel) Invoke(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions) (Reply, error) {
	o, err := k.invocation(target, opts)
	if err != nil {
		return Reply{}, err
	}
	req := msg.InvokeReq{Target: target, Operation: operation, Data: data, Caps: caps}
	// One trace id per user-level invocation; it rides the envelope so
	// the serving node's span joins this one. With telemetry disabled
	// the id is 0, the span inert, and nothing below allocates for it.
	trace := k.tel.reg.NextTraceID(k.cfg.Node)
	sp := k.tel.reg.StartSpan("invoke", trace, k.cfg.Node)
	rep, err := k.invoke(req, o.AllowReplica, time.Now().Add(o.Timeout), trace)
	sp.End(spanStatus(err))
	if err != nil && errors.Is(err, ErrTimeout) {
		k.tel.timeouts.Inc()
	}
	return rep, err
}

// invocation checks an invocation's target, and fills in its options'
// defaults.
func (k *Kernel) invocation(target capability.Capability, opts *InvokeOptions) (o InvokeOptions, err error) {
	if opts != nil {
		o = *opts
	}
	if o.Timeout <= 0 {
		o.Timeout = k.cfg.DefaultTimeout
	}
	switch {
	case target.IsNull():
		err = fmt.Errorf("%w: null capability", ErrNoSuchObject)
	case !target.Has(rights.Invoke):
		err = fmt.Errorf("%w: capability lacks invoke right", ErrRights)
	}
	return o, err
}

// invoke routes one invocation: it carries out the route policy's actions
// (routeStep) and feeds their answers back. Every send of the invocation
// carries one corr, so the serving node runs a retransmission once.
func (k *Kernel) invoke(req msg.InvokeReq, allowReplica bool, deadline time.Time, trace uint64) (Reply, error) {
	id := req.Target.ID()
	corr := k.corr.Add(1)
	start := k.tel.now() // zero (no clock read) when telemetry is off
	s := routeState{locate: k.loc.DefaultTimeout, recover: k.cfg.DefaultTimeout + k.loc.DefaultTimeout, replica: allowReplica}
	a := s.try(time.Until(deadline), false, 0)
	var rep msg.InvokeRep
	lat := k.tel.localLat
	for {
		if a.forget || a.moved != 0 {
			k.loc.Forget(id)
		}
		if a.moved != 0 {
			k.loc.Learn(id, a.moved, false)
			k.stChases.Add(1)
		}
		var ev routeEvent
		var err error
		switch a.kind {
		case raLocal:
			var here bool
			if rep, here, err = k.tryLocal(req, a.any, nil, deadline); err != nil {
				return Reply{}, err
			}
			ev, lat = answered(rep, here), k.tel.localLat
		case raLookup:
			if a.any {
				ev = located(k.loc.LookupAny(id, a.wait))
			} else {
				ev = located(k.loc.Lookup(id, a.wait))
			}
		case raProbe:
			req.TimeoutNanos, req.Flags = int64(a.serve), 0
			if a.any { // a checkpoint shadow will do
				req.Flags = msg.FlagAllowReplica
			}
			k.stRemote.Add(1)
			k.tel.invRemote.Inc()
			rep, err = k.roundTrip(msg.Envelope{Kind: msg.KindInvokeReq, To: a.node, Corr: corr, Trace: trace}, msg.Encode(req), a.wait)
			ev, lat = answered(rep, err == nil), k.tel.remoteLat
		case raRecover:
			ev = located(k.loc.Recover(id, a.wait))
		case raReply:
			lat.ObserveSince(start)
			if err := errFromStatus(rep.Status, rep.Data); err != nil {
				return Reply{}, err
			}
			return Reply{Data: rep.Data, Caps: rep.Caps}, nil
		case raFail:
			return Reply{}, a.err
		}
		if ev.kind != reServed { // a served answer ends the route: no clock read
			ev.rest = time.Until(deadline)
		}
		a = routeStep(&s, ev)
	}
}

// answered is the event a reply is; ok is false when the object is not
// here, or the probe went unanswered.
func answered(rep msg.InvokeRep, ok bool) routeEvent {
	switch {
	case !ok || rep.Status == msg.StatusNoSuchObject:
		return routeEvent{kind: reAbsent}
	case rep.Status == msg.StatusMoved:
		dest, _ := movedDest(rep)
		return routeEvent{kind: reMoved, dest: dest}
	}
	return routeEvent{kind: reServed}
}

// located is the event a lookup's or a recovery's answer is.
func located(loc locator.Location, err error) routeEvent {
	if err != nil {
		return routeEvent{kind: reSilent}
	}
	return routeEvent{kind: reFound, loc: loc}
}

// tryLocal serves the invocation on this node if the target is active,
// passive, forwarded, or (when permitted) a cached replica here. served
// reports whether the invocation was handled locally. origin is non-nil
// for requests that arrived over the wire, and names the logical
// invocation: those get a StatusMoved bounce from a forward, while
// locally originated invocations fall through to the locator (bouncing
// them here would loop on this node's own forward; learning it as a hint
// would clobber the fresher ones a chase produces).
//
// Resolution and arrival are separate critical sections, so the
// incarnation resolved may have been passivated by the time the call
// arrives at it, or while the call waited in its queue. Such a call
// never ran, and the object's state is in the local record: it goes
// round again (at most maxReresolve times) and lands on the passive
// record, or on the incarnation a racing call made from it.
func (k *Kernel) tryLocal(req msg.InvokeReq, allowReplica bool, origin *inbound, deadline time.Time) (msg.InvokeRep, bool, error) {
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

func (k *Kernel) tryLocalOnce(req msg.InvokeReq, allowReplica bool, origin *inbound, deadline time.Time) (msg.InvokeRep, bool, error) {
	id := req.Target.ID()
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return msg.InvokeRep{}, true, ErrClosed
	}
	obj, isActive := k.active[id]
	var replica *Object
	if allowReplica {
		replica = k.replicas[id]
	}
	k.mu.Unlock()

	var shadowServe bool
	switch {
	case isActive:
	case replica != nil:
		obj = replica
	default:
		// Passive here? The store answers from its directory: on a node
		// that never held the object this is a map miss, and a record
		// judged our own is read once, by reincarnate. A move this node
		// never finished, or a checksite's claim while this node was
		// down, may have superseded the record: resolve settles it first,
		// waiting no longer than the call may. Refusing service meanwhile
		// is the safe side.
		switch v, err := k.resolve(id, deadline, false); v.role {
		case noRecord:
			return msg.InvokeRep{}, false, nil
		case forwarded:
			if origin != nil {
				return movedReply(v.node), true, nil
			}
			return msg.InvokeRep{}, false, nil // to the locator, which does not learn the forward: it may be stale
		case backupRecord:
			// A backup may serve a stale-tolerant read as a shadow.
			if allowReplica && k.cfg.ReplicaServe {
				obj = k.replicaShadow(id)
			}
			if obj == nil {
				return msg.InvokeRep{}, false, nil
			}
			shadowServe = true
		case inDoubt:
			return msg.InvokeRep{Status: msg.StatusCrashed, Data: []byte(err.Error())}, true, nil
		default:
			var aerr error
			if obj, aerr = k.reincarnate(id); aerr != nil {
				return msg.InvokeRep{Status: msg.StatusCrashed, Data: []byte(aerr.Error())}, true, nil
			}
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
func (k *Kernel) dispatch(obj *Object, req msg.InvokeReq, deadline time.Time, origin *inbound) (rep msg.InvokeRep, _ error) {
	start := k.tel.dispatchLat.Start()
	timeout := time.Until(deadline)
	c := k.getFrame()
	c.name, c.data, c.caps, c.rts = req.Operation, req.Data, req.Caps, req.Target.Rights()
	c.o, c.deadline = obj, deadline
	// validate is the serving side's one rights gate: a request from the
	// wire carries whatever capability its sender claims, and the
	// target's node, not the sender, is the authority.
	if rep, ok := obj.validate(c); !ok {
		c.recycle()
		return rep, nil
	}
	// The operation is known and the call has cost nothing yet: the one
	// place to decide whether a retransmission of it may run again.
	if origin != nil && c.op.mode != AccessRead {
		n, answer := k.served.begin(origin.key)
		if n == 0 {
			c.recycle()
			return answer, nil
		}
		defer func() { k.served.end(n, rep, req.Data) }()
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
	// A read's reply is retained nowhere, so one from another node may
	// be written into the frame it leaves in.
	c.inPlace = origin != nil && c.op.mode == AccessRead
	c.owners.Store(2) // the invoker's share and the object side's
	obj.sched.Lock()
	if obj.state == stDown {
		// The incarnation died between lookup and arrival: the object
		// side's one disposal of the call happens here.
		moved, passive := obj.movedTo, obj.passive
		obj.sched.Unlock()
		if moved == 0 { // not retired toward a home: it may have moved since
			if v := k.judgeRecord(obj.id); v.role == forwarded {
				moved = v.node
			}
		}
		c.finish(downReply(moved, passive))
	} else {
		obj.arrive(c)
		obj.sched.Unlock()
	}
	rep, ok := c.await(remaining)
	if origin != nil {
		// The process wrote the frame before finishing, and the frame is
		// not recycled before this share is released. A call still queued
		// or running may read its request after the reply is sent. Every
		// round of tryLocal sets the frame; kept, once set, stays.
		origin.frame = nil
		if ok {
			origin.frame = c.call.frame
		} else {
			origin.kept = true
		}
	}
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

// roundTrip sends one request envelope and waits for the reply envelope
// carrying its correlation id. The wait is a pooled frame registered in
// k.pend; handleFrame delivers into it under pendMu, and the entry is
// removed under pendMu before the frame is recycled, so a reply that
// arrives after the invoker gave up finds the live frame or nothing.
func (k *Kernel) roundTrip(env msg.Envelope, payload *msg.Buffer, timeout time.Duration) (msg.InvokeRep, error) {
	c := k.getFrame()
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

// serveInvoke executes an invocation received from another node and
// sends the reply envelope back. The request is decoded in place: its
// data is Call.Data, inside the frame it arrived in. Every call borrows
// its request: when the transport lent that frame from the pool
// (env.Frame), it is freed once the reply is sent, unless the call timed
// out while its handler was queued or running (inbound.kept) — that
// frame is left to the collector. The
// request's own flag decides whether a replica or checkpoint shadow
// qualifies: an invoker that demands the home (after a StatusMoved
// bounce, or because it never opted into stale reads) clears the flag,
// and serving a shadow anyway would bounce it here forever.
func (k *Kernel) serveInvoke(env msg.Envelope) {
	var origin inbound
	defer func() {
		if !origin.kept {
			env.Frame.Free()
		}
	}()
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
	origin.key = servedKey{from: env.From, corr: env.Corr}
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
	payload := origin.frame // the reply as the handler wrote it in place
	if payload == nil {
		payload = msg.Encode(rep) // rep.Data may lie in the request: copied here
	}
	_ = k.send(msg.Envelope{Kind: msg.KindInvokeRep, To: env.From, Corr: env.Corr, Trace: env.Trace}, payload)
}
