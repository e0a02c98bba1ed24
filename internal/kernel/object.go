package kernel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/msg"
	"eden/internal/rights"
	"eden/internal/segment"
)

// objState is the lifecycle state of an active object's in-memory
// incarnation.
type objState uint8

const (
	// stActive: invocations are being scheduled and dispatched.
	stActive objState = iota
	// stMoving: a move is in progress; new invocations queue, to be
	// answered with StatusMoved once the transfer commits or scheduled
	// if it aborts.
	stMoving
	// stPassivating: a passivation has claimed the incarnation and is
	// making its state durable; new invocations queue, to be re-resolved
	// onto the passive record once the active state is released or
	// scheduled if the checkpoint fails.
	stPassivating
	// stDown: the active state has been destroyed (crash or
	// passivation); this incarnation is finished.
	stDown
)

// Object is one active Eden object: "a unique name, a representation
// (a data part), a type ..., and some number of invocations (threads
// of control)". The representation is long-term state; everything
// else here — class queues, semaphores, ports, behaviors —
// is short-term state that "is never written to long-term storage".
// Short-term state exists only while something runs or waits, so an
// idle incarnation carries only its counts and empty queues: the rest
// is one block made on first use (shortTerm).
type Object struct {
	k     *Kernel
	id    edenid.ID
	table *typeTable // the type manager, with its hierarchy's operations and classes flattened

	// mu is a reader/writer lock on the representation: View calls
	// from the bounded reader pool share it, while Update and
	// Checkpoint's snapshot exclude everything. The representation is
	// held by value, so a record decodes straight into the object.
	mu      sync.RWMutex
	rep     segment.Representation
	version uint64 // checkpoint version counter
	// saved is the version of the local home record this incarnation is
	// known to match, frozen flag included — the one it was decoded
	// from, or that its latest fully successful Checkpoint wrote. It is
	// zero when there is none (never checkpointed, shipped in, promoted
	// from a backup record, checkpointing elsewhere, or frozen since).
	saved uint64

	// epoch is the object's residency epoch: set before the incarnation
	// is published (Create, activate, acceptShip) and immutable for its
	// lifetime — only a committed move creates a new incarnation, at the
	// destination, one epoch up. Recovery orders incarnations by it
	// (movetxn.go), so it needs no lock.
	epoch uint64

	// sched is the coordinator: a monitor, not a process. It guards the
	// object's whole schedule — class queues and counts (cs), lifecycle
	// state (Move, Crash, Passivate), the running-process count their
	// quiesce waits on, and the recency eviction reads — and the
	// short-term state made on demand (short). An invoker enqueues and
	// schedules its own call in one critical section, a finishing process
	// settles its exit and schedules its successors in another, and
	// nothing that can block — a handler, a Reincarnate hook, a send that
	// might wait — ever runs inside one. sched is separate from mu so
	// calls are admitted while readers sit inside View holding mu: with a
	// single RWMutex, one blocked reader would stall every arrival's
	// write-lock acquisition — and, since a waiting writer blocks new
	// RLocks, serialize the whole pool.
	sched       sync.Mutex
	cs          coordState
	lastInvoked int64      // monotonic tick of the last admitted invocation
	short       *shortTerm // made by the first use that needs it (shortLocked)

	charged atomic.Int64 // bytes charged to the node's memory budget

	movedTo uint32 // valid once state becomes stMoving->moved
	// home names the object's true home node when this incarnation is a
	// replica (below).
	home    uint32
	running int32 // handler processes currently executing
	state   objState

	// The flags. frozen is mu's; passive is sched's. Object is 280 B, so that
	// objectWithTable fits the 576-byte size class (TestObjectFootprint).
	frozen  bool
	passive bool // passivated: the local record holds this incarnation's state, so a call that met it re-resolves
	// replica marks an incarnation serving for a remote home: a frozen
	// replica cached here (Kernel.replicas), or a shadow — a read-only
	// reincarnation of the home's last checkpoint held for a backup
	// (Kernel.backups). A replica's version is fixed at construction — it
	// never checkpoints — so the field may be read without mu once the
	// replica is published.
	replica bool
}

// shortTerm is the short-term state an incarnation makes only when
// something needs it, under o.sched: a semaphore, port or behavior
// (which all need down), or a quiesce that must wait for running
// processes. An incarnation that only serves calls never makes one;
// teardown treats a nil block as nothing to close or wait for.
type shortTerm struct {
	down      chan struct{}         // closed when active state is destroyed; made by the first downLocked
	sems      map[string]*Semaphore // made by the first Semaphore
	ports     map[string]*Port      // made by the first Port
	drained   sync.Cond             // on o.sched: the last process out wakes a waiting quiesce
	behaviors sync.WaitGroup
}

// newObject makes o an incarnation with an empty representation:
// Create fills it through the type's Init hook, and incarnate decodes an
// encoding into it.
func (k *Kernel) newObject(o *Object, id edenid.ID, tt *typeTable, version uint64, frozen bool) *Object {
	*o = Object{
		k:       k,
		id:      id,
		table:   tt,
		version: version,
		frozen:  frozen,
	}
	if n := len(tt.classes); n > len(o.cs.inline) {
		rows := make([]classState, n)
		o.cs.more = &rows
	}
	return o
}

// tableSlots is how many segments the table allocated with an
// incarnation made from an encoding holds (objectWithTable). An EFS file
// has three, and the spare slot takes its next version without growing
// the table.
const tableSlots = 4

// objectWithTable is an incarnation allocated with its segment table, so
// that making one from a record is one allocation, not two.
type objectWithTable struct {
	Object
	segs [tableSlots]segment.Segment
}

// incarnate makes an incarnation of an encoded representation that must
// fill rep exactly: a record's or a shipment's. Its names and data
// segments alias rep (segment.Decode). An encoding of at most tableSlots
// segments decodes into the table allocated with the object, so a
// reincarnation costs its record and one block; a larger one gets a
// table of its own. A table that outgrows the block leaves the block's
// slots unused for the incarnation's lifetime.
func (k *Kernel) incarnate(id edenid.ID, tt *typeTable, version uint64, frozen bool, rep []byte) (*Object, error) {
	var o *Object
	var table []segment.Segment
	if n := segment.Count(rep); n <= tableSlots {
		b := new(objectWithTable)
		o, table = &b.Object, b.segs[:n]
	} else {
		o = new(Object)
	}
	k.newObject(o, id, tt, version, frozen)
	if err := decodeWhole(&o.rep, rep, table); err != nil {
		return nil, err
	}
	return o, nil
}

// shortLocked returns the incarnation's short-term state, making it on
// first use. The caller holds o.sched.
func (o *Object) shortLocked() *shortTerm {
	if o.short == nil {
		st := &shortTerm{}
		st.drained.L = &o.sched
		o.short = st
	}
	return o.short
}

// downLocked returns the channel closed when the active state is
// destroyed, making it on first use: most incarnations never wait on
// one. Made after teardown, it is made closed. The caller holds o.sched.
func (o *Object) downLocked() chan struct{} {
	st := o.shortLocked()
	if st.down == nil {
		st.down = make(chan struct{})
		if o.state == stDown {
			close(st.down)
		}
	}
	return st.down
}

// ID returns the object's unique name.
func (o *Object) ID() edenid.ID { return o.id }

// TypeName returns the name of the object's type manager.
func (o *Object) TypeName() string { return o.table.tm.Name }

// Node returns the number of the node currently supporting the object.
func (o *Object) Node() uint32 { return o.k.cfg.Node }

// Frozen reports whether the representation has been made immutable.
func (o *Object) Frozen() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.frozen
}

// Epoch returns the object's residency epoch: incremented by every
// committed move, constant across checkpoints at one home.
func (o *Object) Epoch() uint64 { return o.epoch }

// Version returns the object's current checkpoint version.
func (o *Object) Version() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.version
}

// clean reports whether the local home record already holds exactly this
// incarnation's long-term state: it is at the version of the record the
// incarnation was decoded from or last checkpointed into, it has not
// been frozen since, and no segment has been touched since. Passivating a clean incarnation
// writes nothing — no virtual memory writes back a clean page.
func (o *Object) clean() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.saved != 0 && o.saved == o.version && !o.rep.HasDirty()
}

// SelfCapability returns a capability for the object itself carrying
// the given rights. An object may mint any rights over itself — it is
// its own ultimate authority.
func (o *Object) SelfCapability(rts rights.Set) capability.Capability {
	return capability.New(o.id, rts)
}

// View runs fn with read access to the representation. fn must not
// mutate the representation, block on kernel operations, or retain
// the representation beyond the call. Views share the representation
// lock, so processes of the reader pool execute concurrently.
func (o *Object) View(fn func(r *segment.Representation)) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	fn(&o.rep)
}

// Update runs fn with write access to the representation, serialized
// against all other access. It fails with ErrFrozen once the object
// has been frozen. A non-nil error from fn aborts nothing — the
// representation is mutated in place — so handlers should validate
// before mutating; the error is passed through for convenience.
// Representation growth is charged against the node's virtual-memory
// budget as it happens.
func (o *Object) Update(fn func(r *segment.Representation) error) error {
	o.mu.Lock()
	if o.frozen {
		o.mu.Unlock()
		return ErrFrozen
	}
	err := fn(&o.rep)
	newSize := int64(o.rep.Size())
	o.mu.Unlock()
	o.k.recharge(o, newSize)
	return err
}

// Semaphore returns the named semaphore, creating it with the given
// initial value on first use. Semaphores are short-term state: they
// die with the incarnation.
func (o *Object) Semaphore(name string, initial int) *Semaphore {
	o.sched.Lock()
	defer o.sched.Unlock()
	st := o.shortLocked()
	if s, ok := st.sems[name]; ok {
		return s
	}
	s := newSemaphore(initial, initial+64, o.downLocked())
	if st.sems == nil {
		st.sems = make(map[string]*Semaphore)
	}
	st.sems[name] = s
	return s
}

// Port returns the named message port, creating it with the given
// capacity on first use.
func (o *Object) Port(name string, capacity int) *Port {
	o.sched.Lock()
	defer o.sched.Unlock()
	st := o.shortLocked()
	if p, ok := st.ports[name]; ok {
		return p
	}
	p := newPort(capacity, o.downLocked(), o.k.tel.portWait)
	if st.ports == nil {
		st.ports = make(map[string]*Port)
	}
	st.ports[name] = p
	return p
}

// SpawnBehavior starts a detached process within the object: it
// "operate[s] independently of invocations, except that [it] may
// exchange signals or data through any of the intra-object
// communication mechanisms". The function must return promptly after
// stop is closed; passivation and crash wait for all behaviors.
func (o *Object) SpawnBehavior(fn func(stop <-chan struct{})) {
	o.sched.Lock()
	stop := o.downLocked()
	st := o.short
	// Counted inside the monitor, so a teardown either waits for the
	// behavior or closed stop before it started.
	st.behaviors.Add(1)
	o.sched.Unlock()
	go func() {
		defer st.behaviors.Done()
		fn(stop)
	}()
}

// classState is one invocation class of one incarnation: the paper's
// unit of synchronization. running counts the class's executing
// processes against its limit, whatever their access mode; the queue is
// split by mode (indexed by Access) so that writer preference is a
// choice between queues rather than a search through one. Each queue is
// a circular FIFO threaded through the queued frames' next field: it
// keeps only its tail, whose next is the head, so queueing never
// allocates. n counts each queue against the door's cap.
type classState struct {
	running int32
	n       [3]int32
	tail    [3]*callCtx
}

// push appends c to the mode's queue.
func (cl *classState) push(mode Access, c *callCtx) {
	if t := cl.tail[mode]; t == nil {
		c.next = c
	} else {
		c.next, t.next = t.next, c
	}
	cl.tail[mode] = c
	cl.n[mode]++
}

// head returns the first call in the mode's queue, nil when it is empty.
func (cl *classState) head(mode Access) *callCtx {
	if t := cl.tail[mode]; t != nil {
		return t.next
	}
	return nil
}

// unlink takes c, whose predecessor in the mode's queue is prev, out of
// the queue, and clears its next.
func (cl *classState) unlink(mode Access, prev, c *callCtx) {
	switch {
	case c == prev: // the only call queued
		cl.tail[mode] = nil
	case c == cl.tail[mode]:
		prev.next = c.next
		cl.tail[mode] = prev
	default:
		prev.next = c.next
	}
	c.next = nil
	cl.n[mode]--
}

// coordState is the coordinator's scheduling state: Eden's "tree of
// processes" for one object, synchronized the paper's way — operations
// partition into classes, each with a concurrency limit — plus an
// exclusion relation between access modes. A call is admitted when its
// class has room and its mode admits it: shared processes exclude
// nothing; read processes fan out to a bounded pool; a write process
// excludes readers and writers, in arrival order and with preference
// over queued readers, and holds that exclusivity until it returns,
// across any nested invoke. The coordinator — "kernel code responsible
// for maintenance of the object, reception of invocation requests ...,
// verification of rights, and dispatching of processes to invocations"
// — is a policy, the coordState methods below, which decide and do
// nothing else, and a monitor, the Object methods that carry the
// decisions out under o.sched, run by whichever goroutine has an event
// to report: an invoker arriving, a process finishing, a move aborting.
type coordState struct {
	seq    uint64        // arrival stamp of the next queued call
	inline [2]classState // the class rows of a type with at most two classes, as EFS's file has
	more   *[]classState // the class rows of a type with more
	active [3]int32      // executing processes per access mode
}

// The policy's caps on one object: read processes executing at once,
// and calls waiting in each of its queues, one per class and access mode.
const readerCap, queueCap = 8, 1024

// rows returns the class rows of a type with n classes, parallel to its
// class table.
func (cs *coordState) rows(n int) []classState {
	if cs.more != nil {
		return *cs.more
	}
	return cs.inline[:n]
}

// validate resolves one call's operation and verifies it may run here —
// rights, replica and frozen gates — before the call costs a virtual
// processor or a queue slot. It reads nothing sched guards, so it runs
// outside the monitor. false carries the refusal.
func (o *Object) validate(c *callCtx) (msg.InvokeRep, bool) {
	op := o.table.ops[c.name]
	if op == nil {
		return msg.InvokeRep{Status: msg.StatusNoSuchOperation, Data: []byte(fmt.Sprintf("%v: %q on type %q", ErrNoSuchOperation, c.name, o.table.tm.Name))}, false
	}
	// Rights verification: the capability must carry Invoke plus the
	// operation's declared rights.
	need := op.Rights.Union(rights.Invoke)
	if !c.rts.Has(need) {
		o.k.tel.rightsDenied.Inc()
		return msg.InvokeRep{
			Status: msg.StatusRights,
			Data:   []byte(fmt.Sprintf("operation %q requires rights %v, capability has %v", c.name, need, c.rts)),
		}, false
	}
	o.mu.RLock()
	frozen := o.frozen
	o.mu.RUnlock()
	if o.replica && op.mode != AccessRead {
		// A replica serves only operations registered AccessRead: the
		// declaration is what proves (statically, via accesspurity) that
		// the handler cannot diverge the copy from the home's state.
		// Everything else bounces to the home node. The gates read the
		// mode the type table captured, not the Operation.
		return movedReply(o.home), false
	}
	if frozen && op.mode != AccessRead && !o.replica {
		return msg.InvokeRep{Status: msg.StatusFrozen, Data: []byte("representation is frozen")}, false
	}
	c.op = op
	return msg.InvokeRep{}, true
}

// step is one scheduling step. The deadline pass comes first: every
// queued call whose deadline is before now is shed, from wherever it
// sits — it has cost a queue slot, never a process, and its caller has
// given up — so that only live calls hold the door. Then the arrival in,
// when there is one, meets the door (enqueue). Last, when the object is
// open, each mode admits, oldest head first, while the exclusion
// relation allows: writers before readers, so that a pending writer
// waits only for running readers to drain while queued readers stay
// queued behind it. shed and start chain their calls through next,
// start in admission order; refused reports in turned away at the door.
// now is called only when some queue is non-empty, so an uncontended
// invoke reads no clock.
func (cs *coordState) step(classes []classSpec, in *callCtx, maxReaders, maxQueue int, open bool, now func() time.Time) (shed, start *callCtx, refused bool) {
	var t time.Time
	rows := cs.rows(len(classes))
	for i := range rows {
		cl := &rows[i]
		for mode := range cl.tail {
			if cl.tail[mode] == nil {
				continue
			}
			if t.IsZero() {
				t = now()
			}
			// Once round the ring from the head; prev trails c.
			prev := cl.tail[mode]
			for n := cl.n[mode]; n > 0; n-- {
				c := prev.next
				if !t.After(c.deadline) {
					prev = c
					continue
				}
				cl.unlink(Access(mode), prev, c)
				c.next, shed = shed, c
			}
		}
	}
	refused = in != nil && !cs.enqueue(classes, in, maxQueue)
	if !open {
		return shed, nil, refused
	}
	last := &start
	for _, mode := range [...]Access{AccessWrite, AccessRead, AccessShared} {
		for cl := cs.oldest(classes, mode); cl != nil && cs.admits(classes, mode, maxReaders); cl = cs.oldest(classes, mode) {
			c := cl.head(mode)
			cl.unlink(mode, cl.tail[mode], c)
			cl.running++
			cs.active[mode]++
			*last, last = c, &c.next
		}
	}
	return shed, start, refused
}

// enqueue is the door: it stamps c's arrival and appends it to its
// class's queue for its mode, unless that queue already holds maxQueue
// calls.
func (cs *coordState) enqueue(classes []classSpec, c *callCtx, maxQueue int) bool {
	cl := &cs.rows(len(classes))[c.op.class]
	if int(cl.n[c.op.mode]) >= maxQueue {
		return false
	}
	c.seq = cs.seq
	cs.seq++
	cl.push(c.op.mode, c)
	return true
}

// exit settles one finished process against its class and its mode.
func (cs *coordState) exit(classes []classSpec, op *boundOp) {
	cs.rows(len(classes))[op.class].running--
	cs.active[op.mode]--
}

// admits is the exclusion relation: whether one more process of the
// mode may start beside those executing.
func (cs *coordState) admits(classes []classSpec, mode Access, maxReaders int) bool {
	idle := cs.active[AccessWrite] == 0
	switch mode {
	case AccessWrite:
		return idle && cs.active[AccessRead] == 0
	case AccessRead:
		// Writer preference yields only to a writer that could take the
		// slot: one whose class is full cannot, and holding readers back
		// for it would idle the object.
		return idle && int(cs.active[AccessRead]) < maxReaders && cs.oldest(classes, AccessWrite) == nil
	}
	return true
}

// oldest returns the class whose queue for the mode has the earliest-
// arrived head among classes with room under their limit — nil when no
// queued call of the mode can start. A limit of one yields mutual
// exclusion among the class's operations.
func (cs *coordState) oldest(classes []classSpec, mode Access) *classState {
	var best *classState
	rows := cs.rows(len(classes))
	for i := range rows {
		cl := &rows[i]
		if limit := classes[i].limit; cl.tail[mode] == nil || (limit > 0 && int(cl.running) >= limit) {
			continue
		}
		if best == nil || cl.head(mode).seq < best.head(mode).seq {
			best = cl
		}
	}
	return best
}

// drain empties the schedule at teardown, handing back every queued
// call chained through next.
func (cs *coordState) drain(classes []classSpec) (queued *callCtx) {
	rows := cs.rows(len(classes))
	for i := range rows {
		cl := &rows[i]
		for mode, t := range cl.tail {
			if t == nil {
				continue
			}
			// Open the ring at its tail onto the chain so far.
			head := t.next
			t.next = queued
			queued = head
			cl.tail[mode], cl.n[mode] = nil, 0
		}
	}
	return queued
}

// arrive brings one validated call to the schedule — the one way in,
// whatever the access mode — and carries out the step it makes. A call
// refused at the door is shed, counted apart from deadline expiry
// (kernel.admission.queue.full). The caller holds o.sched and has seen
// the incarnation not down.
func (o *Object) arrive(c *callCtx) {
	shed, start, refused := o.cs.step(o.table.classes, c, readerCap, queueCap, o.state == stActive, time.Now)
	queued := int64(1)
	if refused {
		queued = 0
		o.k.tel.queueFull.Inc()
		c.finish(msg.InvokeRep{Status: msg.StatusTimeout})
	}
	o.apply(shed, start, queued)
}

// complete settles one finished process against its class, its mode and
// the quiesce count, and schedules its successors.
func (o *Object) complete(op *boundOp) {
	o.cs.exit(o.table.classes, op)
	o.leave()
	o.schedule()
}

// schedule runs one scheduling step with no arrival and carries it out.
// Only an active object is open: moving or passivating, nothing may start
// against a representation about to ship or be released, and queued calls
// wait for the outcome — resumeService schedules them, destroyActiveState
// sends them on to the new home or the passive record. The caller holds
// o.sched.
func (o *Object) schedule() {
	shed, start, _ := o.cs.step(o.table.classes, nil, readerCap, queueCap, o.state == stActive, time.Now)
	o.apply(shed, start, 0)
}

// apply carries out one step's decisions. A shed call is answered with
// StatusTimeout (kernel.admission.shed): dispatching a process for it
// would only burn a virtual processor on a reply nobody reads. A started
// call gets its process — "in the normal case, a new process will be
// created and assigned the invocation" — counted against quiesce, on the
// frame's processor, a goroutine that outlives it (frame.go); the object
// side's share of the frame passes from the queue to the process. queued
// counts the step's arrival; the depth gauge moves by it less every call
// that left the queues. The caller holds o.sched.
func (o *Object) apply(shed, start *callCtx, queued int64) {
	for c := shed; c != nil; {
		next := c.next
		c.next = nil
		queued--
		o.k.tel.admissionShed.Inc()
		c.finish(msg.InvokeRep{Status: msg.StatusTimeout})
		c = next
	}
	for c := start; c != nil; {
		next := c.next
		c.next = nil
		queued--
		o.enter()
		c.start()
		c = next
	}
	if queued != 0 {
		o.k.tel.admissionDepth.Add(queued)
	}
}

// enter counts one more executing process against lifecycle quiesce
// and stamps the object's recency. The caller holds o.sched and has
// seen the incarnation active.
func (o *Object) enter() {
	o.running++
	o.lastInvoked = o.k.tick.Add(1)
}

// leave is enter's counterpart: the last process out wakes a waiting
// move's quiesce. The caller holds o.sched.
func (o *Object) leave() {
	o.running--
	if o.running == 0 && o.short != nil {
		o.short.drained.Broadcast()
	}
}

// resumeService ends an aborted move or a failed passivation: the object
// serves here again, and the calls that waited out the attempt are
// scheduled instead of timing out against a silent queue (any whose
// caller deadline passed meanwhile are shed).
func (o *Object) resumeService() {
	o.sched.Lock()
	if o.state == stMoving || o.state == stPassivating {
		o.state = stActive
	}
	o.schedule()
	o.sched.Unlock()
}

// downReply is what a call this incarnation will never run is told:
// bounced to the new home when the incarnation was retired toward one,
// sent back to resolution when it was passivated, crashed otherwise.
func downReply(movedTo uint32, passive bool) msg.InvokeRep {
	switch {
	case movedTo != 0:
		return movedReply(movedTo)
	case passive:
		return msg.InvokeRep{Status: statusPassive}
	}
	return msg.InvokeRep{Status: msg.StatusCrashed}
}

// movedReply builds the StatusMoved reply carrying the new home node.
func movedReply(dest uint32) msg.InvokeRep {
	return msg.InvokeRep{
		Status: msg.StatusMoved,
		Data:   []byte{byte(dest >> 24), byte(dest >> 16), byte(dest >> 8), byte(dest)},
	}
}

// movedDest extracts the destination from a StatusMoved reply.
func movedDest(rep msg.InvokeRep) (uint32, bool) {
	if len(rep.Data) != 4 {
		return 0, false
	}
	return uint32(rep.Data[0])<<24 | uint32(rep.Data[1])<<16 |
		uint32(rep.Data[2])<<8 | uint32(rep.Data[3]), true
}

// runProcess is one invocation's process: run the handler, settle the
// exit with the coordinator, reply. Admission already happened, so
// nothing here waits; the finishing process itself schedules whatever
// its exit makes room for. The exit is settled in a deferred step, so a
// handler that panics or ends its goroutine (runtime.Goexit) still frees
// its class and answers its invoker.
func (c *callCtx) runProcess() {
	o, op := c.o, c.op
	o.k.tel.serveConc.Add(1)
	call := &c.call
	*call = Call{
		k:         o.k,
		self:      o,
		Operation: c.name,
		Data:      c.data,
		Caps:      c.caps,
		Rights:    c.rts,
		status:    msg.StatusOK,
		inPlace:   c.inPlace,
	}
	returned := false
	defer func() {
		if !returned {
			call.status = msg.StatusError
			if r := recover(); r != nil {
				call.replyData = fmt.Appendf(nil, "operation %q panicked: %v", c.name, r)
			} else {
				call.replyData = fmt.Appendf(nil, "operation %q ended its goroutine", c.name)
			}
		}
		o.k.tel.serveConc.Add(-1)

		o.sched.Lock()
		o.complete(op)
		// A crash that happened while the handler ran destroys its result:
		// the invoker sees the crash, not a reply from a dead incarnation.
		crashed := o.state == stDown && o.movedTo == 0
		o.sched.Unlock()
		rep := msg.InvokeRep{Status: call.status, Data: call.replyData, Caps: call.replyCaps}
		if crashed {
			rep = msg.InvokeRep{Status: msg.StatusCrashed}
		}
		if rep.Status != msg.StatusOK || len(rep.Caps) != 0 {
			call.frame = nil // not the reply's wire form: the collector's
		}
		c.finish(rep)
	}()
	op.Handler(call)
	returned = true
}

// waitDrainedLocked blocks until no handler processes are running. Only
// a quiesce that must actually wait makes the short-term state it waits
// on. Caller must hold o.sched.
func (o *Object) waitDrainedLocked() {
	for o.running > 0 {
		o.shortLocked().drained.Wait()
	}
}

// Call is the context an operation handler receives: the invocation's
// parameters, and the means to produce its reply and to reach the
// kernel ("the major user-kernel interface"). It is part of the
// invocation's pooled call frame: a handler must not use it, or hand it
// to anything that uses it, after returning.
//
// Return gives: the slices a handler passes to Return and ReturnCaps
// become the reply itself, not a copy of it, so the handler must not
// modify them afterwards, and must not pass a buffer anything else
// still writes or hands out. ReturnBuffer lends instead: the handler
// fills the bytes it returns and keeps nothing of them.
type Call struct {
	k    *Kernel
	self *Object

	// Operation is the invoked operation's name.
	Operation string
	// Data carries the data parameters, and a handler keeps nothing of
	// Data: the invoker's own slice for a local call, and for a call from
	// another node the bytes inside the pooled frame it arrived in, which
	// the call borrows until its handler returns and which is freed once
	// the reply is sent. A handler may read and write Data but stores it
	// in no variable that outlives it, sends it on no channel and hands it
	// to no goroutine, Subprocess, behavior, Invoke or InvokeAsync (a
	// local invocation gets it uncopied); it copies what it needs later,
	// as SetData, string(...) and edenid.Decode do. TestReadConformance
	// and TestWriteConformance catch one that keeps it and reads it back,
	// edenvet a read that stores it or one that passes it to Invoke.
	// Returning it is fine: the reply is encoded from it before the frame
	// is freed, and a local caller gets its own bytes back.
	Data []byte
	// Caps carries the capability parameters.
	Caps capability.List
	// Rights are the rights on the capability the invoker exercised;
	// handlers may vary behavior on type-defined rights bits.
	Rights rights.Set

	status    msg.Status
	replyData []byte
	replyCaps capability.List
	// inPlace: the call came from another node to an AccessRead
	// operation, so the at-most-once table keeps no reply of it and
	// ReturnBuffer may write the reply into the frame it is sent in.
	inPlace bool
	// frame is that frame, holding replyData, while it is the reply.
	frame *msg.Buffer
}

// Self returns the object executing the operation.
func (c *Call) Self() *Object { return c.self }

// Kernel returns the local kernel, for nested invocations and object
// creation from within a handler. A nested invoke holds the process's
// place in the object's schedule across the wait: a writer stays
// exclusive until its handler returns.
func (c *Call) Kernel() *Kernel { return c.k }

// Return sets the invocation's data result. It keeps data, uncopied: on
// a local call it becomes the invoker's Reply.Data, and on a call from
// another node the reply is encoded from it. The handler gives the bytes
// away and must not modify them afterwards; nothing in the kernel does.
func (c *Call) Return(data []byte) {
	c.replyData, c.frame = data, nil
}

// ReturnBuffer sets the invocation's data result to n zero bytes and
// returns them, for the handler to fill: a reply of known size is
// written once, where it is going, instead of being built and given to
// Return. The handler writes the bytes before it returns and keeps
// nothing of them: it stores them in no variable that outlives it,
// sends them on no channel and hands them to no Subprocess or behavior.
// A call from another node to an AccessRead operation gets them inside
// the pooled frame its reply is sent in, which is reused once sent; any
// other call gets an allocation of their own, which becomes the
// invoker's Reply.Data or the at-most-once table's copy as Return's
// slice would. A later Return or Fail replaces them.
func (c *Call) ReturnBuffer(n int) []byte {
	if c.inPlace {
		c.frame, c.replyData = msg.ReplyInPlace(n)
	} else {
		c.frame, c.replyData = nil, make([]byte, n)
	}
	return c.replyData
}

// ReturnCaps sets the invocation's capability results. Like Return it
// keeps the list it is given: ReturnCaps(a, b) builds a fresh one, and a
// handler that passes its own list with ReturnCaps(l...) gives it away.
func (c *Call) ReturnCaps(caps ...capability.Capability) {
	c.replyCaps = caps
}

// Fail marks the invocation failed with an application-level message;
// the invoker receives ErrInvocationFailed wrapping the message.
func (c *Call) Fail(format string, args ...interface{}) {
	c.status = msg.StatusError
	c.replyData, c.frame = fmt.Appendf(nil, format, args...), nil
}

// SegmentInfo describes one representation segment in an anatomy dump.
type SegmentInfo struct {
	// Name is the segment's name within the representation.
	Name string
	// Kind is "data" or "caps".
	Kind string
	// Len is the byte count (data) or capability count (caps).
	Len int
}

// Anatomy is an introspective snapshot of an object — the four parts
// of Figure 4 of the paper: unique name, representation, type, and
// short-term state.
type Anatomy struct {
	// Name is the object's unique name.
	Name edenid.ID
	// TypeName identifies the type manager.
	TypeName string
	// Operations lists the operations reachable on the type (own and
	// inherited), sorted.
	Operations []string
	// Segments describes the representation's long-term state.
	Segments []SegmentInfo
	// RepBytes is the representation's total size.
	RepBytes int
	// Running is the number of invocation processes executing now.
	Running int
	// Classes maps invocation classes to their concurrency limits
	// (0 = unlimited).
	Classes map[string]int
	// Semaphores and Ports list live short-term synchronization state.
	Semaphores, Ports []string
	// Version is the checkpoint version.
	Version uint64
	// Frozen and Replica report immutability and replica status.
	Frozen, Replica bool
}

// Describe returns an introspective snapshot of the object, used by
// the figure renderer to regenerate the paper's object-anatomy figure
// from a live system.
func (o *Object) Describe() Anatomy {
	a := Anatomy{
		Name:     o.id,
		TypeName: o.table.tm.Name,
		Replica:  o.replica,
		Classes:  make(map[string]int, len(o.table.classes)),
	}
	for _, cl := range o.table.classes {
		a.Classes[cl.name] = cl.limit
	}
	for name := range o.table.ops {
		a.Operations = append(a.Operations, name)
	}
	sort.Strings(a.Operations)

	o.mu.RLock()
	a.Version = o.version
	a.Frozen = o.frozen
	a.RepBytes = o.rep.Size()
	for _, name := range o.rep.Names() {
		info := SegmentInfo{Name: name}
		if caps, err := o.rep.Caps(name); err == nil {
			info.Kind, info.Len = "caps", len(caps)
		} else if data, err := o.rep.Data(name); err == nil {
			info.Kind, info.Len = "data", len(data)
		}
		a.Segments = append(a.Segments, info)
	}
	o.mu.RUnlock()

	o.sched.Lock()
	a.Running = int(o.running)
	if st := o.short; st != nil {
		for name := range st.sems {
			a.Semaphores = append(a.Semaphores, name)
		}
		for name := range st.ports {
			a.Ports = append(a.Ports, name)
		}
	}
	o.sched.Unlock()
	sort.Strings(a.Semaphores)
	sort.Strings(a.Ports)
	return a
}

// Invoke performs a location-independent invocation on behalf of this
// object — the way behaviors and other detached processes inside an
// object reach the rest of the system ("programming in Eden consists
// of defining types that invoke operations on objects of other
// types"). Handlers can equivalently use Call.Kernel().Invoke.
func (o *Object) Invoke(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions) (Reply, error) {
	return o.k.Invoke(target, operation, data, caps, opts)
}

// Subprocess starts a subordinate process to aid the invocation's
// execution: "this new process may also create other subordinate
// processes to aid in its execution. On a node with multiprocessing
// capability, these processes could execute concurrently." The
// subprocess counts as part of the object's executing work: moves and
// passivation drain it like any invocation process. The returned
// channel closes when fn returns.
func (c *Call) Subprocess(fn func()) <-chan struct{} {
	o := c.self
	o.sched.Lock()
	o.running++
	o.sched.Unlock()
	done := make(chan struct{})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// A subordinate's panic is contained like a handler's.
				_ = r
			}
			o.sched.Lock()
			o.leave()
			o.sched.Unlock()
			close(done)
		}()
		fn()
	}()
	return done
}
