package kernel

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/killpoint"
	"eden/internal/locator"
	"eden/internal/msg"
	"eden/internal/rights"
	"eden/internal/store"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// Config describes one Eden node: the abstraction that "supplies
// virtual memory to store the segments of active objects and virtual
// processors to execute invocations". Synchronous, served and async
// invocations all run on the same processors. Its caps are constants:
// async invocations in flight, and each object's read processes and
// queued calls (readerCap, queueCap).
type Config struct {
	// Node is the node number; it must be unique in the system.
	Node uint32
	// Name labels the node in diagnostics and figures (e.g. "office
	// node", "file server").
	Name string
	// VirtualProcessors bounds how many invocation handler processes
	// execute truly concurrently on this node (the paper's GDPs
	// supply "virtual processors"). A handler keeps its processor until
	// it returns, whether or not its invoker is still waiting. 0 means
	// unbounded.
	VirtualProcessors int
	// MemoryBytes is the node's virtual memory budget for active
	// representations; 0 means unbounded. Exceeding it makes new
	// activations fail until objects passivate — or, with
	// EvictOnPressure, transparently passivates idle objects to make
	// room.
	MemoryBytes int64
	// EvictOnPressure makes the kernel passivate (checkpoint +
	// deactivate) the least-recently-invoked idle objects when an
	// activation would exceed MemoryBytes — the complete "single-level
	// memory" illusion: users never see the paging, objects
	// reincarnate on their next invocation.
	EvictOnPressure bool
	// ReplicaServe lets this node serve stale-tolerant AccessRead
	// invocations of other nodes' mutable objects from checkpoint
	// records it holds as a checksite: the record is reincarnated into
	// a read-only shadow, never admitted to the write path, and retired
	// when an invalidation raises the serving floor past it.
	ReplicaServe bool
	// RecoverGrace fences failure-recovery promotion: a checksite
	// refuses to claim a backed-up object as its new home while the
	// object's real home shipped a checkpoint within this window (or
	// while this node booted within it, since ship times are not
	// persisted). Checkpoint ships double as home heartbeats, so a
	// transient locate timeout cannot split an object between a live
	// home and a promoted backup — a hazard ReplicaServe magnifies,
	// because every checksite then advertises its records. Zero
	// disables the fence (recovery claims are immediate).
	RecoverGrace time.Duration
	// DefaultTimeout bounds invocations that pass no timeout.
	DefaultTimeout time.Duration
	// Telemetry, when non-nil, receives the kernel's metrics and
	// invocation trace spans. Nil disables telemetry at zero cost.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns a node with unbounded virtual processors and
// memory and a 5 s default invocation timeout.
func DefaultConfig(node uint32, name string) Config {
	return Config{
		Node:           node,
		Name:           name,
		DefaultTimeout: 5 * time.Second,
	}
}

// Stats counts kernel activity, for tests, benchmarks and operators.
type Stats struct {
	// LocalInvokes counts invocations satisfied without the network.
	LocalInvokes int64
	// RemoteInvokes counts invocations sent to another node.
	RemoteInvokes int64
	// ServedInvokes counts invocations executed here for remote
	// invokers.
	ServedInvokes int64
	// MovedChases counts StatusMoved bounces followed.
	MovedChases int64
	// Reincarnations counts passive->active transitions.
	Reincarnations int64
	// Checkpoints counts checkpoint operations completed.
	Checkpoints int64
	// CheckpointBytes counts representation bytes checkpointed.
	CheckpointBytes int64
	// Moves counts objects shipped away from this node.
	Moves int64
	// MoveAborts counts moves that failed and resumed service here.
	MoveAborts int64
	// MoveResolveForwards counts crashed moves recovery rolled forward
	// (the destination had installed the object).
	MoveResolveForwards int64
	// MoveResolveRollbacks counts crashed moves recovery rolled back
	// (the destination never installed the object).
	MoveResolveRollbacks int64
	// ReplicasInstalled counts frozen replicas cached here.
	ReplicasInstalled int64
	// Evictions counts objects passivated by memory pressure.
	Evictions int64
}

// checksitePolicy records where and how reliably an object keeps its
// long-term state.
type checksitePolicy struct {
	level Reliability
	sites []uint32 // remote checksites (for RelRemote/RelReplicated)
}

// Reliability is the paper's per-object reliability level: "an object
// may specify, through the checksite primitive, which node is
// responsible for maintaining its long-term storage, and what level of
// reliability is required."
type Reliability uint8

const (
	// RelLocal stores checkpoints only in the home node's store.
	RelLocal Reliability = iota
	// RelRemote stores checkpoints only at a designated remote
	// checksite.
	RelRemote
	// RelReplicated stores checkpoints locally and at every designated
	// remote checksite.
	RelReplicated
)

// String names the reliability level.
func (r Reliability) String() string {
	switch r {
	case RelLocal:
		return "local"
	case RelRemote:
		return "remote"
	case RelReplicated:
		return "replicated"
	default:
		return fmt.Sprintf("reliability(%d)", uint8(r))
	}
}

// Kernel is one node's Eden kernel.
type Kernel struct {
	cfg   Config
	tr    transport.Transport
	types *Registry
	loc   *locator.Locator
	gen   *edenid.Generator
	store store.Store
	tel   kernelTel
	// lendRep says store copies a checkpoint's encoding before Put
	// returns (store.CopiesRep), so Checkpoint lends it a pooled buffer.
	lendRep bool

	// mu guards the books: a map per kind of entry an object can have here.
	mu       sync.Mutex
	active   map[edenid.ID]*Object // incarnations homed here
	replicas map[edenid.ID]*Object // frozen replicas cached here (Replicate)
	roles    map[edenid.ID]*role   // policies, backups, claims and move intents (role.go)
	boot     time.Time             // kernel start, the heartbeat of backups no ship has reached
	memInUse int64
	closed   bool
	// relieving is set while the one asynchronous eviction run (relieve)
	// is under way: a burst of growing Updates starts one run, not one each.
	relieving bool

	pendMu sync.Mutex
	pend   map[uint64]*callCtx // correlation id -> the frame awaiting that reply (roundTrip)
	corr   atomic.Uint64

	// lanes serve checkpoint ships, claims and destroys in the order each
	// sender sent them, off the transport's dispatch goroutine.
	lanes [shipLanes]shipLane

	// served deduplicates retransmitted requests for operations that may
	// change state, so a retry after a lost reply does not execute one
	// again (invoke.go).
	served servedTable

	vprocs chan struct{} // virtual processor tokens (nil = unbounded)

	// frames is the node's pool of call frames (frame.go); each frame
	// keeps the processor its work runs on. procs registers every live
	// processor, so that Close can stop them; it is touched only when a
	// processor starts or exits, and is nil once the node has closed.
	frames sync.Pool
	procMu sync.Mutex
	procs  map[*processor]struct{}

	// asyncInFlight counts the async invocations submitted and not yet
	// resolved, against asyncCap (async.go).
	asyncInFlight atomic.Int32

	stLocal, stRemote, stServed, stChases atomic.Int64
	stReinc, stCkpt, stCkptBytes          atomic.Int64
	stMoves, stMoveAborts                 atomic.Int64
	stMoveResolveFwd, stMoveResolveBack   atomic.Int64
	stReplicas, stEvictions               atomic.Int64
	tick                                  atomic.Int64 // recency counter for eviction
	activationMu                          sync.Mutex   // serializes reincarnations

	// testHook, when this package's tests set it (before the kernel
	// serves anything), runs at the points where a lifecycle race window
	// opens, so a test can force the interleaving instead of hoping for
	// it. Nil otherwise: one load on the dispatch path.
	testHook func(at hookPoint, o *Object)
}

// hookPoint names where testHook runs.
type hookPoint uint8

const (
	// hookArrival: tryLocal has resolved the incarnation; dispatch has
	// not yet taken its monitor.
	hookArrival hookPoint = iota
	// hookEvictClaimed: evictUntil has claimed its victim; nothing is
	// released yet.
	hookEvictClaimed
	// hookInstallGap: install's eviction has made room and install has
	// not yet re-taken k.mu to claim it.
	hookInstallGap
	// hookRelief: an asynchronous eviction run (relieve) has started and
	// evicted nothing yet; the object is nil.
	hookRelief
)

// New assembles a kernel from its substrates. types is typically
// shared across all kernels of a system (homogeneous nodes); st is the
// node's long-term store (nil gets a log in process memory).
func New(cfg Config, tr transport.Transport, types *Registry, st store.Store) *Kernel {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if st == nil {
		st, _ = store.NewFile("") // a log in memory opens without error
	}
	// A File reports its traffic into the node's registry, if it has one.
	st = store.Instrument(st, cfg.Telemetry)
	k := &Kernel{
		cfg:      cfg,
		tr:       tr,
		types:    types,
		gen:      edenid.NewGenerator(cfg.Node),
		store:    st,
		lendRep:  store.CopiesRep(st),
		tel:      newKernelTel(cfg.Telemetry),
		active:   make(map[edenid.ID]*Object),
		replicas: make(map[edenid.ID]*Object),
		roles:    make(map[edenid.ID]*role),
		boot:     time.Now(),
		pend:     make(map[uint64]*callCtx),
		procs:    make(map[*processor]struct{}),
	}
	if cfg.VirtualProcessors > 0 {
		k.vprocs = make(chan struct{}, cfg.VirtualProcessors)
	}
	// Correlation ids identify logical invocations in peers' reply-
	// deduplication caches; starting from a wall-clock epoch keeps a
	// restarted node's fresh ids from colliding with its previous
	// incarnation's entries (which would replay stale replies).
	k.corr.Store(uint64(time.Now().UnixNano()))
	k.bootScan()
	k.loc = locator.New(cfg.Node, tr.Send, k.hostCheck)
	tr.SetHandler(k.handleFrame)
	return k
}

// bootScan reads from the store what decides whether a local record may
// be served as this node's own, and registers it in the role table. New
// runs it once, before the node serves anything, so no lock is taken.
//
// Backups: without them a restarted checksite cannot tell the records it
// holds for other homes from its own checkpoints, and would reincarnate
// one, or answer locate queries as its home, while the real home is
// alive. A backup record's version is the last checkpoint this site
// acked before it went down, so it re-anchors the replica serving floor
// too. Records of this node's own that name other checksites: the object
// may have been claimed by one of them while this node was down, so it
// is claimed again before it is served (role.go). The store's directory
// answers; no representation is read.
//
// Move intents that survived a crash: each marks an in-flight move
// transaction whose outcome is unknown until the destination is probed.
// Resolution is lazy (first touch — see movetxn.go), because at
// construction time no peer is reachable yet; until resolved the object
// is refused service rather than served from a record the committed move
// may have superseded.
//
// The scan cannot fail on an open store: store.File answers List and
// ListIntents from the directory its open pass built, and fails them only
// once it is closed. A closed store is its caller's error, as a malformed
// type is TypeManager.Op's, so the scan panics with it and the node never
// comes up.
func (k *Kernel) bootScan() {
	ids, err := k.store.List()
	var its []store.MoveIntent
	if err == nil {
		its, err = k.store.ListIntents()
	}
	if err != nil {
		panic(fmt.Sprintf("kernel: boot scan of node %d's store: %v", k.cfg.Node, err))
	}
	for _, id := range ids {
		if m, ok := k.store.Stat(id); ok && (m.Backup || m.Sited) {
			k.stepRoleLocked(id, roleEvent{kind: evBoot, record: true, rec: m}, nil)
		}
	}
	for _, it := range its {
		k.stepRoleLocked(it.Object, roleEvent{kind: evBoot, from: it.Dest, epoch: it.Epoch}, nil)
	}
}

// stepRoleLocked applies ev to id's role: the entry stays while the state
// holds anything. It returns the new state and the effects, appended to
// fx, for the caller to carry out once it lets go of k.mu. Caller holds
// k.mu.
func (k *Kernel) stepRoleLocked(id edenid.ID, ev roleEvent, fx []roleEffect) (roleState, []roleEffect) {
	ev.self = k.cfg.Node
	r := k.roles[id]
	var s roleState
	if r != nil {
		s = r.roleState
	}
	s, fx = roleStep(s, ev, fx)
	switch {
	case s.held() && r == nil:
		k.roles[id] = &role{roleState: s, lastShip: k.boot}
	case s.held():
		r.roleState = s
	case r != nil:
		delete(k.roles, id)
	}
	return s, fx
}

// roleIO is what one step's effects write and send: rec for fxPut; ship
// for fxShip, fxClaim and fxDestroy, each answer awaited for timeout.
type roleIO struct {
	rec     store.Record
	ship    msg.Ship
	timeout time.Duration
}

// roleOutcome is what applying one step's effects came to.
type roleOutcome struct {
	refused bool     // the step refused its event: the error returned is the refusal
	wrote   bool     // fxPut wrote rec (a stale Put is tolerated, and writes nothing)
	sites   []uint32 // the sites shipped to, in the effects' order
	acks    []error  // each one's answer
}

// applyRole is the monitor's one place for the role's effects: it carries
// out fx, a step of id's role, in order, once the caller has let go of
// k.mu. A refusal comes alone and is returned as it is. A store effect
// that fails skips the store effects and retirements after it, and its
// error is returned (a stale Put is none, but for a forward's); an
// intent's deletion is stepped as evMoveCommitted once durable, else
// (failed or skipped) as evIntentKept. The ships go out last, all at
// once, whatever the store did; a probe is the settlement's
// (runSettlement).
func (k *Kernel) applyRole(id edenid.ID, fx []roleEffect, io *roleIO) (out roleOutcome, err error) {
	ships := false
	for _, e := range fx {
		switch {
		case e.kind == fxRefuse:
			return roleOutcome{refused: true}, e.err
		case e.ships():
			ships = true
		case e.kind == fxDeleteIntent:
			ev := roleEvent{kind: evIntentKept}
			if err == nil {
				if err = k.store.DeleteIntent(id); err == nil {
					ev.kind = evMoveCommitted
					ev.rec, ev.record = k.store.Stat(id)
				}
			}
			k.mu.Lock()
			k.stepRoleLocked(id, ev, nil)
			k.mu.Unlock()
		case e.kind == fxPutHome:
			ev := roleEvent{kind: evHomeUnwritten}
			if err == nil {
				if err = k.store.Put(io.rec); err == nil {
					ev.kind = evHomeWritten
				}
			}
			k.mu.Lock()
			k.stepRoleLocked(id, ev, nil)
			k.mu.Unlock()
		case err != nil:
		case e.kind == fxPut:
			if err = k.store.Put(io.rec); err == nil {
				out.wrote = true
			} else if errors.Is(err, store.ErrStale) && !io.rec.Forward {
				err = nil
			}
		case e.kind == fxDelete:
			err = k.store.Delete(id)
		case e.kind == fxRetire:
			retire(e.shadow, e.site)
		}
	}
	if ships {
		out.sites, out.acks = k.shipAll(fx, io.ship, io.timeout)
	}
	return out, err
}

// shipAll sends ship to the site of every ship effect in fx at once and
// returns each one's answer, so that a silent site costs one timeout
// however many there are.
func (k *Kernel) shipAll(fx []roleEffect, ship msg.Ship, timeout time.Duration) ([]uint32, []error) {
	var sites []uint32
	var wg sync.WaitGroup
	acks := make([]error, len(fx))
	for _, e := range fx {
		if !e.ships() {
			continue
		}
		i := len(sites)
		sites = append(sites, e.site)
		wg.Add(1)
		go func() {
			defer wg.Done()
			acks[i] = k.shipAndWait(e.site, ship, timeout)
		}()
	}
	wg.Wait()
	return sites, acks[:len(sites)]
}

// recordRole is judgeRecord's verdict on a record this node may hold.
type recordRole uint8

const (
	noRecord     recordRole = iota // nothing here to serve as the object
	ownRecord                      // the home record: this node may reincarnate it
	backupRecord                   // held as a checksite for another home
	inDoubt                        // a move intent, or a claim to make or to finish, forbids serving it
	forwarded                      // the object moved on from here: the record is a forward to node
)

// verdict is judgeRecord's answer: aboveFloor says a shadow may be made
// of a backup, node where a forward points.
type verdict struct {
	role       recordRole
	aboveFloor bool
	node       uint32
}

// judgeRecord decides whether id's record in this node's store is the
// node's to serve, or a forward — the one reader of the role table for
// that, by the policy's judgeRole. resolve settles what it leaves in
// doubt.
func (k *Kernel) judgeRecord(id edenid.ID) verdict {
	var rs roleState
	var held bool
	k.mu.Lock()
	if r := k.roles[id]; r != nil {
		rs, held = r.roleState, true
	}
	k.mu.Unlock()
	rec, here := k.store.Stat(id)
	return judgeRole(rs, held, here, rec)
}

// Node returns the node number.
func (k *Kernel) Node() uint32 { return k.cfg.Node }

// Name returns the node's label.
func (k *Kernel) Name() string { return k.cfg.Name }

// Config returns the node's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Types returns the type registry the kernel dispatches against.
func (k *Kernel) Types() *Registry { return k.types }

// Locator exposes the node's location service (used by the benchmark to
// read cache statistics).
func (k *Kernel) Locator() *locator.Locator { return k.loc }

// Stats returns cumulative activity counters.
func (k *Kernel) Stats() Stats {
	return Stats{
		LocalInvokes:         k.stLocal.Load(),
		RemoteInvokes:        k.stRemote.Load(),
		ServedInvokes:        k.stServed.Load(),
		MovedChases:          k.stChases.Load(),
		Reincarnations:       k.stReinc.Load(),
		Checkpoints:          k.stCkpt.Load(),
		CheckpointBytes:      k.stCkptBytes.Load(),
		Moves:                k.stMoves.Load(),
		MoveAborts:           k.stMoveAborts.Load(),
		MoveResolveForwards:  k.stMoveResolveFwd.Load(),
		MoveResolveRollbacks: k.stMoveResolveBack.Load(),
		ReplicasInstalled:    k.stReplicas.Load(),
		Evictions:            k.stEvictions.Load(),
	}
}

// ActiveObjects returns the IDs of objects with active incarnations on
// this node (excluding replicas).
func (k *Kernel) ActiveObjects() []edenid.ID {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]edenid.ID, 0, len(k.active))
	for id := range k.active {
		out = append(out, id)
	}
	return out
}

// hostCheck answers the locator's question: is this node the object's
// home (active here, passive-with-checkpoint here, or — during
// recovery — backed up here), or can it serve reads — from a cached
// frozen replica, or (with ReplicaServe) from a checkpoint record held
// as a checksite backup? A doubt here is settled, off the locator's
// callback path unless in recovery.
func (k *Kernel) hostCheck(id edenid.ID, recover bool) (home, replica bool) {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return false, false
	}
	if _, ok := k.active[id]; ok {
		k.mu.Unlock()
		return true, false
	}
	_, isReplica := k.replicas[id]
	k.mu.Unlock()
	// Failure recovery claims a backup, unless a checkpoint ship (or a
	// boot) within RecoverGrace says the home is likely alive: promoting
	// would split the object.
	var deadline time.Time
	if recover {
		deadline = time.Now().Add(k.cfg.DefaultTimeout)
	}
	switch v, _ := k.resolve(id, deadline, recover); v.role {
	case ownRecord:
		return true, isReplica // a passive object is homed where its checkpoint lives
	case inDoubt:
		return false, false
	case backupRecord:
		// A backup above the invalidation floor is servable as a
		// checkpoint shadow; advertise it to stale-tolerant reads.
		return false, isReplica || k.cfg.ReplicaServe && v.aboveFloor
	}
	return false, isReplica
}

// resolve judges id's record here (judgeRecord). A doubt — or, with
// claim, a backup that failure recovery would promote — is settled once,
// waiting no longer than deadline (a past one: not at all), and the
// record judged again. The verdict is inDoubt only with the error that
// says why the doubt remains.
func (k *Kernel) resolve(id edenid.ID, deadline time.Time, claim bool) (v verdict, err error) {
	if v = k.judgeRecord(id); v.role != inDoubt && !(claim && v.role == backupRecord) {
		return v, nil
	}
	if err = k.settle(id, deadline); err == nil {
		if v = k.judgeRecord(id); v.role == inDoubt {
			err = fmt.Errorf("kernel: %v in doubt here", id)
		}
	}
	return v, err
}

// settle settles id's doubt here — a move intent to probe, or a record to
// claim (role.go) — and waits for it no longer than deadline. One
// settlement runs per object at a time; a touch that finds one under way
// joins it.
func (k *Kernel) settle(id edenid.ID, deadline time.Time) error {
	var rec store.Record
	err := errNoRecord // until read: only a claim, which may start now, takes the record
	var buf [4]roleEffect
	m, _ := k.store.Stat(id) // a forward settles an intent beside it
	k.mu.Lock()
	if r := k.roles[id]; r != nil && r.settled == nil && r.intent.node == 0 {
		k.mu.Unlock()
		rec, err = k.store.Get(id)
		k.mu.Lock()
	}
	if _, live := k.active[id]; live || k.closed {
		k.mu.Unlock()
		if !live {
			return ErrClosed
		}
		return nil
	}
	r := k.roles[id]
	var done chan struct{}
	if r != nil {
		done = r.settled
	}
	if done == nil {
		fresh := r != nil && r.home != 0 && time.Since(r.lastShip) < k.cfg.RecoverGrace
		s, fx := k.stepRoleLocked(id, roleEvent{kind: evSettle, fresh: fresh, record: err == nil, rec: m, policy: policyOf(rec.Policy), ex: rec.Ex}, buf[:0])
		if len(fx) > 0 {
			done = make(chan struct{})
			if r = k.roles[id]; r != nil {
				r.settled = done
			}
			go k.runSettlement(id, done, s, fx, rec)
		}
	}
	k.mu.Unlock()
	if done == nil {
		return nil
	}
	wait := time.NewTimer(time.Until(deadline))
	defer wait.Stop() // before Go 1.23, a timer that is not stopped lives until it fires
	select {
	case <-done:
		return nil
	case <-wait.C:
		return fmt.Errorf("kernel: %v in doubt here: %w", id, ErrTimeout)
	}
}

// runSettlement carries out a settlement that s and fx started — a probe
// of s's intent, or a claim of rec; or deletes an intent beside its
// forward — and closes done once its outcome is applied.
func (k *Kernel) runSettlement(id edenid.ID, done chan struct{}, s roleState, fx []roleEffect, rec store.Record) {
	defer func() {
		k.mu.Lock()
		if r := k.roles[id]; r != nil && r.settled == done {
			r.settled = nil
		}
		k.mu.Unlock()
		close(done)
	}()
	if fx[0].kind == fxProbe {
		k.resolveIntent(id, s.intent)
		return
	}
	if slices.ContainsFunc(fx, roleEffect.ships) {
		ship := msg.Ship{Purpose: msg.ShipCheckpoint, Claim: true, Object: id, TypeName: rec.TypeName,
			Frozen: rec.Frozen, Version: rec.Version + 1, Epoch: normEpoch(rec.Epoch) + 1, Policy: rec.Policy, Rep: rec.Rep}
		_, acks := k.shipAll(fx, ship, k.cfg.DefaultTimeout)
		granted, superseded := true, false
		for _, ack := range acks {
			granted = granted && ack == nil
			superseded = superseded || errors.Is(ack, ErrNoSuchObject)
		}
		k.mu.Lock()
		s, fx = k.stepRoleLocked(id, roleEvent{kind: evClaimDone, granted: granted, superseded: superseded}, nil)
		k.mu.Unlock()
	}
	// The home record, one version and one epoch on: written only once
	// every sibling holds it, and what makes this node the home across a
	// restart.
	rec.Version, rec.Epoch = rec.Version+1, normEpoch(rec.Epoch)+1
	rec.Backup, rec.Home, rec.Policy = false, 0, s.durable()
	if slices.ContainsFunc(fx, func(e roleEffect) bool { return e.kind == fxPutHome }) {
		// Crash boundary: every sibling holds the claimant's record,
		// and the claimant's own is still the one it claimed.
		killpoint.Hit(killpoint.ClaimGranted)
	}
	_, _ = k.applyRole(id, fx, &roleIO{rec: rec}) // a record not written is claimed again by the next touch
}

// shipLanes is the number of ship lanes; senders share them by node
// number.
const shipLanes = 8

// shipLane is a queue of shipments served one at a time, in arrival
// order, by a goroutine that runs while the queue holds any.
type shipLane struct {
	mu      sync.Mutex
	queue   []msg.Envelope
	running bool
}

// push queues env for serve, and starts the lane's goroutine if it is
// idle.
func (l *shipLane) push(env msg.Envelope, serve func(msg.Envelope)) {
	l.mu.Lock()
	l.queue = append(l.queue, env)
	idle := !l.running
	l.running = true
	l.mu.Unlock()
	if idle {
		go l.drain(serve)
	}
}

// drain serves the queue until it is empty.
func (l *shipLane) drain(serve func(msg.Envelope)) {
	for {
		l.mu.Lock()
		if len(l.queue) == 0 {
			l.queue, l.running = nil, false
			l.mu.Unlock()
			return
		}
		env := l.queue[0]
		l.queue[0] = msg.Envelope{}
		l.queue = l.queue[1:]
		l.mu.Unlock()
		serve(env)
	}
}

// send transmits one frame whose payload is in a pooled buffer, and
// frees the buffer: Send borrows a payload only until it returns.
func (k *Kernel) send(env msg.Envelope, payload *msg.Buffer) error {
	env.Payload = payload.B
	err := k.tr.Send(env)
	payload.Free()
	return err
}

// handleFrame demultiplexes inbound transport frames.
func (k *Kernel) handleFrame(env msg.Envelope) {
	switch env.Kind {
	case msg.KindInvokeReq:
		// Serving an invocation can block (class queues, nested
		// invokes), so it runs on the processor of a pooled frame, not
		// on the transport's goroutine.
		c := k.getFrame()
		c.env = env
		c.start()
	case msg.KindInvokeRep:
		rep, err := msg.DecodeInvokeRep(env.Payload)
		if err != nil {
			return
		}
		// Delivered under pendMu: roundTrip removes its entry under the
		// same lock before recycling the frame, so the frame found here
		// is still waiting for this correlation id.
		k.pendMu.Lock()
		if c := k.pend[env.Corr]; c != nil {
			select {
			case c.reply <- rep:
			default:
			}
		}
		k.pendMu.Unlock()
	case msg.KindLocateReq:
		k.loc.HandleRequest(env)
	case msg.KindLocateRep:
		k.loc.HandleReply(env)
	case msg.KindShip:
		// Checkpoint ships, claims and destroys are served in the order
		// their sender sent them, so that a destroy cannot overtake the
		// ships before it (role.go), but not here: they wait on the
		// store. A move, a probe or a replica needs no order.
		if len(env.Payload) > 0 && (msg.ShipPurpose(env.Payload[0]) == msg.ShipCheckpoint || msg.ShipPurpose(env.Payload[0]) == msg.ShipDestroy) {
			k.lanes[env.From%shipLanes].push(env, k.serveShip)
		} else {
			go k.serveShip(env)
		}
	case msg.KindInvalidate:
		k.handleInvalidate(env)
	case msg.KindHello:
		// Reserved for membership; nothing to do yet.
	}
}

// CreateOptions tunes object creation.
type CreateOptions struct {
	// Checksite overrides the default checkpoint policy (local store).
	Checksite *ChecksiteSpec
}

// ChecksiteSpec is the public form of a checkpoint placement policy.
type ChecksiteSpec struct {
	// Level is the reliability level.
	Level Reliability
	// Sites are the remote checksite node numbers (ignored for
	// RelLocal).
	Sites []uint32
}

// Create instantiates a new object of the named type on this node and
// returns a capability carrying all rights ("creation of new types and
// objects" is a kernel primitive; the creator holds full authority and
// delegates by restriction). The type's Init hook, if any, runs before
// the object accepts invocations.
func (k *Kernel) Create(typeName string, opts *CreateOptions) (capability.Capability, error) {
	tt, err := k.types.table(typeName)
	if err != nil {
		return capability.Capability{}, err
	}
	var policy checksitePolicy
	if opts != nil && opts.Checksite != nil {
		if policy, err = newPolicy(opts.Checksite.Level, opts.Checksite.Sites); err != nil {
			return capability.Capability{}, err
		}
	}
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return capability.Capability{}, ErrClosed
	}
	k.mu.Unlock()

	id := k.gen.Next()
	obj := k.newObject(new(Object), id, tt, 0, false)
	obj.epoch = 1 // first residency; every committed move increments it
	if tt.tm.Init != nil {
		if err := tt.tm.Init(obj); err != nil {
			return capability.Capability{}, fmt.Errorf("kernel: init of %q: %w", typeName, err)
		}
	}
	if policy.level != RelLocal {
		k.mu.Lock()
		k.stepRoleLocked(id, roleEvent{kind: evPolicy, policy: policy}, nil)
		k.mu.Unlock()
	}
	if err := k.install(obj); err != nil {
		k.mu.Lock()
		delete(k.roles, id)
		k.mu.Unlock()
		return capability.Capability{}, err
	}
	return capability.New(id, rights.All), nil
}

// install registers an active object, charging its representation
// against the node's memory budget. Once it is in the active table
// invocations can reach it: an incarnation has no process of its own.
// Eviction runs without k.mu, so a concurrent Create, ship or growing
// Update can take the room it made before install claims it; install
// then evicts again, and fails only when nothing is left to evict.
func (k *Kernel) install(obj *Object) error {
	size := int64(repSize(obj))
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return ErrClosed
	}
	for k.cfg.EvictOnPressure && k.cfg.MemoryBytes > 0 && k.memInUse+size > k.cfg.MemoryBytes {
		k.mu.Unlock()
		made := k.evictUntil(k.cfg.MemoryBytes - size)
		if k.testHook != nil {
			k.testHook(hookInstallGap, obj)
		}
		k.mu.Lock()
		if !made {
			break
		}
	}
	if k.cfg.MemoryBytes > 0 && k.memInUse+size > k.cfg.MemoryBytes {
		k.mu.Unlock()
		return fmt.Errorf("kernel: node %d out of virtual memory (%d + %d > %d)",
			k.cfg.Node, k.memInUse, size, k.cfg.MemoryBytes)
	}
	if _, dup := k.active[obj.id]; dup {
		k.mu.Unlock()
		return fmt.Errorf("kernel: object %v already active", obj.id)
	}
	k.active[obj.id] = obj
	// A fresh incarnation is the most recently used object on the node,
	// not the least: without the stamp the next activation's eviction
	// would pick it, unserved, ahead of every object that ever ran.
	obj.lastInvoked = k.tick.Add(1)
	k.chargeLocked(obj, size)
	k.tel.activeObjects.Add(1)
	k.mu.Unlock()
	return nil
}

// chargeLocked sets o's charge against the node's memory budget to size.
// The caller holds k.mu.
func (k *Kernel) chargeLocked(o *Object, size int64) {
	k.memInUse = max(k.memInUse+size-o.charged.Swap(size), 0)
	k.tel.memBytes.Set(k.memInUse)
}

// unchargeLocked takes o, if active, out of the active table and the
// memory budget. The caller holds k.mu.
func (k *Kernel) unchargeLocked(o *Object) {
	if k.active[o.id] != o {
		return
	}
	delete(k.active, o.id)
	k.chargeLocked(o, 0)
	k.tel.activeObjects.Add(-1)
}

// recharge adjusts the memory budget after an object's representation
// changed size, and relieves pressure asynchronously if the node is
// configured to evict. Only objects currently charged (installed)
// are adjusted; replicas and mid-ship copies carry no charge.
func (k *Kernel) recharge(obj *Object, newSize int64) {
	k.mu.Lock()
	if k.active[obj.id] != obj {
		k.mu.Unlock()
		return
	}
	k.chargeLocked(obj, newSize)
	start := k.overBudgetLocked() && !k.relieving
	if start {
		k.relieving = true
	}
	k.mu.Unlock()
	if start {
		// Asynchronous relief: the mutating handler keeps running;
		// idle objects are paged out in the background.
		go k.relieve()
	}
}

// overBudgetLocked reports whether the node evicts on pressure and is
// over its budget. The caller holds k.mu.
func (k *Kernel) overBudgetLocked() bool {
	return k.cfg.MemoryBytes > 0 && k.cfg.EvictOnPressure && k.memInUse > k.cfg.MemoryBytes
}

// relieve is the node's one asynchronous eviction run: it evicts until
// the node is within budget, then looks again before it exits, so growth
// that arrived while it ran — whose Updates found it running and started
// no run of their own — is relieved too. It stops when nothing is left
// to evict; the next growing Update starts a new run.
func (k *Kernel) relieve() {
	if k.testHook != nil {
		k.testHook(hookRelief, nil)
	}
	for {
		made := k.evictUntil(k.cfg.MemoryBytes)
		k.mu.Lock()
		if !made || !k.overBudgetLocked() {
			k.relieving = false
			k.mu.Unlock()
			return
		}
		k.mu.Unlock()
	}
}

func repSize(obj *Object) int {
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	return obj.rep.Size()
}

// lookupActive returns the local active incarnation, if any.
func (k *Kernel) lookupActive(id edenid.ID) (*Object, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	o, ok := k.active[id]
	return o, ok
}

// Object returns the local active incarnation of id, activating it
// from a local checkpoint if necessary. It is how a node's hosting
// layer gets at its own objects without an invocation.
//
//edenvet:ignore capleak the kernel is the trusted base that implements capabilities; hosting code above it goes through Node.Object, which takes one
func (k *Kernel) Object(id edenid.ID) (*Object, error) {
	if o, ok := k.lookupActive(id); ok {
		return o, nil
	}
	return k.activate(id)
}

// Close shuts the kernel down without checkpointing anything —
// equivalent to the node losing power. Passive state in the store
// survives; everything active is lost, exactly as the paper specifies
// for volatile state.
func (k *Kernel) Close() error {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return nil
	}
	k.closed = true
	objs := make([]*Object, 0, len(k.active)+len(k.replicas))
	for _, o := range k.active {
		objs = append(objs, o)
	}
	for _, o := range k.replicas {
		objs = append(objs, o)
	}
	for _, r := range k.roles {
		if r.shadow != nil {
			objs = append(objs, r.shadow)
		}
	}
	k.active = make(map[edenid.ID]*Object)
	k.replicas = make(map[edenid.ID]*Object)
	k.memInUse = 0
	k.tel.activeObjects.Set(0)
	k.tel.memBytes.Set(0)
	k.mu.Unlock()
	// From here a process runs on a goroutine of its own, and one that is
	// running keeps its processor until it returns.
	k.stopProcessors()
	for _, o := range objs {
		o.destroyActiveState(0)
	}
	k.loc.Close()
	// Fail outstanding remote invocations promptly.
	k.pendMu.Lock()
	for corr, c := range k.pend {
		select {
		case c.reply <- msg.InvokeRep{Status: msg.StatusCrashed, Data: []byte("node closed")}:
		default:
		}
		delete(k.pend, corr)
	}
	k.pendMu.Unlock()
	return k.tr.Close()
}

// errFromStatus converts a wire status to the caller-facing error.
func errFromStatus(st msg.Status, data []byte) error {
	switch st {
	case msg.StatusOK:
		return nil
	case msg.StatusNoSuchObject:
		return ErrNoSuchObject
	case msg.StatusNoSuchOperation:
		return fmt.Errorf("%w: %s", ErrNoSuchOperation, data)
	case msg.StatusRights:
		return fmt.Errorf("%w: %s", ErrRights, data)
	case msg.StatusTimeout:
		return ErrTimeout
	case msg.StatusCrashed:
		return ErrCrashed
	case msg.StatusFrozen:
		return fmt.Errorf("%w: %s", ErrFrozen, data)
	case msg.StatusError:
		return fmt.Errorf("%w: %s", ErrInvocationFailed, data)
	default:
		return errors.New("kernel: unexpected status " + st.String())
	}
}

// DebugObjectState reports this kernel's bookkeeping for one object —
// test and console diagnostics only.
func (k *Kernel) DebugObjectState(id edenid.ID) string {
	k.mu.Lock()
	obj, active := k.active[id]
	var rs roleState
	if r := k.roles[id]; r != nil {
		rs = r.roleState
	}
	backup := rs.home != 0
	replica := k.replicas[id] != nil || backup && rs.shadow != nil
	k.mu.Unlock()
	var epoch uint64
	if active {
		epoch = obj.epoch
	}
	v := k.judgeRecord(id)
	rec, ok := k.store.Stat(id)
	stored := "no-record"
	if ok && !rec.Forward {
		stored = fmt.Sprintf("record-v%d-e%d", rec.Version, normEpoch(rec.Epoch))
		if !active {
			epoch = normEpoch(rec.Epoch)
		}
	}
	return fmt.Sprintf("active=%v epoch=%d fwd=%v(%d) replica=%v backup=%v intent=%v(%d@%d) store=%s",
		active, epoch, v.role == forwarded, v.node, replica, backup, rs.intent.node != 0, rs.intent.node, rs.intent.epoch, stored)
}
