package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/locator"
	"eden/internal/msg"
	"eden/internal/rights"
	"eden/internal/store"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// Config describes one Eden node: the abstraction that "supplies
// virtual memory to store the segments of active objects and virtual
// processors to execute invocations", plus the hardware inventory of
// the paper's default node machine (used by the figure renderer).
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
	// GDPs, IPs, Satellites describe the node machine for Figure 2;
	// they have no behavioral effect beyond VirtualProcessors.
	GDPs, IPs  int
	Satellites []string
	// ReaderPool bounds how many read-only (AccessRead) invocation
	// processes may execute concurrently against one object's
	// representation. 0 uses DefaultReaderPool; 1 serializes reads.
	// Mutating (AccessWrite) invocations always run exclusively.
	ReaderPool int
	// ReplicaServe lets this node serve stale-tolerant AccessRead
	// invocations of other nodes' mutable objects from checkpoint
	// records it holds as a checksite: the record is reincarnated into
	// a read-only shadow, never admitted to the write path, and retired
	// when an invalidation raises the serving floor past it.
	ReplicaServe bool
	// AdmissionQueue caps each of an object's admission queues — one
	// per invocation class and access mode. Calls arriving past the cap
	// are shed immediately with StatusTimeout (like the transport's
	// bounded send queues, the queue rejects early rather than growing
	// without bound). 0 uses DefaultAdmissionQueue.
	AdmissionQueue int
	// AsyncPending caps the node's async dispatcher: how many
	// InvokeAsync/InvokeAsyncPort submissions may sit in the
	// pending-invocation table (queued plus executing) at once.
	// Submissions past the cap are shed immediately with ErrTimeout
	// and counted under kernel.async.shed. 0 uses DefaultAsyncPending.
	AsyncPending int
	// AsyncWorkers sizes the async dispatcher's worker pool: how many
	// async invocations execute concurrently per node. 0 uses
	// DefaultAsyncWorkers.
	AsyncWorkers int
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

// DefaultConfig returns the paper's default Eden node machine: two
// GDPs, 1M bytes of memory, two IP/satellite pairs.
func DefaultConfig(node uint32, name string) Config {
	return Config{
		Node:              node,
		Name:              name,
		VirtualProcessors: 0, // unbounded by default; set 2 to model GDPs strictly
		GDPs:              2,
		IPs:               2,
		Satellites:        []string{"display+keyboard+mouse", "disk+ethernet"},
		MemoryBytes:       0,
		DefaultTimeout:    5 * time.Second,
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
	// IncrementalCheckpoints counts checkpoints shipped to a remote
	// site as a segment delta rather than the full representation.
	IncrementalCheckpoints int64
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

	mu       sync.Mutex
	active   map[edenid.ID]*Object
	replicas map[edenid.ID]*Object
	forwards map[edenid.ID]uint32 // moved-away objects -> new home
	sites    map[edenid.ID]checksitePolicy
	shipped  map[edenid.ID]map[uint32]uint64 // checkpoint version last acked per remote site
	backups  map[edenid.ID]uint32            // records held for other nodes' objects -> home node
	minServe map[edenid.ID]uint64            // replica serving floor: no shadow below this version
	lastShip map[edenid.ID]time.Time         // last accepted checkpoint ship (home heartbeat)
	intents  map[edenid.ID]store.MoveIntent  // durable move intents (boot-scanned + live)
	boot     time.Time                       // kernel start, the lastShip stand-in for unseen objects
	scanErr  error                           // why the boot scan failed; nil once one has succeeded (bootScan)
	memInUse int64
	closed   bool
	// relieving is set while the one asynchronous eviction run (relieve)
	// is under way: a burst of growing Updates starts one run, not one each.
	relieving bool

	// resolveMu serializes move-intent resolutions (movetxn.go) so two
	// touches of the same in-doubt object run one probe, not two.
	resolveMu sync.Mutex

	pendMu sync.Mutex
	pend   map[uint64]*callCtx // correlation id -> the frame awaiting that reply (roundTrip)
	corr   atomic.Uint64

	// served deduplicates retransmitted requests for operations that may
	// change state, so a retry after a lost reply does not execute one
	// again (invoke.go).
	served servedTable

	vprocs chan struct{} // virtual processor tokens (nil = unbounded)

	// The async dispatcher (async.go): a bounded pending-invocation
	// table drained by a lazily started worker pool. asyncMu fences
	// submission against Close's drain so no entry is stranded.
	asyncMu     sync.Mutex
	asyncQ      chan *Pending
	asyncStop   chan struct{}
	asyncClosed bool
	asyncOnce   sync.Once
	asyncID     atomic.Uint64

	stLocal, stRemote, stServed, stChases atomic.Int64
	stReinc, stCkpt, stCkptBytes          atomic.Int64
	stCkptIncr                            atomic.Int64
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
// node's long-term store (nil gets an in-memory store).
// DefaultReaderPool is the per-object bound on concurrently executing
// read-only invocation processes when Config.ReaderPool is zero.
const DefaultReaderPool = 8

// DefaultAdmissionQueue is the cap on each admission queue of an object
// when Config.AdmissionQueue is zero.
const DefaultAdmissionQueue = 1024

func New(cfg Config, tr transport.Transport, types *Registry, st store.Store) *Kernel {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if cfg.ReaderPool <= 0 {
		cfg.ReaderPool = DefaultReaderPool
	}
	if cfg.AdmissionQueue <= 0 {
		cfg.AdmissionQueue = DefaultAdmissionQueue
	}
	if cfg.AsyncPending <= 0 {
		cfg.AsyncPending = DefaultAsyncPending
	}
	if cfg.AsyncWorkers <= 0 {
		cfg.AsyncWorkers = DefaultAsyncWorkers
	}
	if st == nil {
		st = store.NewMemory()
	}
	// The kernel observes its store through the instrumenting wrapper;
	// with telemetry disabled Instrument returns st unchanged.
	st = store.Instrument(st, cfg.Telemetry)
	k := &Kernel{
		cfg:      cfg,
		tr:       tr,
		types:    types,
		gen:      edenid.NewGenerator(cfg.Node),
		store:    st,
		tel:      newKernelTel(cfg.Telemetry),
		active:   make(map[edenid.ID]*Object),
		replicas: make(map[edenid.ID]*Object),
		forwards: make(map[edenid.ID]uint32),
		sites:    make(map[edenid.ID]checksitePolicy),
		shipped:  make(map[edenid.ID]map[uint32]uint64),
		backups:  make(map[edenid.ID]uint32),
		minServe: make(map[edenid.ID]uint64),
		lastShip: make(map[edenid.ID]time.Time),
		intents:  make(map[edenid.ID]store.MoveIntent),
		boot:     time.Now(),
		pend:     make(map[uint64]*callCtx),
		served:   servedTable{idx: make(map[servedKey]uint64)},
	}
	k.asyncQ = make(chan *Pending, cfg.AsyncPending)
	k.asyncStop = make(chan struct{})
	if cfg.VirtualProcessors > 0 {
		k.vprocs = make(chan struct{}, cfg.VirtualProcessors)
	}
	// Correlation ids identify logical invocations in peers' reply-
	// deduplication caches; starting from a wall-clock epoch keeps a
	// restarted node's fresh ids from colliding with its previous
	// incarnation's entries (which would replay stale replies).
	k.corr.Store(uint64(time.Now().UnixNano()))
	k.scanErr = errNotScanned
	_ = k.bootScan() // a failure is remembered, and retried on first need
	k.loc = locator.New(cfg.Node, tr.Send, k.hostCheck)
	tr.SetHandler(k.handleFrame)
	return k
}

// errNotScanned is the boot scan's state before its first attempt.
var errNotScanned = errors.New("kernel: store not scanned yet")

// bootScan reads from the store what decides whether a local record may
// be served as this node's own, and registers it; nothing is registered
// unless the whole scan succeeds. A failed scan is remembered (scanErr)
// and re-run before the next passive activation or hostCheck answer that
// a local record would decide: until one succeeds, no local record is
// served as this node's own. Once one has succeeded, calls do nothing.
//
// Backups: without them a restarted checksite cannot tell the records it
// holds for other homes from its own checkpoints, and would reincarnate
// one, or answer locate queries as its home, while the real home is
// alive. A backup record's version is the last checkpoint this site
// acked before it went down, so it re-anchors the replica serving floor
// too. The store's directory answers; no representation is read.
//
// Move intents that survived a crash: each marks an in-flight move
// transaction whose outcome is unknown until the destination is probed.
// Resolution is lazy (first touch — see movetxn.go), because at
// construction time no peer is reachable yet; until resolved the object
// is refused service rather than served from a record the committed move
// may have superseded.
func (k *Kernel) bootScan() error {
	k.mu.Lock()
	done := k.scanErr == nil
	k.mu.Unlock()
	if done {
		return nil
	}
	ids, err := k.store.List()
	var its []store.MoveIntent
	if err == nil {
		its, err = k.store.ListIntents()
	}
	backups := make(map[edenid.ID]store.Meta)
	for _, id := range ids {
		if m, ok := k.store.Stat(id); ok && m.Backup {
			backups[id] = m
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	switch {
	case k.scanErr == nil:
		return nil // a racing scan succeeded meanwhile
	case err != nil:
		k.scanErr = fmt.Errorf("kernel: boot scan of node %d's store: %w", k.cfg.Node, err)
		return k.scanErr
	}
	k.scanErr = nil
	for id, m := range backups {
		if _, live := k.active[id]; live {
			continue // moved in while the scan was failing: its own home now
		}
		k.backups[id] = m.Home
		k.minServe[id] = max(k.minServe[id], m.Version)
	}
	for _, it := range its {
		k.intents[it.Object] = it
	}
	return nil
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
		LocalInvokes:           k.stLocal.Load(),
		RemoteInvokes:          k.stRemote.Load(),
		ServedInvokes:          k.stServed.Load(),
		MovedChases:            k.stChases.Load(),
		Reincarnations:         k.stReinc.Load(),
		Checkpoints:            k.stCkpt.Load(),
		CheckpointBytes:        k.stCkptBytes.Load(),
		IncrementalCheckpoints: k.stCkptIncr.Load(),
		Moves:                  k.stMoves.Load(),
		MoveAborts:             k.stMoveAborts.Load(),
		MoveResolveForwards:    k.stMoveResolveFwd.Load(),
		MoveResolveRollbacks:   k.stMoveResolveBack.Load(),
		ReplicasInstalled:      k.stReplicas.Load(),
		Evictions:              k.stEvictions.Load(),
	}
}

// MemoryInUse returns the bytes of representation currently occupying
// this node's virtual memory.
func (k *Kernel) MemoryInUse() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.memInUse
}

// ActiveObjects returns the IDs of objects with active incarnations on
// this node (excluding replicas).
//
//edenvet:ignore capleak introspection for tests, benchmarks and figures; the names confer no rights without a capability
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
// as a checksite backup?
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
	floor := k.minServe[id]
	if _, movedAway := k.forwards[id]; movedAway {
		k.mu.Unlock()
		return false, isReplica
	}
	_, isBackup := k.backups[id]
	it, inDoubt := k.intents[id]
	rescan := k.scanErr != nil
	k.mu.Unlock()
	if rescan {
		// A record here is a backup or in doubt only as far as the boot
		// scan knows: answer from a scan that succeeded, or not as home.
		if _, here := k.store.Stat(id); here {
			if k.bootScan() != nil {
				return false, false
			}
			return k.hostCheck(id, recover)
		}
	}
	// An unresolved move transaction: the local record may already be
	// superseded by the destination's installation, so this node must
	// not answer as home (or advertise the record) until the intent
	// resolves. Resolution probes the network, so it runs off the
	// locator's callback path.
	if inDoubt {
		go func() { _, _ = k.resolveIntent(it) }()
		return false, false
	}
	// A passive object is homed where its checkpoint lives — unless
	// that record is a backup held for another node, in which case it
	// only counts during recovery.
	if rec, ok := k.store.Stat(id); ok {
		if !isBackup {
			return true, isReplica
		}
		if recover {
			// Claiming the object during failure recovery promotes the
			// backup: this node is now the home and will reincarnate
			// the object on the next invocation. RecoverGrace fences
			// the claim: checkpoint ships double as home heartbeats,
			// so a recent ship (or a recent boot — ship times are not
			// persisted) means the home is likely alive and the
			// "failure" was a transient locate timeout. Promoting then
			// would split the object between a live home and this
			// node; refuse, and fall through to advertise the record
			// as a replica instead.
			k.mu.Lock()
			fresh := false
			if g := k.cfg.RecoverGrace; g > 0 {
				hb, seen := k.lastShip[id]
				if !seen {
					hb = k.boot
				}
				fresh = time.Since(hb) < g
			}
			if !fresh {
				delete(k.backups, id)
				k.mu.Unlock()
				return true, isReplica
			}
			k.mu.Unlock()
		}
		// A checksite backup above the invalidation floor is servable
		// as a checkpoint shadow; advertise it so stale-tolerant reads
		// are steered here.
		if k.cfg.ReplicaServe && rec.Version >= floor {
			isReplica = true
		}
	}
	return false, isReplica
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
		// invokes), so it gets its own goroutine, started from a pooled
		// frame: `go k.serveInvoke(env)` would allocate a closure.
		c := getFrame()
		c.k, c.env = k, env
		go c.serve()
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
		go k.serveShip(env)
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
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return capability.Capability{}, ErrClosed
	}
	k.mu.Unlock()

	id := k.gen.Next()
	obj := k.newObject(id, tt, 0, false)
	obj.epoch = 1 // first residency; every committed move increments it
	if tt.tm.Init != nil {
		if err := tt.tm.Init(obj); err != nil {
			return capability.Capability{}, fmt.Errorf("kernel: init of %q: %w", typeName, err)
		}
	}
	if opts != nil && opts.Checksite != nil {
		k.mu.Lock()
		k.sites[id] = checksitePolicy{level: opts.Checksite.Level, sites: append([]uint32(nil), opts.Checksite.Sites...)}
		k.mu.Unlock()
	}
	if err := k.install(obj); err != nil {
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
	if prev, dup := k.active[obj.id]; dup {
		k.mu.Unlock()
		_ = prev
		return fmt.Errorf("kernel: object %v already active", obj.id)
	}
	k.active[obj.id] = obj
	// A fresh incarnation is the most recently used object on the node,
	// not the least: without the stamp the next activation's eviction
	// would pick it, unserved, ahead of every object that ever ran.
	obj.lastInvoked = k.tick.Add(1)
	obj.charged.Store(size)
	k.memInUse += size
	delete(k.forwards, obj.id)
	k.tel.activeObjects.Add(1)
	k.tel.memBytes.Set(k.memInUse)
	k.mu.Unlock()
	return nil
}

// recharge adjusts the memory budget after an object's representation
// changed size, and relieves pressure asynchronously if the node is
// configured to evict. Only objects currently charged (installed)
// are adjusted; replicas and mid-ship copies carry no charge.
func (k *Kernel) recharge(obj *Object, newSize int64) {
	if obj.replica {
		return
	}
	k.mu.Lock()
	if _, active := k.active[obj.id]; !active {
		k.mu.Unlock()
		return
	}
	delta := newSize - obj.charged.Load()
	obj.charged.Store(newSize)
	k.memInUse += delta
	if k.memInUse < 0 {
		k.memInUse = 0
	}
	k.tel.memBytes.Set(k.memInUse)
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
	k.active = make(map[edenid.ID]*Object)
	k.replicas = make(map[edenid.ID]*Object)
	k.memInUse = 0
	k.tel.activeObjects.Set(0)
	k.tel.memBytes.Set(0)
	k.mu.Unlock()
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
	// Stop the async dispatcher: every queued submission resolves with
	// ErrClosed rather than dangling past the node's lifetime.
	k.drainAsync()
	return k.tr.Close()
}

// Closed reports whether the kernel has shut down.
func (k *Kernel) Closed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.closed
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
//
//edenvet:ignore capleak diagnostics-only view keyed by name; it grants nothing
func (k *Kernel) DebugObjectState(id edenid.ID) string {
	k.mu.Lock()
	obj, active := k.active[id]
	fwd, hasFwd := k.forwards[id]
	_, replica := k.replicas[id]
	_, backup := k.backups[id]
	it, intent := k.intents[id]
	k.mu.Unlock()
	var epoch uint64
	if active {
		epoch = obj.epoch
	}
	rec, ok := k.store.Stat(id)
	stored := "no-record"
	if ok {
		stored = fmt.Sprintf("record-v%d-e%d", rec.Version, normEpoch(rec.Epoch))
		if !active {
			epoch = normEpoch(rec.Epoch)
		}
	}
	return fmt.Sprintf("active=%v epoch=%d fwd=%v(%d) replica=%v backup=%v intent=%v(%d@%d) store=%s",
		active, epoch, hasFwd, fwd, replica, backup, intent, it.Dest, it.Epoch, stored)
}
