package kernel

import (
	"errors"
	"fmt"
	"time"

	"eden/internal/edenid"
	"eden/internal/killpoint"
	"eden/internal/msg"
	"eden/internal/segment"
	"eden/internal/store"
)

// This file implements the active/passive object lifecycle: "objects
// actually exist in two possible states: active and passive", with
// checkpoint, crash, reincarnation, checksite, freeze/replicate and
// move.

// activate reincarnates a passive object from this node's store: "When
// a passive object is 'reincarnated' into an active one, the kernel
// creates a new coordinator process for the object. The coordinator
// will block the invocation while it attempts to execute the object's
// reincarnation condition handler." Here the coordinator is a monitor
// (Object.sched) and the blocking is activationMu's: the handler runs
// before the incarnation is installed, so no call can reach it.
func (k *Kernel) activate(id edenid.ID) (*Object, error) {
	k.activationMu.Lock()
	defer k.activationMu.Unlock()
	if o, ok := k.lookupActive(id); ok {
		return o, nil // lost a benign race with another activation
	}
	// Until a boot scan has succeeded, no record here is known not to be
	// a backup or in doubt.
	if err := k.bootScan(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCrashed, err)
	}
	// A record held as a backup for another node's object must not be
	// activated here while that home may be alive — that would create
	// a second incarnation. The failure-recovery protocol (locator
	// Recover → hostCheck) promotes the backup first, clearing the
	// flag, after which activation is legitimate.
	k.mu.Lock()
	_, isBackup := k.backups[id]
	k.mu.Unlock()
	if isBackup {
		return nil, fmt.Errorf("%w: %v is a checksite backup (home may be alive)", ErrNoCheckpoint, id)
	}
	// A pending move intent means the local record may be superseded by
	// a committed move this node never finished: resolve the transaction
	// before reincarnating from it (movetxn.go's decision table).
	if _, pending := k.pendingIntent(id); pending {
		outcome, rerr := k.resolvePendingIntent(id)
		switch outcome {
		case moveRolledForward:
			return nil, fmt.Errorf("%w: %v moved before the crash", ErrNoSuchObject, id)
		case moveRolledBack:
			// The move never installed; reincarnate here as usual.
		default:
			if rerr == nil {
				rerr = fmt.Errorf("kernel: move of %v unresolved", id)
			}
			return nil, fmt.Errorf("%w: %v", ErrNoCheckpoint, rerr)
		}
	}
	rec, err := k.store.Get(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoCheckpoint, err)
	}
	tt, err := k.types.table(rec.TypeName)
	if err != nil {
		return nil, err
	}
	// The decoded representation is clean — exactly what the record
	// holds — so the incarnation can be passivated again without a
	// checkpoint until something changes it, a Reincarnate hook that
	// writes a segment included. A promoted backup record does not
	// qualify: the home's record must be written without the backup
	// marker, or a restart would take it for a backup again.
	obj := k.newObject(id, tt, rec.Version, rec.Frozen)
	if err := decodeWhole(&obj.rep, rec.Rep); err != nil {
		return nil, fmt.Errorf("kernel: corrupt checkpoint for %v: %v", id, err)
	}
	obj.epoch = normEpoch(rec.Epoch)
	if !rec.Backup {
		obj.saved, obj.savedFrozen = rec.Version, rec.Frozen
	}
	// The reincarnation condition handler runs before any invocation
	// is dispatched; install() happens only after it succeeds.
	if tt.tm.Reincarnate != nil {
		if err := tt.tm.Reincarnate(obj); err != nil {
			return nil, fmt.Errorf("kernel: reincarnation of %v failed: %w", id, err)
		}
	}
	// Crash boundary: the checkpoint is decoded and the handler has
	// run, but nothing is installed — a kill here must leave the next
	// activation able to reincarnate from the same durable record.
	// (This runs with activationMu held; an armed test fn must not call
	// back into the kernel.)
	killpoint.Hit(killpoint.ReincarnatePreInstall)
	if err := k.install(obj); err != nil {
		return nil, err
	}
	k.mu.Lock()
	delete(k.backups, id) // we are now this object's home
	delete(k.lastShip, id)
	k.mu.Unlock()
	k.stReinc.Add(1)
	return obj, nil
}

// Checkpoint records the object's long-term state on reliable storage
// according to its checksite policy. "The type programmer must ensure
// that the object's representation is in a consistent state at the
// time the checkpoint is requested" — Checkpoint snapshots the
// representation atomically with respect to Update, so any moment
// between handler mutations is consistent.
func (o *Object) Checkpoint() error {
	policy := o.k.checksite(o.id)
	o.mu.Lock()
	if o.replica {
		o.mu.Unlock()
		return fmt.Errorf("kernel: replicas do not checkpoint")
	}
	o.version++
	ver := o.version
	// The snapshot holds every change up to stamp; once it is durable
	// the clean mark rises to it. A failed checkpoint changes nothing, so
	// nothing has to be put back. Only a remote checksite can use the
	// changes since the mark, as the delta of an incremental shipment.
	stamp := o.rep.Stamp()
	encoded := o.rep.Encode(nil)
	frozen := o.frozen
	var partial []byte
	var removed []string
	if policy.hasRemote(o.k.cfg.Node) {
		var changed []string
		changed, removed = o.rep.Dirty()
		partial = o.rep.EncodePartial(changed, nil)
	}
	o.mu.Unlock()

	// Crash boundary: the version is advanced in memory but nothing is
	// durable — a kill here must recover to the previous checkpoint.
	killpoint.Hit(killpoint.CheckpointPreSync)
	start := o.k.tel.ckptLat.Start()
	local, err := o.k.writeCheckpoint(o.id, o.table.tm.Name, ver, o.epoch, frozen, policy, encoded, partial, removed)
	if err != nil {
		return err
	}
	// Crash boundary: the checkpoint is durable but the caller has not
	// learned of it — a kill here loses the acknowledgment, never the
	// data.
	killpoint.Hit(killpoint.CheckpointPostSync)
	o.mu.Lock()
	o.rep.MarkClean(stamp)
	if local && ver > o.saved { // a concurrent later checkpoint may have finished first
		o.saved, o.savedFrozen = ver, frozen
	}
	o.mu.Unlock()
	o.k.tel.ckptLat.ObserveSince(start)
	o.k.tel.ckptBytes.Add(int64(len(encoded)))
	o.k.stCkpt.Add(1)
	o.k.stCkptBytes.Add(int64(len(encoded)))
	return nil
}

// decodeWhole decodes into r an encoding that must fill src exactly: a
// record's or a shipment's representation. Data segments alias src.
func decodeWhole(r *segment.Representation, src []byte) error {
	rest, err := segment.DecodeInto(r, src)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d bytes after the representation", segment.ErrBadEncoding, len(rest))
	}
	return err
}

// SetChecksite selects "which node is responsible for maintaining its
// long-term storage, and what level of reliability is required".
func (o *Object) SetChecksite(level Reliability, sites ...uint32) error {
	if (level == RelRemote || level == RelReplicated) && len(sites) == 0 {
		return fmt.Errorf("kernel: reliability %v needs at least one remote site", level)
	}
	k := o.k
	k.mu.Lock()
	k.sites[o.id] = checksitePolicy{level: level, sites: append([]uint32(nil), sites...)}
	k.mu.Unlock()
	return nil
}

// Checksite returns the object's current checkpoint policy.
func (o *Object) Checksite() (Reliability, []uint32) {
	p := o.k.checksite(o.id)
	return p.level, append([]uint32(nil), p.sites...)
}

// checksite snapshots an object's checkpoint policy; RelLocal when none
// was set. The sites slice is never mutated in place, so the snapshot
// may be read after the lock is dropped.
func (k *Kernel) checksite(id edenid.ID) checksitePolicy {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sites[id] // the zero policy is RelLocal
}

// hasRemote reports whether the policy names a checksite other than
// self.
func (p checksitePolicy) hasRemote(self uint32) bool {
	if p.level != RelRemote && p.level != RelReplicated {
		return false
	}
	for _, site := range p.sites {
		if site != self {
			return true
		}
	}
	return false
}

// writeCheckpoint persists one checkpoint per the policy snapshot its
// caller took. "Different reliability levels may cause different
// actions when a checkpoint is issued." Remote checksites holding the
// immediately preceding version receive only the changed segments (an
// incremental checkpoint, partial and removed); anything else — a
// lagging or fresh site, or a site that rejects the delta — receives the
// full representation. local reports that this node's store now holds
// exactly this version as the home record (a stale Put is tolerated but
// leaves something else there).
func (k *Kernel) writeCheckpoint(id edenid.ID, typeName string, ver, epoch uint64, frozen bool, policy checksitePolicy, encoded, partial []byte, removed []string) (local bool, err error) {
	rec := store.Record{Object: id, TypeName: typeName, Version: ver, Epoch: epoch, Frozen: frozen, Rep: encoded}
	full := msg.Ship{Purpose: msg.ShipCheckpoint, Object: id, TypeName: typeName, Frozen: frozen, Version: ver, Epoch: epoch, Rep: encoded}

	var firstErr error
	writeLocal := policy.level == RelLocal || policy.level == RelReplicated
	var remote []uint32
	if policy.level == RelRemote || policy.level == RelReplicated {
		for _, site := range policy.sites {
			if site == k.cfg.Node {
				writeLocal = true // this node named as its own checksite
			} else {
				remote = append(remote, site)
			}
		}
	}
	if writeLocal {
		switch perr := k.store.Put(rec); {
		case perr == nil:
			local = true
		case !errors.Is(perr, store.ErrStale):
			firstErr = perr
		}
	}
	var acked []uint32
	for _, site := range remote {
		if err := k.shipCheckpoint(site, full, partial, removed, ver); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("kernel: checkpoint to site %d: %w", site, err)
			}
			continue
		}
		acked = append(acked, site)
	}
	// Every acked site already raised its serving floor to ver when
	// it acknowledged the ship; the broadcast retires shadows on
	// lagging and ex-checksites and steers stale-tolerant readers
	// at the sites that can serve this version. Local-only policies
	// never broadcast — no remote site serves them.
	if len(acked) > 0 {
		k.broadcastInvalidate(id, ver, false, k.cfg.Node, acked)
	}
	return local, firstErr
}

// shipCheckpoint delivers one checkpoint to a remote site, preferring
// an incremental shipment when the site holds the immediately
// preceding version, with transparent fallback to the full
// representation.
func (k *Kernel) shipCheckpoint(site uint32, full msg.Ship, partial []byte, removed []string, ver uint64) error {
	k.mu.Lock()
	base, haveBase := uint64(0), false
	if m := k.shipped[full.Object]; m != nil {
		base, haveBase = m[site], m[site] > 0
	}
	k.mu.Unlock()

	if haveBase && base == ver-1 {
		inc := full
		inc.Partial = true
		inc.Base = base
		inc.Removed = removed
		inc.Rep = partial
		if err := k.shipAndWait(site, inc, k.cfg.DefaultTimeout); err == nil {
			k.recordShipped(full.Object, site, ver)
			k.stCkptIncr.Add(1)
			return nil
		}
		// Any failure (base mismatch at the receiver, timeout, media
		// error) falls back to a full shipment.
	}
	if err := k.shipAndWait(site, full, k.cfg.DefaultTimeout); err != nil {
		return err
	}
	k.recordShipped(full.Object, site, ver)
	return nil
}

// recordShipped notes the checkpoint version a site has acknowledged.
func (k *Kernel) recordShipped(id edenid.ID, site uint32, ver uint64) {
	k.mu.Lock()
	m := k.shipped[id]
	if m == nil {
		m = make(map[uint32]uint64)
		k.shipped[id] = m
	}
	m[site] = ver
	k.mu.Unlock()
}

// Crash simulates "a virtual memory failure, destroying all existing
// active state. Following a crash, if an object has checkpointed
// itself, the object becomes passive and awaits the next invocation."
// An object that never checkpointed is simply gone.
func (o *Object) Crash() {
	o.k.removeActive(o)
	o.destroyActiveState(0)
}

// Passivate makes the object's state durable and then releases its
// active state — the orderly way to "release system virtual memory
// resources". It writes only what changed: an incarnation the local
// record already describes (clean) is released without a checkpoint.
// Calls that arrive meanwhile queue, and are re-resolved onto the
// passive record afterwards; processes already running are not waited
// for, and report a crash.
func (o *Object) Passivate() error {
	if err := o.claimPassivation(false); err != nil {
		return err
	}
	return o.passivateClaimed()
}

// claimPassivation is the one transition active → passivating. With
// ifIdle it is refused unless the incarnation is quiescent — nothing
// running or queued — checked in the critical section that
// makes the transition, so no call can slip in between: whatever arrives
// later queues behind the claim.
func (o *Object) claimPassivation(ifIdle bool) error {
	o.sched.Lock()
	defer o.sched.Unlock()
	switch {
	case o.state == stMoving:
		return ErrMoving
	case o.state == stDown:
		return ErrCrashed
	case o.state == stPassivating || ifIdle && !o.quiescentLocked():
		return errBusy
	}
	o.state = stPassivating
	return nil
}

// errBusy refuses a claim on an incarnation another passivation holds,
// or, for an eviction's, one that a call reached after it was chosen.
var errBusy = errors.New("kernel: object busy")

// quiescentLocked reports whether nothing is executing against or
// waiting for the incarnation: every admitted process counts in running
// until it settles. Caller holds o.sched.
func (o *Object) quiescentLocked() bool {
	if o.running != 0 {
		return false
	}
	for _, cl := range o.rows() {
		if cl.tail != [3]*callCtx{} {
			return false
		}
	}
	return true
}

// passivateClaimed finishes a passivation whose claim succeeded.
func (o *Object) passivateClaimed() error {
	if !o.clean() {
		if err := o.Checkpoint(); err != nil {
			o.resumeService()
			return err
		}
	}
	// Crash boundary: the object's state is durable but the active
	// state still exists — a kill here is equivalent to a crash right
	// after a successful checkpoint.
	killpoint.Hit(killpoint.PassivatePreRelease)
	o.sched.Lock()
	o.passive = true
	o.sched.Unlock()
	o.k.removeActive(o)
	o.destroyActiveState(0)
	return nil
}

// Destroy crashes the object and deletes its long-term state;
// outstanding capabilities dangle and report ErrNoSuchObject.
func (o *Object) Destroy() error {
	o.k.removeActive(o)
	o.destroyActiveState(0)
	k := o.k
	k.mu.Lock()
	delete(k.sites, o.id)
	delete(k.forwards, o.id)
	delete(k.minServe, o.id)
	delete(k.lastShip, o.id)
	k.mu.Unlock()
	k.loc.Forget(o.id)
	if err := k.store.Delete(o.id); err != nil {
		return err
	}
	return nil
}

// removeActive unregisters an object from the active table and the
// memory budget (using the recorded charge, which tracks growth).
func (k *Kernel) removeActive(o *Object) {
	k.mu.Lock()
	if _, ok := k.active[o.id]; ok {
		delete(k.active, o.id)
		k.memInUse -= o.charged.Load()
		o.charged.Store(0)
		if k.memInUse < 0 {
			k.memInUse = 0
		}
		k.tel.activeObjects.Add(-1)
		k.tel.memBytes.Set(k.memInUse)
	}
	delete(k.replicas, o.id)
	k.mu.Unlock()
}

// destroyActiveState tears down the incarnation's short-term state:
// stops dispatch, answers everything queued so no invoker hangs until
// its timeout, waits out behaviors. movedTo, when non-zero,
// makes queued invocations bounce to the new home instead of reporting
// a crash; those queued behind a passivation go back to resolution.
func (o *Object) destroyActiveState(movedTo uint32) {
	o.sched.Lock()
	if o.state == stDown {
		o.sched.Unlock()
		return
	}
	o.state = stDown
	o.movedTo = movedTo
	passive := o.passive
	queued := o.drain()
	// The short-term state goes with the transition: a semaphore or port
	// asked for later is made on a closed channel. An incarnation that
	// never made any has nothing to close or wait for.
	st := o.short
	var down chan struct{}
	if st != nil {
		down = st.down
		st.sems, st.ports = nil, nil
	}
	o.sched.Unlock()
	if down != nil {
		close(down) // once: only the transition to stDown gets here
	}
	for c := queued; c != nil; {
		next := c.next
		c.next = nil
		o.unqueue(c)
		c.finish(downReply(movedTo, passive))
		c = next
	}
	if st != nil {
		st.behaviors.Wait()
	}
}

// Freeze makes the representation immutable: "When an object is frozen
// its representation is made immutable, although it can still receive
// invocations. Such an object can be replicated and cached at several
// sites."
func (o *Object) Freeze() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.replica {
		return fmt.Errorf("kernel: cannot freeze a replica")
	}
	o.frozen = true
	return nil
}

// Replicate caches the frozen object at the given nodes "in order to
// save the overhead of remote invocations". The object must be frozen
// first.
func (o *Object) Replicate(nodes ...uint32) error {
	o.mu.Lock()
	if !o.frozen {
		o.mu.Unlock()
		return ErrNotFrozen
	}
	encoded := o.rep.Encode(nil)
	ver := o.version
	o.mu.Unlock()
	ship := msg.Ship{Purpose: msg.ShipReplica, Object: o.id, TypeName: o.table.tm.Name, Frozen: true, Version: ver, Epoch: o.epoch, Rep: encoded}
	var firstErr error
	for _, n := range nodes {
		if n == o.k.cfg.Node {
			continue // the home already serves local invocations
		}
		if err := o.k.shipAndWait(n, ship, o.k.cfg.DefaultTimeout); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("kernel: replicate to node %d: %w", n, err)
		}
		// Record the replica so our own reads can use it and locate
		// replies advertise it.
		if firstErr == nil {
			o.k.loc.Learn(o.id, n, true)
		}
	}
	return firstErr
}

// Move transfers "responsibility for its resources ... to another node
// through the kernel-supplied move operation". The transfer is
// asynchronous: it begins once in-flight invocations drain and
// completes in the background; the returned channel yields the
// outcome. A handler that initiates a move must return without
// waiting on the channel (its own invocation is part of the in-flight
// set).
func (o *Object) Move(to uint32) <-chan error {
	done := make(chan error, 1)
	go func() { done <- o.k.moveObject(o, to) }()
	return done
}

func (k *Kernel) moveObject(o *Object, to uint32) error {
	if to == k.cfg.Node {
		return nil // already here
	}
	if o.replica {
		return fmt.Errorf("kernel: cannot move a replica")
	}
	o.sched.Lock()
	if o.state != stActive {
		st := o.state
		o.sched.Unlock()
		if st == stMoving {
			return ErrMoving
		}
		return ErrCrashed
	}
	o.state = stMoving
	// Quiesce: wait for running handler processes — the reader pool
	// included — to complete. New arrivals queue and will be bounced
	// to the new home once the transfer commits.
	o.waitDrainedLocked()
	o.sched.Unlock()
	// Invocation processes are drained and stMoving blocks new ones;
	// the read lock excludes any behavior mutating mid-encode.
	o.mu.RLock()
	encoded := o.rep.Encode(nil)
	ver := o.version
	frozen := o.frozen
	o.mu.RUnlock()

	// The move is a two-phase transaction ordered by residency epochs:
	// a durable intent before anything ships, the destination's install
	// under the next epoch, then a durable commit (the intent's
	// deletion). A crash at any boundary leaves recovery a deterministic
	// verdict — see movetxn.go's decision table.
	newEpoch := o.epoch + 1
	ship := msg.Ship{Purpose: msg.ShipMove, Object: o.id, TypeName: o.table.tm.Name, Frozen: frozen, Version: ver, Epoch: newEpoch, Rep: encoded}
	// Crash boundary: the object is quiesced and encoded but nothing
	// about the move is durable — a kill here must reincarnate it at
	// this home, as if the move was never attempted.
	killpoint.Hit(killpoint.MovePreShip)
	intent := store.MoveIntent{Object: o.id, Dest: to, Epoch: newEpoch}
	if err := k.store.PutIntent(intent); err != nil {
		o.resumeService()
		k.stMoveAborts.Add(1)
		return fmt.Errorf("kernel: move to node %d: intent: %w", to, err)
	}
	k.mu.Lock()
	k.intents[o.id] = intent
	k.mu.Unlock()
	// Crash boundary: the intent is durable but the representation has
	// not left the node — recovery must probe the destination, find
	// nothing, and roll the move back.
	killpoint.Hit(killpoint.MoveIntentDurable)
	if err := k.shipAndWait(to, ship, k.cfg.DefaultTimeout); err != nil {
		// Abort: delete the intent durably before resuming — an intent
		// outliving a resumed object would put it in doubt at the next
		// boot for no reason. (If the destination installed but the ack
		// was lost, this abort and its service resume race the
		// destination's installation; the stale-epoch fence on ShipMove
		// and the epoch order bound the damage — see DESIGN.md §6.)
		aerr := k.store.DeleteIntent(o.id)
		k.mu.Lock()
		if aerr == nil {
			delete(k.intents, o.id)
		}
		k.mu.Unlock()
		// The object resumes service here, and calls that queued during
		// the move are scheduled rather than left to time out.
		o.resumeService()
		k.stMoveAborts.Add(1)
		return fmt.Errorf("kernel: move to node %d: %w", to, err)
	}
	// Crash boundary: the destination has installed the object at the
	// new epoch but this home has not committed — recovery must probe
	// the destination, find it installed, and roll the move forward.
	killpoint.Hit(killpoint.MovePreCommit)

	// Commit: we are no longer the home; leave a forwarding pointer.
	k.mu.Lock()
	delete(k.active, o.id)
	k.memInUse -= o.charged.Load()
	o.charged.Store(0)
	if k.memInUse < 0 {
		k.memInUse = 0
	}
	k.tel.activeObjects.Add(-1)
	k.tel.memBytes.Set(k.memInUse)
	k.forwards[o.id] = to
	delete(k.sites, o.id)
	delete(k.intents, o.id)
	// The incremental-checkpoint base tracking must not survive the
	// move: changes made at other homes are invisible to this node's
	// dirty tracking, so a base recorded here would let a future
	// incremental delta (after the object moves back) silently omit
	// them — including deletions, which a merge cannot infer.
	delete(k.shipped, o.id)
	k.mu.Unlock()
	// The stale local checkpoint would otherwise make this node claim
	// to be home again after a restart.
	_ = k.store.Delete(o.id)
	// The commit point: once the intent is durably gone, no future
	// incarnation of this node will question the move.
	_ = k.store.DeleteIntent(o.id)
	k.loc.Forget(o.id)
	k.loc.Learn(o.id, to, false)
	k.stMoves.Add(1)
	// The checksite policy does not travel with the move, so the new
	// home will not refresh this home's checksites; the move broadcast
	// disables their serving floors until a checkpoint from the new
	// home arrives (see handleInvalidate).
	k.broadcastInvalidate(o.id, ver, true, to, nil)
	o.destroyActiveState(to)
	// Crash boundary: the move is fully committed — a kill here must
	// find the object serving at its new home.
	killpoint.Hit(killpoint.MovePostCommit)
	return nil
}

// shipAndWait sends a representation shipment and waits for the
// receiving kernel's acknowledgment.
func (k *Kernel) shipAndWait(node uint32, ship msg.Ship, timeout time.Duration) error {
	rep, err := k.roundTrip(msg.Envelope{Kind: msg.KindShip, To: node, Corr: k.corr.Add(1)}, msg.Encode(ship), timeout)
	if err != nil {
		return err
	}
	return errFromStatus(rep.Status, rep.Data)
}

// serveShip handles an inbound representation shipment.
func (k *Kernel) serveShip(env msg.Envelope) {
	ship, err := msg.DecodeShip(env.Payload)
	ack := msg.InvokeRep{Status: msg.StatusOK}
	if err != nil {
		ack = msg.InvokeRep{Status: msg.StatusError, Data: []byte(err.Error())}
	} else if err := k.acceptShip(env.From, ship); err != nil {
		if errors.Is(err, errProbeNotInstalled) {
			// A definite "not here" answer to a move-recovery probe; the
			// prober distinguishes it from transport failure.
			ack = msg.InvokeRep{Status: msg.StatusNoSuchObject}
		} else {
			ack = msg.InvokeRep{Status: msg.StatusError, Data: []byte(err.Error())}
		}
	}
	_ = k.send(msg.Envelope{Kind: msg.KindInvokeRep, To: env.From, Corr: env.Corr}, msg.Encode(ack))
}

// acceptShip applies one shipment.
func (k *Kernel) acceptShip(from uint32, ship msg.Ship) error {
	k.mu.Lock()
	closed := k.closed
	k.mu.Unlock()
	if closed {
		return ErrClosed
	}
	switch ship.Purpose {
	case msg.ShipCheckpoint:
		// We are acting as a remote checksite: hold the record as a
		// backup, to be served only during failure recovery.
		repBytes := ship.Rep
		if ship.Partial {
			// Incremental: merge the delta onto the base version we
			// hold. A missing or mismatched base rejects the shipment;
			// the sender falls back to a full checkpoint.
			baseRec, err := k.store.Get(ship.Object)
			if err != nil {
				return fmt.Errorf("kernel: incremental checkpoint without base: %w", err)
			}
			if baseRec.Version != ship.Base {
				return fmt.Errorf("kernel: incremental checkpoint base v%d, have v%d", ship.Base, baseRec.Version)
			}
			var base, delta segment.Representation
			if err := decodeWhole(&base, baseRec.Rep); err != nil {
				return fmt.Errorf("kernel: corrupt base checkpoint: %v", err)
			}
			if err := decodeWhole(&delta, ship.Rep); err != nil {
				return fmt.Errorf("kernel: corrupt checkpoint delta: %v", err)
			}
			base.Merge(&delta, ship.Removed)
			repBytes = base.Encode(nil)
		}
		rec := store.Record{Object: ship.Object, TypeName: ship.TypeName, Version: ship.Version,
			Epoch: ship.Epoch, Frozen: ship.Frozen, Backup: true, Home: from, Rep: repBytes}
		if err := k.store.Put(rec); err != nil && !errors.Is(err, store.ErrStale) {
			return err
		}
		var retire *Object
		k.mu.Lock()
		if _, isHome := k.active[ship.Object]; !isHome {
			k.backups[ship.Object] = from
			// The ship is also a home heartbeat: it fences recovery
			// promotion for Config.RecoverGrace (see hostCheck).
			k.lastShip[ship.Object] = time.Now()
			// The ack we are about to send is the durability anchor of
			// the staleness bound: once the home sees it, the writer's
			// invocation may reply, and no read here may then serve an
			// older version. Raising the floor before the ack (and
			// before any reader can observe the new version) keeps that
			// ordering; a floor disabled by a move re-enables, since the
			// shipper has proven itself this object's live home.
			if f := k.minServe[ship.Object]; f == floorDisabled || f < ship.Version {
				k.minServe[ship.Object] = ship.Version
			}
			if old := k.replicas[ship.Object]; old != nil && old.shadow && old.version < ship.Version {
				delete(k.replicas, ship.Object)
				retire = old
			}
		}
		k.mu.Unlock()
		if retire != nil {
			go retire.destroyActiveState(from)
		}
		return nil

	case msg.ShipReplica:
		tt, err := k.types.table(ship.TypeName)
		if err != nil {
			return err
		}
		obj := k.newObject(ship.Object, tt, ship.Version, true)
		if err := decodeWhole(&obj.rep, ship.Rep); err != nil {
			return fmt.Errorf("kernel: corrupt replica representation: %v", err)
		}
		obj.epoch = normEpoch(ship.Epoch)
		obj.replica = true
		obj.home = from
		k.mu.Lock()
		if old := k.replicas[ship.Object]; old != nil {
			go old.destroyActiveState(0)
		}
		k.replicas[ship.Object] = obj
		k.mu.Unlock()
		k.loc.Learn(ship.Object, from, false)
		k.stReplicas.Add(1)
		return nil

	case msg.ShipMove:
		newEpoch := normEpoch(ship.Epoch)
		// Stale-epoch fence: a move shipment at or below the epoch this
		// node already hosts is a replay of an older transaction (a
		// retransmitted ship, or a source resolving a move this node has
		// since moved past). Executing it would fork the object's
		// history; refuse it instead.
		if cur, ok := k.lookupActive(ship.Object); ok && cur.epoch >= newEpoch {
			return fmt.Errorf("kernel: stale move of %v at epoch %d, already hosting epoch %d",
				ship.Object, newEpoch, cur.epoch)
		}
		tt, err := k.types.table(ship.TypeName)
		if err != nil {
			return err
		}
		obj := k.newObject(ship.Object, tt, ship.Version, ship.Frozen)
		if err := decodeWhole(&obj.rep, ship.Rep); err != nil {
			return fmt.Errorf("kernel: corrupt moved representation: %v", err)
		}
		obj.epoch = newEpoch
		// A move transports the representation but not short-term state
		// (processes cannot cross machines); the reincarnation
		// condition handler rebuilds temporary structures and respawns
		// behaviors at the new home, exactly as it would after a
		// passive activation.
		if tt.tm.Reincarnate != nil {
			if err := tt.tm.Reincarnate(obj); err != nil {
				return fmt.Errorf("kernel: reincarnation after move failed: %w", err)
			}
		}
		if err := k.install(obj); err != nil {
			return err
		}
		// Checkpoint durability travels with the object: the old home
		// deletes its record (it is no longer this object's home), so
		// an object that has ever checkpointed re-establishes a record
		// here — otherwise a post-move crash would lose state the
		// checkpoint promised to preserve. An object that never
		// checkpointed stays volatile, as before.
		if ship.Version > 0 {
			rec := store.Record{Object: ship.Object, TypeName: ship.TypeName,
				Version: ship.Version, Epoch: newEpoch, Frozen: ship.Frozen, Rep: ship.Rep}
			if err := k.store.Put(rec); err != nil && !errors.Is(err, store.ErrStale) {
				return fmt.Errorf("kernel: move checkpoint handoff: %w", err)
			}
		}
		k.mu.Lock()
		delete(k.backups, ship.Object)
		delete(k.lastShip, ship.Object)
		// Any base tracking left from an earlier residency here is
		// stale for the same reason the old home's is (see
		// moveObject): the first checkpoint after arrival ships full.
		delete(k.shipped, ship.Object)
		k.mu.Unlock()
		return nil

	case msg.ShipMoveProbe:
		// Move recovery asking: does this node host the object at (or
		// beyond) the probed epoch? "Yes" commits the crashed move at
		// the source; "no" (errProbeNotInstalled → StatusNoSuchObject)
		// rolls it back. Anything in between — a transport failure —
		// leaves the source in doubt, so only a positive identification
		// answers yes.
		probeEpoch := normEpoch(ship.Epoch)
		k.mu.Lock()
		cur, isActive := k.active[ship.Object]
		_, isFwd := k.forwards[ship.Object]
		k.mu.Unlock()
		if isActive && cur.epoch >= probeEpoch {
			return nil
		}
		if isFwd {
			// The object was installed here and has since moved on: from
			// the prober's point of view this move committed; the chase
			// protocol will follow the forwarding chain.
			return nil
		}
		if rec, ok := k.store.Stat(ship.Object); ok && !rec.Backup && normEpoch(rec.Epoch) >= probeEpoch {
			// Passive here at the probed epoch: the move installed and
			// the object has since checkpointed or passivated.
			return nil
		}
		return fmt.Errorf("%w: %v at epoch %d", errProbeNotInstalled, ship.Object, probeEpoch)

	default:
		return fmt.Errorf("kernel: unknown ship purpose %v", ship.Purpose)
	}
}

// evictUntil passivates least-recently-invoked idle objects until the
// node's memory use drops to the target, and reports whether it did.
// Only quiescent objects (no running or queued invocations,
// not replicas, not mid-move) are eligible; their active state is
// released — after a checkpoint if anything changed since the last — to
// be reincarnated transparently on the next invocation.
func (k *Kernel) evictUntil(target int64) bool {
	if target < 0 {
		target = 0
	}
	for {
		k.mu.Lock()
		if k.memInUse <= target {
			k.mu.Unlock()
			return true
		}
		// Choose the least-recently-invoked quiescent candidate.
		var victim *Object
		var oldest int64
		for _, o := range k.active {
			o.sched.Lock()
			eligible := o.state == stActive && !o.replica && o.quiescentLocked()
			last := o.lastInvoked
			o.sched.Unlock()
			if !eligible {
				continue
			}
			if victim == nil || last < oldest {
				victim, oldest = o, last
			}
		}
		k.mu.Unlock()
		if victim == nil {
			return false // nothing evictable; let the caller fail
		}
		// The scan let go of the victim's monitor, so a call may have
		// reached it since; the claim checks again, and a victim that is
		// no longer idle sends the scan round once more.
		if victim.claimPassivation(true) != nil {
			continue
		}
		if k.testHook != nil {
			k.testHook(hookEvictClaimed, victim)
		}
		if err := victim.passivateClaimed(); err != nil {
			// Checkpoint failed (e.g. media failure): stop evicting
			// rather than spin.
			return false
		}
		k.stEvictions.Add(1)
	}
}
