package kernel

import (
	"errors"
	"fmt"
	"slices"
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

// activate reincarnates a passive object from this node's store if the
// record there is its own (judgeRecord). A backup is refused — recovery
// promotes it first — and a doubt (a move intent to probe, a record to
// claim) is settled first, for no longer than DefaultTimeout and outside
// activationMu, so that a probe stalls no other reincarnation on the
// node.
func (k *Kernel) activate(id edenid.ID) (*Object, error) {
	switch v, err := k.resolve(id, time.Now().Add(k.cfg.DefaultTimeout), false); v.role {
	case noRecord:
		return nil, fmt.Errorf("%w: no record of %v here", ErrNoCheckpoint, id)
	case backupRecord:
		return nil, fmt.Errorf("%w: %v is a checksite backup (home may be alive)", ErrNoCheckpoint, id)
	case forwarded:
		return nil, fmt.Errorf("%w: %v moved to node %d", ErrNoSuchObject, id, v.node)
	case inDoubt:
		return nil, fmt.Errorf("%w: %v", ErrNoCheckpoint, err)
	}
	return k.reincarnate(id)
}

// reincarnate makes an incarnation from a record its caller judged this
// node's own: "When a passive object is 'reincarnated' into an active
// one, the kernel creates a new coordinator process for the object. The
// coordinator will block the invocation while it attempts to execute the
// object's reincarnation condition handler." Here the coordinator is a
// monitor (Object.sched) and the blocking is activationMu's: the handler
// runs before the incarnation is installed, so no call can reach it.
func (k *Kernel) reincarnate(id edenid.ID) (*Object, error) {
	k.activationMu.Lock()
	defer k.activationMu.Unlock()
	if o, ok := k.lookupActive(id); ok {
		return o, nil // lost a benign race with another activation
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
	obj, err := k.incarnate(id, tt, rec.Version, rec.Frozen, rec.Rep)
	if err != nil {
		return nil, fmt.Errorf("kernel: corrupt checkpoint for %v: %v", id, err)
	}
	obj.epoch = normEpoch(rec.Epoch)
	if !rec.Backup {
		obj.saved = rec.Version
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
	o.mu.Lock()
	if o.replica {
		o.mu.Unlock()
		return fmt.Errorf("kernel: replicas do not checkpoint")
	}
	o.version++
	ver := o.version
	// The snapshot holds every change up to stamp; once it is durable
	// the clean mark rises to it. A failed checkpoint changes nothing, so
	// nothing has to be put back.
	stamp := o.rep.Stamp()
	encoded, lent := o.encodeCheckpoint()
	defer lent.Free() // after the store, the ships and the telemetry are done with encoded
	frozen := o.frozen
	o.mu.Unlock()

	// Crash boundary: the version is advanced in memory but nothing is
	// durable — a kill here must recover to the previous checkpoint.
	killpoint.Hit(killpoint.CheckpointPreSync)
	start := o.k.tel.ckptLat.Start()
	local, err := o.k.writeCheckpoint(o.id, o.table.tm.Name, ver, o.epoch, frozen, encoded)
	if err != nil {
		return err
	}
	// Crash boundary: the checkpoint is durable but the caller has not
	// learned of it — a kill here loses the acknowledgment, never the
	// data.
	killpoint.Hit(killpoint.CheckpointPostSync)
	o.mu.Lock()
	o.rep.MarkClean(stamp)
	// A later checkpoint may have finished first; one before a Freeze lacks the flag.
	if local && ver > o.saved && frozen == o.frozen {
		o.saved = ver
	}
	o.mu.Unlock()
	o.k.tel.ckptLat.ObserveSince(start)
	o.k.stCkpt.Add(1)
	o.k.stCkptBytes.Add(int64(len(encoded)))
	return nil
}

// encodeCheckpoint returns the encoding of o's representation that a
// checkpoint writes. A store that copies it before Put returns
// (Kernel.lendRep) is lent it in a pooled buffer, also returned, which
// the caller frees once the checkpoint is written; another store, which
// may keep it, and an encoding too long for the pool get a fresh one of
// its exact size, and a nil buffer. Caller holds o.mu.
func (o *Object) encodeCheckpoint() ([]byte, *msg.Buffer) {
	if o.k.lendRep {
		if b := msg.FrameBuffer(o.rep.EncodedSize()); b != nil {
			b.B = o.rep.Encode(b.B[:0])
			return b.B, b
		}
	}
	return o.rep.Encode(nil), nil
}

// decodeWhole decodes into r an encoding that must fill src exactly: a
// record's or a shipment's representation, in table when it has room
// (segment.DecodeInto). Names and data segments alias src.
func decodeWhole(r *segment.Representation, src []byte, table []segment.Segment) error {
	rest, err := segment.DecodeInto(r, src, table)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d bytes after the representation", segment.ErrBadEncoding, len(rest))
	}
	return err
}

// SetChecksite selects "which node is responsible for maintaining its
// long-term storage, and what level of reliability is required". The
// policy is written with the next checkpoint; a site it drops stays an
// ex-checksite, which Destroy reaches.
func (o *Object) SetChecksite(level Reliability, sites ...uint32) error {
	policy, err := newPolicy(level, sites)
	if err != nil {
		return err
	}
	k := o.k
	k.mu.Lock()
	k.stepRoleLocked(o.id, roleEvent{kind: evPolicy, policy: policy}, nil)
	k.mu.Unlock()
	return nil
}

// newPolicy checks a checksite policy a caller chose, and copies it.
func newPolicy(level Reliability, sites []uint32) (checksitePolicy, error) {
	if (level == RelRemote || level == RelReplicated) && len(sites) == 0 {
		return checksitePolicy{}, fmt.Errorf("kernel: reliability %v needs at least one remote site", level)
	}
	if len(sites) > store.MaxSites {
		return checksitePolicy{}, fmt.Errorf("kernel: %d checksites, more than a record holds (%d)", len(sites), store.MaxSites)
	}
	return checksitePolicy{level: level, sites: slices.Clone(sites)}, nil
}

// roleOf snapshots an object's role; the zero state (RelLocal, no
// backup) when it has none. Its slices are never written in place, so
// the snapshot may be read after the lock is dropped.
func (k *Kernel) roleOf(id edenid.ID) roleState {
	k.mu.Lock()
	defer k.mu.Unlock()
	if r := k.roles[id]; r != nil {
		return r.roleState
	}
	return roleState{}
}

// writeCheckpoint persists one checkpoint where the object's role says
// (roleStep), and the policy and the ex-checksites go with it, in the
// record and in every ship. "Different reliability levels may cause
// different actions when a checkpoint is issued." Every remote checksite
// receives the full representation, all at once. local reports that this
// node's store now holds exactly this version as the home record (a
// stale Put is tolerated but leaves something else there).
func (k *Kernel) writeCheckpoint(id edenid.ID, typeName string, ver, epoch uint64, frozen bool, encoded []byte) (local bool, err error) {
	var buf [4]roleEffect
	k.mu.Lock()
	role, fx := k.stepRoleLocked(id, roleEvent{kind: evCheckpoint}, buf[:0])
	k.mu.Unlock()
	policy := role.durable()
	out, err := k.applyRole(id, fx, &roleIO{
		rec:     store.Record{Object: id, TypeName: typeName, Version: ver, Epoch: epoch, Frozen: frozen, Policy: policy, Rep: encoded},
		ship:    msg.Ship{Purpose: msg.ShipCheckpoint, Object: id, TypeName: typeName, Frozen: frozen, Version: ver, Epoch: epoch, Policy: policy, Rep: encoded},
		timeout: k.cfg.DefaultTimeout})
	var acked []uint32
	for i, ack := range out.acks {
		if ack == nil {
			acked = append(acked, out.sites[i])
		} else if err == nil {
			err = fmt.Errorf("kernel: checkpoint to site %d: %w", out.sites[i], ack)
		}
	}
	// Every acked site already raised its serving floor to ver when
	// it acknowledged the ship; the broadcast retires shadows on
	// non-acked checksites and tells every node's locator which sites
	// now hold ver.
	if len(acked) > 0 {
		k.broadcastInvalidate(id, ver, false, k.cfg.Node, acked)
	}
	return out.wrote, err
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
	for _, cl := range o.cs.rows(len(o.table.classes)) {
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

// Destroy crashes the object and deletes its long-term state, here and
// at every remote site that may hold a record of it: the current
// checksites and every ex-checksite (role.go) — a record left behind
// would be promoted by failure recovery and bring the object back. The
// deletions go out in parallel, so a silent site costs one
// DefaultTimeout however many there are. Outstanding capabilities
// dangle and report ErrNoSuchObject. A site that does not acknowledge
// the deletion is named in the error.
func (o *Object) Destroy() error {
	o.k.removeActive(o)
	o.destroyActiveState(0)
	k := o.k
	k.mu.Lock()
	_, fx := k.stepRoleLocked(o.id, roleEvent{kind: evDestroy}, nil)
	k.mu.Unlock()
	k.loc.Forget(o.id)
	out, err := k.applyRole(o.id, fx, &roleIO{ship: msg.Ship{Purpose: msg.ShipDestroy, Object: o.id, Epoch: o.epoch},
		timeout: k.cfg.DefaultTimeout})
	var missed []uint32
	for i, ack := range out.acks {
		if ack != nil {
			missed = append(missed, out.sites[i])
		}
	}
	if len(missed) > 0 && err == nil {
		err = fmt.Errorf("kernel: destroy of %v not acknowledged by checksite(s) %v", o.id, missed)
	}
	return err
}

// removeActive takes an incarnation out of the node's books: a home's,
// and its charge, out of the active table, a replica's or shadow's out
// of the table that holds it.
func (k *Kernel) removeActive(o *Object) {
	k.mu.Lock()
	if !o.replica {
		k.unchargeLocked(o)
	} else if k.replicas[o.id] == o {
		delete(k.replicas, o.id)
	} else if r := k.roles[o.id]; r != nil && r.shadow == o {
		r.shadow = nil
	}
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
	queued := o.cs.drain(o.table.classes)
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
	var left int64
	for c := queued; c != nil; left++ {
		next := c.next
		c.next = nil
		c.finish(downReply(movedTo, passive))
		c = next
	}
	o.k.tel.admissionDepth.Add(-left)
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
	if !o.frozen {
		o.frozen, o.saved = true, 0 // no record holds the flag yet
	}
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
	// The checksite policy travels with the object: the new home
	// checkpoints where this one did, and its Destroy reaches them.
	role := k.roleOf(o.id)
	ship := msg.Ship{Purpose: msg.ShipMove, Object: o.id, TypeName: o.table.tm.Name, Frozen: frozen, Version: ver, Epoch: newEpoch,
		Policy: role.durable(), Rep: encoded}
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
	k.stepRoleLocked(o.id, roleEvent{kind: evMoveStart, from: to, epoch: newEpoch}, nil)
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
		// destination's installation: TestRolePolicyMoveAckLost.)
		k.mu.Lock()
		_, fx := k.stepRoleLocked(o.id, roleEvent{kind: evMoveAborted}, nil)
		k.mu.Unlock()
		_, _ = k.applyRole(o.id, fx, nil) // an intent not deleted is probed once the object passivates
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

	// Commit: we are no longer the home; leave a forward.
	k.commitMove(o.id, o, roleEvent{kind: evMoveAcked, from: to, epoch: newEpoch}, residency{to, newEpoch}, ver)
	k.stMoves.Add(1)
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
		if errors.Is(err, errProbeNotInstalled) || errors.Is(err, errSuperseded) {
			// A definite "not here" answer to a move-recovery probe, or
			// "not yours" to a claim; the sender distinguishes it from
			// transport failure.
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
		// backup, to be served only during failure recovery — or, for a
		// claim, grant the sender the object (role.go).
		var buf [4]roleEffect
		k.mu.Lock()
		// Read under k.mu, the record agrees with the role: a granted
		// claim's home record lands before the step that ends its doubt.
		m, here := k.store.Stat(ship.Object)
		cur, live := k.active[ship.Object]
		var prev *role
		var rs roleState
		if r := k.roles[ship.Object]; r != nil {
			saved := *r
			prev, rs = &saved, r.roleState
		}
		own := judgeRole(rs, prev != nil, here, m).role == ownRecord
		ev := roleEvent{kind: evShip, from: from, version: ship.Version, epoch: normEpoch(ship.Epoch),
			policy: policyOf(ship.Policy), ex: ship.Ex, claim: ship.Claim, serving: live || own, record: here, rec: m,
			fresh: prev != nil && prev.home != 0 && time.Since(prev.lastShip) < k.cfg.RecoverGrace}
		if live {
			ev.rec.Epoch = cur.epoch
		}
		s, fx := k.stepRoleLocked(ship.Object, ev, buf[:0])
		if r := k.roles[ship.Object]; r != nil && r.home == from && !slices.ContainsFunc(fx, roleEffect.refuses) {
			// The ship is also a home heartbeat: it fences recovery
			// claims for Config.RecoverGrace.
			r.lastShip = time.Now()
		}
		k.mu.Unlock()
		out, err := k.applyRole(ship.Object, fx, &roleIO{rec: store.Record{Object: ship.Object, TypeName: ship.TypeName,
			Version: ship.Version, Epoch: ship.Epoch, Frozen: ship.Frozen, Backup: true, Home: from, Policy: ship.Policy, Rep: ship.Rep}})
		if err != nil && !out.refused {
			// The record did not reach the store: no ack, and the step is
			// undone, unless a later event has changed the entry since.
			k.mu.Lock()
			if r := k.roles[ship.Object]; r != nil && r.roleState.same(s) {
				if prev != nil {
					r.roleState, r.lastShip = prev.roleState, prev.lastShip
				} else {
					delete(k.roles, ship.Object)
				}
			}
			k.mu.Unlock()
		}
		return err

	case msg.ShipReplica:
		tt, err := k.types.table(ship.TypeName)
		if err != nil {
			return err
		}
		obj, err := k.incarnate(ship.Object, tt, ship.Version, true, ship.Rep)
		if err != nil {
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
		var s roleState
		var hosting uint64
		k.mu.Lock()
		if cur, live := k.active[ship.Object]; live {
			hosting = cur.epoch
		}
		if r := k.roles[ship.Object]; r != nil {
			s = r.roleState
		}
		k.mu.Unlock()
		if err := moveFence(s, hosting, newEpoch); err != nil {
			return fmt.Errorf("%w: %v at epoch %d", err, ship.Object, newEpoch)
		}
		tt, err := k.types.table(ship.TypeName)
		if err != nil {
			return err
		}
		obj, err := k.incarnate(ship.Object, tt, ship.Version, ship.Frozen, ship.Rep)
		if err != nil {
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
		// The object's role here is now the home's, with the policy it
		// brought; a backup held here for the old home ends.
		m, here := k.store.Stat(ship.Object)
		var buf [4]roleEffect
		k.mu.Lock()
		_, fx := k.stepRoleLocked(ship.Object, roleEvent{kind: evMoveIn, version: ship.Version, record: here, rec: m,
			policy: policyOf(ship.Policy), ex: ship.Ex}, buf[:0])
		k.mu.Unlock()
		// Checkpoint durability travels with the object: the old home
		// deletes its record (it is no longer this object's home), so
		// an object that has ever checkpointed re-establishes a record
		// here — otherwise a post-move crash would lose state the
		// checkpoint promised to preserve. An object that never
		// checkpointed stays volatile, as before.
		if _, err := k.applyRole(ship.Object, fx, &roleIO{rec: store.Record{Object: ship.Object, TypeName: ship.TypeName,
			Version: ship.Version, Epoch: newEpoch, Frozen: ship.Frozen, Policy: ship.Policy, Rep: ship.Rep}}); err != nil {
			return fmt.Errorf("kernel: move checkpoint handoff: %w", err)
		}
		return nil

	case msg.ShipDestroy:
		// The home destroyed the object: drop the record held for it.
		m, here := k.store.Stat(ship.Object)
		var buf [4]roleEffect
		k.mu.Lock()
		_, live := k.active[ship.Object]
		_, fx := k.stepRoleLocked(ship.Object, roleEvent{kind: evDestroyShip, from: from, epoch: normEpoch(ship.Epoch),
			serving: live, record: here, rec: m}, buf[:0])
		k.mu.Unlock()
		out, err := k.applyRole(ship.Object, fx, nil)
		if out.refused {
			return fmt.Errorf("%w: %v, for node %d", err, ship.Object, from)
		}
		return err

	case msg.ShipMoveProbe:
		// Move recovery asking whether this node installed the move
		// (role.go): "yes" commits the crashed move at the source; "no"
		// (errProbeNotInstalled → StatusNoSuchObject) rolls it back.
		m, here := k.store.Stat(ship.Object)
		k.mu.Lock()
		if cur, live := k.active[ship.Object]; live {
			m, here = store.Meta{Epoch: cur.epoch}, true
		}
		_, fx := k.stepRoleLocked(ship.Object, roleEvent{kind: evProbe, epoch: normEpoch(ship.Epoch), record: here, rec: m}, nil)
		k.mu.Unlock()
		_, err := k.applyRole(ship.Object, fx, nil)
		return err

	default:
		return fmt.Errorf("kernel: unknown ship purpose %v", ship.Purpose)
	}
}

// evictUntil passivates least-recently-invoked idle objects until the
// node's memory use drops to the target, and reports whether it did.
// Only quiescent objects (no running or queued invocations, not
// mid-move) are eligible; their active state is
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
			eligible := o.state == stActive && o.quiescentLocked()
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
