package kernel

import (
	"errors"
	"fmt"
	"time"

	"eden/internal/edenid"
	"eden/internal/killpoint"
	"eden/internal/msg"
	"eden/internal/store"
)

// This file implements move-transaction recovery: resolving a durable
// move intent that survived a crash to exactly one home.
//
// A move is a two-phase transaction ordered by per-object residency
// epochs. The source durably writes an intent (object, destination,
// new epoch) before the representation leaves the node; the
// destination installs under the new epoch and acks; the source then
// commits by durably deleting the intent and releasing the object. An
// intent found at boot therefore means the process died somewhere
// between "decided to move" and "committed", and the destination's
// state decides which — the decision table:
//
//	probe destination at the intent epoch | resolution
//	--------------------------------------+---------------------------
//	installed (epoch >= intent epoch,     | roll FORWARD: delete the
//	or moved on from there)               | local record and intent,
//	                                      | set the forwarding pointer,
//	                                      | refresh locator steering,
//	                                      | broadcast a move invalidate
//	not installed (StatusNoSuchObject)    | roll BACK: delete the
//	                                      | intent; the object resumes
//	                                      | service at this home
//	unreachable (timeout, transport)      | IN DOUBT: keep the intent,
//	                                      | refuse to serve the object,
//	                                      | retry on the next touch
//
// Refusing service while in doubt is the safe side: the destination
// may have installed the object and served acked writes, so serving
// the stale local record here would fork history. Resolution is lazy —
// triggered by the first touch (invoke, activation, locate query)
// rather than eagerly at boot, when peers may not be connected yet —
// one resolution at a time, however many touches find the move in doubt.

// errProbeNotInstalled is acceptShip's answer to a ShipMoveProbe for an
// object this node does not host at the probed epoch. serveShip maps it
// to StatusNoSuchObject so the probing source can distinguish "answered:
// not here" (roll back) from transport failure (stay in doubt).
var errProbeNotInstalled = errors.New("kernel: probed object not installed")

// moveOutcome is the verdict of one intent resolution.
type moveOutcome uint8

const (
	// moveUnresolved: the destination could not be reached (or a live
	// move owns the intent); the intent stays and the object must not
	// be served from this node's record.
	moveUnresolved moveOutcome = iota
	// moveRolledForward: the destination holds the object; this node
	// now forwards to it.
	moveRolledForward
	// moveRolledBack: the destination never installed; the object
	// resumes service at this home.
	moveRolledBack
)

// moveIntent is a durable move intent and its one resolution: done, made
// under k.mu by the first touch (settle), closes with outcome and err
// final. An intent left in doubt is replaced for the next touch.
type moveIntent struct {
	store.MoveIntent
	done    chan struct{}
	outcome moveOutcome
	err     error
}

// probeAttempts is how many probes a resolution sends, one at a time and
// each waiting its share of DefaultTimeout, to see a partition heal.
const probeAttempts = 4

// normEpoch maps the zero epoch (records and ships written before
// epochs existed) to the first epoch.
func normEpoch(e uint64) uint64 {
	if e == 0 {
		return 1
	}
	return e
}

// settle starts mi's resolution unless it is under way, and waits for it
// until deadline (a past one: not at all); after that the move is in doubt.
func (k *Kernel) settle(mi *moveIntent, deadline time.Time) (moveOutcome, error) {
	k.mu.Lock()
	if mi.done == nil {
		mi.done = make(chan struct{})
		go func() {
			mi.outcome, mi.err = k.resolveIntent(mi)
			k.mu.Lock()
			if k.intents[mi.Object] == mi {
				k.intents[mi.Object] = &moveIntent{MoveIntent: mi.MoveIntent}
			}
			k.mu.Unlock()
			close(mi.done)
		}()
	}
	done := mi.done
	k.mu.Unlock()
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-done:
		return mi.outcome, mi.err
	case <-t.C:
		return moveUnresolved, fmt.Errorf("kernel: move of %v to node %d in doubt: %w", mi.Object, mi.Dest, ErrTimeout)
	}
}

// resolveIntent drives one crashed move transaction to a verdict by
// probing the destination's residency epoch. Only settle runs it, one
// run per intent at a time; a run that finds the intent settled
// meanwhile reads the verdict back from the forwarding table.
func (k *Kernel) resolveIntent(mi *moveIntent) (moveOutcome, error) {
	id := mi.Object
	k.mu.Lock()
	pending := k.intents[id] == mi
	_, isActive := k.active[id]
	fwd, isFwd := k.forwards[id]
	k.mu.Unlock()
	if !pending {
		// An earlier resolution, or the live move's own commit or abort,
		// settled the intent; read its verdict back.
		if isFwd && fwd == mi.Dest {
			return moveRolledForward, nil
		}
		return moveRolledBack, nil
	}
	if isActive {
		// A live move transaction owns this intent (moveObject wrote it
		// and is still running); recovery must not race the commit.
		return moveUnresolved, fmt.Errorf("kernel: move of %v to node %d in flight", id, mi.Dest)
	}

	// Crash boundary: recovery holds the intent but has resolved
	// nothing — a kill here must leave the intent for the next
	// incarnation to resolve.
	killpoint.Hit(killpoint.MoveResolve)

	probe := msg.Ship{Purpose: msg.ShipMoveProbe, Object: id, Epoch: mi.Epoch}
	var err error
	for range probeAttempts {
		err = k.shipAndWait(mi.Dest, probe, k.cfg.DefaultTimeout/probeAttempts)
		if !errors.Is(err, ErrTimeout) {
			break
		}
	}
	if err != nil && errors.Is(err, ErrNoSuchObject) {
		// The destination answered and does not hold the object: the
		// shipment never installed, so the move rolls back and the
		// object resumes service here, at its pre-move epoch.
		// Crash boundary: verdict reached, intent still durable — a
		// kill here re-resolves to the same verdict.
		killpoint.Hit(killpoint.MoveResolveRollback)
		if derr := k.store.DeleteIntent(id); derr != nil {
			return moveUnresolved, fmt.Errorf("kernel: move rollback of %v: %w", id, derr)
		}
		k.mu.Lock()
		delete(k.intents, id)
		k.mu.Unlock()
		k.stMoveResolveBack.Add(1)
		return moveRolledBack, nil
	}
	if err != nil {
		// Unreachable destination: it may be serving the object (and
		// acked writes) behind a partition, so the local record cannot
		// be trusted. Stay in doubt; the next touch retries.
		return moveUnresolved, fmt.Errorf("kernel: move of %v to node %d in doubt: %w", id, mi.Dest, err)
	}

	// The destination holds the object at (or beyond) the intent epoch:
	// the move committed everywhere but here. Roll forward — finish the
	// source half of the commit exactly as moveObject would have.
	// Crash boundary: verdict reached, nothing released — a kill here
	// re-resolves to the same verdict.
	killpoint.Hit(killpoint.MoveResolveCommit)
	// Version 0: a move invalidate retires shadows and re-steers the
	// locator regardless of version (see handleInvalidate).
	k.commitMove(id, nil, mi.Dest, 0)
	k.stMoveResolveFwd.Add(1)
	// Crash boundary: the recovered move is fully committed — a kill
	// here must find the object serving at the destination only.
	killpoint.Hit(killpoint.MovePostCommit)
	return moveRolledForward, nil
}

// commitMove is the source half of a move's commit: o is the leaving
// incarnation, nil when recovery rolls a move forward. The policy went
// with the ship; the acked versions end here: kept as incremental bases
// for a return, they would omit changes — deletions too — made at other
// homes.
func (k *Kernel) commitMove(id edenid.ID, o *Object, to uint32, ver uint64) {
	k.mu.Lock()
	if o != nil {
		k.unchargeLocked(o)
	}
	k.forwards[id] = to
	k.stepRoleLocked(id, roleEvent{kind: evMoveOut}, nil)
	delete(k.intents, id)
	k.mu.Unlock()
	// The stale local checkpoint would otherwise make this node claim to
	// be home again after a restart.
	_ = k.store.Delete(id)
	// The commit point: once the intent is durably gone, no future
	// incarnation of this node will question the move (if the delete
	// fails, the next boot re-resolves to the same verdict).
	_ = k.store.DeleteIntent(id)
	k.loc.Forget(id)
	k.loc.Learn(id, to, false)
	// The new home will not refresh this home's checksites; the move
	// invalidate disables their serving floors until a checkpoint from
	// the new home arrives (see handleInvalidate).
	k.broadcastInvalidate(id, ver, true, to, nil)
}
