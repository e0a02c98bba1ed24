package kernel

import (
	"errors"

	"eden/internal/edenid"
	"eden/internal/killpoint"
	"eden/internal/msg"
	"eden/internal/store"
)

// This file holds the move transaction's I/O — the probe that settles a
// move intent a crash left, and the commit at the source — while the role
// policy decides (role.go). Refusing service while in doubt is the safe
// side: the destination may have installed the object and served acked
// writes, so serving the stale local record here would fork history.
// Resolution is lazy: the first touch (invoke, activation, locate query)
// starts it, not the boot, when peers may not be connected yet.

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

// resolveIntent settles the move intent it that survived a crash: it
// probes the destination's residency epoch and steps the answer. Only a
// settlement runs it.
func (k *Kernel) resolveIntent(id edenid.ID, it residency) {
	// Crash boundary: recovery holds the intent but has resolved
	// nothing — a kill here must leave the intent for the next
	// incarnation to resolve.
	killpoint.Hit(killpoint.MoveResolve)

	probe := msg.Ship{Purpose: msg.ShipMoveProbe, Object: id, Epoch: it.epoch}
	var err error
	for range probeAttempts {
		err = k.shipAndWait(it.node, probe, k.cfg.DefaultTimeout/probeAttempts)
		if !errors.Is(err, ErrTimeout) {
			break
		}
	}
	ev := roleEvent{kind: evProbeAnswered, answered: err == nil || errors.Is(err, ErrNoSuchObject), installed: err == nil}
	if !ev.installed {
		if ev.answered {
			// Crash boundary: verdict reached (the shipment never
			// installed), intent still durable — a kill here re-resolves
			// to the same verdict.
			killpoint.Hit(killpoint.MoveResolveRollback)
		}
		k.mu.Lock()
		_, fx := k.stepRoleLocked(id, ev, nil)
		k.mu.Unlock()
		if _, derr := k.applyRole(id, fx, nil); derr == nil && ev.answered {
			k.stMoveResolveBack.Add(1)
		}
		return
	}
	// The move committed everywhere but here: finish the source half of
	// the commit as moveObject would have, at the record's version.
	// Crash boundary: verdict reached, nothing released — a kill here
	// re-resolves to the same verdict.
	killpoint.Hit(killpoint.MoveResolveCommit)
	m, _ := k.store.Stat(id)
	k.commitMove(id, nil, ev, it, m.Version)
	k.stMoveResolveFwd.Add(1)
	// Crash boundary: the recovered move is fully committed — a kill here
	// must find the object serving at the destination only.
	killpoint.Hit(killpoint.MovePostCommit)
}

// commitMove is the source half of a move's commit to where it installed,
// at version ver, ev the live move's ack or recovery's probe answer: o is
// the leaving incarnation, nil in recovery. The policy went with the ship,
// and the sites this node shipped checkpoints to are its books no more.
func (k *Kernel) commitMove(id edenid.ID, o *Object, ev roleEvent, to residency, ver uint64) {
	var buf [2]roleEffect
	k.mu.Lock()
	_, fx := k.stepRoleLocked(id, ev, buf[:0])
	k.mu.Unlock()
	// The commit point is the forward over the stale local checkpoint (if
	// it fails, the next touch probes again); the incarnation stays in the
	// books until then, so a call meanwhile queues at it and is bounced.
	_, _ = k.applyRole(id, fx, &roleIO{rec: store.Record{Object: id, Version: ver, Epoch: to.epoch, Home: to.node, Forward: true}})
	if o != nil {
		k.removeActive(o)
	}
	k.loc.Forget(id)
	k.loc.Learn(id, to.node, false)
	// The new home will not refresh this home's checksites; the move
	// invalidate disables their serving floors until a checkpoint from
	// the new home arrives (see handleInvalidate).
	k.broadcastInvalidate(id, ver, true, to.node, nil)
}
