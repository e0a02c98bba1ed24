package kernel

import (
	"eden/internal/edenid"
	"eden/internal/msg"
)

// This file implements checkpoint-serving read replicas: a checksite
// holding a mutable object's last checkpoint may (with
// Config.ReplicaServe) reincarnate that record into a read-only
// *shadow* and serve stale-tolerant AccessRead invocations from it.
// This extends the paper's replication story — which covers only
// frozen (immutable) objects — to mutable objects, trading currency
// for availability exactly as Weaver's checkpoint mechanism suggests:
// the shadow is never newer than the home's last checkpoint, and never
// older than the last checkpoint this site acknowledged.
//
// The staleness bound is anchored on the synchronous checkpoint ship:
// writeCheckpoint waits for each checksite's ack before the writer's
// invocation replies, so by the time any caller can observe version V,
// every acked checksite already holds V and has raised its serving
// floor to V. The invalidation broadcast below is belt-and-braces for
// nodes outside that handshake — lagging checksites, ex-checksites,
// and every node's locator hint cache.

// floorDisabled is the minServe sentinel meaning "do not serve any
// shadow of this object": set when the object's home moves (the new
// home does not ship checkpoints here, so no local record can be
// trusted as current), cleared by the next accepted checkpoint ship.
const floorDisabled = ^uint64(0)

// replicaShadow returns a servable checkpoint shadow for id, creating
// one from the local backup record if necessary. It returns nil when
// this node cannot serve the object — no backup, record below the
// serving floor, or the floor disabled by a move — counting the reason
// under kernel.replica.stale_serve or kernel.replica.miss.
func (k *Kernel) replicaShadow(id edenid.ID) *Object {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return nil
	}
	home, isBackup := k.backups[id]
	floor := k.minServe[id]
	cached := k.replicas[id]
	k.mu.Unlock()
	if !isBackup {
		k.tel.replicaMiss.Inc()
		return nil
	}
	if floor == floorDisabled {
		k.tel.replicaStale.Inc()
		return nil
	}
	// A shadow's version is fixed at construction, so the plain field
	// read is safe once the shadow is published (see Object.shadow).
	if cached != nil && (!cached.shadow || cached.version >= floor) {
		return cached
	}

	rec, err := k.store.Get(id)
	if err != nil {
		k.tel.replicaMiss.Inc()
		return nil
	}
	if rec.Version < floor {
		// The record predates the last acked checkpoint: serving it
		// would violate the staleness bound. The caller goes home.
		k.tel.replicaStale.Inc()
		return nil
	}
	tt, err := k.types.table(rec.TypeName)
	if err != nil {
		k.tel.replicaMiss.Inc()
		return nil
	}
	// The shadow is constructed frozen: it is a snapshot, and freezing
	// makes even a mis-registered mutating handler fail at Update.
	// validate's replica gate refuses anything not AccessRead before
	// that can matter.
	obj := k.newObject(id, tt, rec.Version, true)
	if decodeWhole(&obj.rep, rec.Rep) != nil {
		k.tel.replicaMiss.Inc()
		return nil
	}
	obj.epoch = normEpoch(rec.Epoch)
	obj.replica = true
	obj.shadow = true
	obj.home = home

	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return nil
	}
	// Re-validate under the lock: an invalidation or a fresher ship may
	// have raced the reincarnation.
	if f := k.minServe[id]; f == floorDisabled || rec.Version < f {
		k.mu.Unlock()
		k.tel.replicaStale.Inc()
		return nil
	}
	old := k.replicas[id]
	if old != nil && (!old.shadow || old.version >= rec.Version) {
		k.mu.Unlock()
		return old // lost a benign race; serve the winner
	}
	k.replicas[id] = obj
	k.mu.Unlock()
	if old != nil {
		go old.destroyActiveState(home)
	}
	k.stReplicas.Add(1)
	return obj
}

// ReplicaStatus describes this node's serving state for one object it
// backs up: where the home is, the floor below which no shadow may be
// served (checkpoint versions this site has acked), and whether a
// materialized shadow is currently live.
type ReplicaStatus struct {
	//edenvet:ignore capleak operator diagnostics view (edennode /replicas) identifies records by name, like an anatomy dump; no authority is conferred
	Object edenid.ID `json:"object"`
	Home   uint32    `json:"home"`
	// Floor is the minimum checkpoint version this node may serve.
	// Disabled reports the post-move state: the record is orphaned and
	// nothing is served until the new home ships a checkpoint here.
	Floor    uint64 `json:"floor"`
	Disabled bool   `json:"disabled,omitempty"`
	// Shadow is true when a read-only shadow is materialized and
	// serving; Version is its checkpoint version (0 if none).
	Shadow  bool   `json:"shadow,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// Replicas snapshots the node's replica-serving state, one entry per
// backed-up object. Operator surface (edennode's /replicas view); the
// live path never calls it.
func (k *Kernel) Replicas() []ReplicaStatus {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]ReplicaStatus, 0, len(k.backups))
	for id, home := range k.backups {
		st := ReplicaStatus{Object: id, Home: home}
		if f := k.minServe[id]; f == floorDisabled {
			st.Disabled = true
		} else {
			st.Floor = f
		}
		if sh := k.replicas[id]; sh != nil && sh.shadow {
			st.Shadow = true
			st.Version = sh.version
		}
		out = append(out, st)
	}
	return out
}

// handleInvalidate applies one invalidation frame: a checkpoint raised
// the object's acked version (raise the serving floor, retire older
// shadows, refresh the locator's replica steering), or the object
// moved (disable serving from records the new home will not refresh).
func (k *Kernel) handleInvalidate(env msg.Envelope) {
	iv, err := msg.DecodeInvalidate(env.Payload)
	if err != nil {
		return
	}
	k.tel.replicaInvalidate.Inc()
	id := iv.Object
	if iv.Move {
		var retire *Object
		k.mu.Lock()
		if _, isBackup := k.backups[id]; isBackup {
			// The new home does not ship checkpoints to the old home's
			// checksites, so this record only grows staler; refuse to
			// serve until a checkpoint from the new home arrives.
			k.minServe[id] = floorDisabled
		}
		if sh := k.replicas[id]; sh != nil && sh.shadow {
			delete(k.replicas, id)
			retire = sh
		}
		k.mu.Unlock()
		if retire != nil {
			go retire.destroyActiveState(iv.Home)
		}
		k.loc.Forget(id)
		k.loc.Learn(id, iv.Home, false)
		return
	}
	var retire *Object
	k.mu.Lock()
	if _, isBackup := k.backups[id]; isBackup {
		if f := k.minServe[id]; f == floorDisabled || f < iv.Version {
			k.minServe[id] = iv.Version
		}
	}
	if sh := k.replicas[id]; sh != nil && sh.shadow && sh.version < iv.Version {
		delete(k.replicas, id)
		retire = sh
	}
	k.mu.Unlock()
	if retire != nil {
		// Queued and racing calls bounce to the home rather than
		// reporting a crash; the next stale-tolerant read reincarnates
		// a fresh shadow from the new record.
		go retire.destroyActiveState(iv.Home)
	}
	k.loc.SetReplicas(id, iv.Home, iv.Sites)
}

// broadcastInvalidate announces a new acked checkpoint version (or a
// move) to the mesh. Fire and forget: correctness does not ride on
// delivery — each checksite's floor already rose synchronously when it
// acked the ship (acceptShip), before any caller could observe the new
// version. The broadcast retires shadows on lagging or ex-checksites
// and refreshes locator steering; a lost frame only delays that until
// the next checkpoint.
func (k *Kernel) broadcastInvalidate(id edenid.ID, ver uint64, move bool, home uint32, sites []uint32) {
	iv := msg.Invalidate{Object: id, Home: home, Version: ver, Move: move, Sites: sites}
	_ = k.send(msg.Envelope{Kind: msg.KindInvalidate, To: msg.Broadcast}, msg.Encode(iv))
}
