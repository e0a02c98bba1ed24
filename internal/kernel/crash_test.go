package kernel

// Whitebox crash-boundary tests: killpoint coverage of the lifecycle
// paths, and the move-abort re-admission regression.

import (
	"sync"
	"testing"
	"time"

	"eden/internal/edenid"
	"eden/internal/killpoint"
	"eden/internal/store"
)

// injectIntent plants a move intent on k the way a crash would leave
// it: durable in the store and in the role table as a boot scan puts it.
func injectIntent(k *Kernel, it store.MoveIntent) {
	if err := k.store.PutIntent(it); err != nil {
		panic(err)
	}
	k.mu.Lock()
	k.stepRoleLocked(it.Object, roleEvent{kind: evBoot, from: it.Dest, epoch: it.Epoch}, nil)
	k.mu.Unlock()
}

// pendingIntent reports the move intent k holds for id, if any.
func (k *Kernel) pendingIntent(id edenid.ID) (store.MoveIntent, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if r := k.roles[id]; r != nil && r.intent.node != 0 {
		return store.MoveIntent{Object: id, Dest: r.intent.node, Epoch: r.intent.epoch}, true
	}
	return store.MoveIntent{}, false
}

// resolvePendingIntent settles id's move intent the way an activation
// does, and reports whether the move rolled forward: whether k now
// forwards the object.
func (k *Kernel) resolvePendingIntent(id edenid.ID) (forwarded bool, err error) {
	err = k.settle(id, time.Now().Add(k.cfg.DefaultTimeout))
	k.mu.Lock()
	defer k.mu.Unlock()
	r := k.roles[id]
	return r != nil && r.fwd.node != 0, err
}

// TestKillpointSweep drives every lifecycle path that carries a crash
// boundary and asserts each registered killpoint actually fires —
// so a killpoint can never silently fall out of the kernel while the
// recovery table tests keep "passing" against nothing.
func TestKillpointSweep(t *testing.T) {
	killpoint.Reset()
	t.Cleanup(killpoint.Reset)
	killpoint.Observe()

	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil) // checkpoint.{pre,post}-sync

	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Passivate(); err != nil { // passivate.pre-release
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "get", nil) // reincarnate.pre-install

	obj, err = s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err != nil { // move.{pre-ship,intent-durable,pre-commit,post-commit}
		t.Fatal(err)
	}

	// The resolve boundaries fire only in move recovery: inject
	// surviving intents the way a crash would leave them.
	// Rollback: an intent whose destination never installed the object.
	capR, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], capR, "inc", nil)
	objR, err := s.ks[1].Object(capR.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := objR.Passivate(); err != nil {
		t.Fatal(err)
	}
	injectIntent(s.ks[1], store.MoveIntent{Object: capR.ID(), Dest: 2, Epoch: 2})
	mustInvoke(t, s.ks[1], capR, "get", nil) // move.resolve + move.resolve-rollback
	if st := s.ks[1].Stats(); st.MoveResolveRollbacks != 1 {
		t.Errorf("MoveResolveRollbacks = %d, want 1", st.MoveResolveRollbacks)
	}

	// Commit: re-inject the committed move's intent — the destination
	// (node 2) holds the object at the intent epoch, so resolution rolls
	// forward.
	injectIntent(s.ks[1], store.MoveIntent{Object: cap.ID(), Dest: 2, Epoch: 2})
	if forwarded, err := s.ks[1].resolvePendingIntent(cap.ID()); !forwarded {
		t.Fatalf("resolvePendingIntent = %v, %v; want rolled forward", forwarded, err) // move.resolve-commit
	}

	// A home restarted with a remote checksite claims its record again.
	capC, err := s.ks[1].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2}}})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], capC, "checkpoint", nil)
	s.crashNode(1)
	mustInvoke(t, s.restartNode(1), capC, "get", nil) // claim.granted

	for _, p := range killpoint.Points() {
		if killpoint.Hits(p) == 0 {
			t.Errorf("killpoint %q never fired during the lifecycle sweep (%s)", p, killpoint.String())
		}
	}
}

// TestMoveAbortReadmitsHeldCalls pins the move-abort gap: invocations
// arriving while the object is mid-move are held at the coordinator;
// when the move aborts, they must be re-admitted and served — not left
// to rot in the held queue until the caller's timeout.
func TestMoveAbortReadmitsHeldCalls(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)

	// Sever the link so the shipment can only time out (after the
	// node's 750ms DefaultTimeout), leaving a wide stMoving window.
	s.mesh.Partition(1, 2)
	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	moveDone := obj.Move(2)
	time.Sleep(150 * time.Millisecond) // let the move quiesce and enter stMoving
	select {
	case <-moveDone:
		t.Fatal("move settled before the held-call window; partition did not hold")
	default:
	}

	// These arrive during the move and are held. Their deadline (5s) is
	// far beyond the abort (~750ms): before the fix they hung until
	// that deadline; with it they complete shortly after the abort.
	const held = 3
	var wg sync.WaitGroup
	errs := make([]error, held)
	start := time.Now()
	for i := 0; i < held; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.ks[1].Invoke(cap, "inc", nil, nil, &InvokeOptions{Timeout: 5 * time.Second})
		}(i)
	}

	if err := <-moveDone; err == nil {
		t.Fatal("move across a partition succeeded")
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Errorf("held call %d not re-admitted after move abort: %v", i, err)
		}
	}
	if elapsed > 3*time.Second {
		t.Errorf("held calls took %v: served by caller-timeout, not re-admission", elapsed)
	}
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != held+1 {
		t.Errorf("counter = %d after re-admitted incs, want %d", got, held+1)
	}
	if st := s.ks[1].Stats(); st.MoveAborts != 1 {
		t.Errorf("MoveAborts = %d, want 1", st.MoveAborts)
	}
}
