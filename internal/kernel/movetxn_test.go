package kernel

// Whitebox tests for the move transaction's recovery paths
// (movetxn.go). Each test plants crash debris in a node's store exactly
// the way a killed process would leave it — a durable record and a
// surviving move intent — restarts the node, and asserts the first
// touch resolves the in-flight move to exactly one home. The blackbox
// equivalents (real SIGKILL at the killpoints) live in internal/chaos;
// these pin the decision table itself.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"eden/internal/killpoint"
	"eden/internal/msg"
	"eden/internal/store"
	"eden/internal/transport"
)

// plantMoveDebris re-creates the post-crash store state of a move
// coordinator: the pre-move checkpoint record plus the durable intent.
func plantMoveDebris(t *testing.T, st store.Store, rec store.Record, it store.MoveIntent) {
	t.Helper()
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.PutIntent(it); err != nil {
		t.Fatal(err)
	}
}

func wantNoIntents(t *testing.T, st store.Store) {
	t.Helper()
	its, err := st.ListIntents()
	if err != nil {
		t.Fatal(err)
	}
	if len(its) != 0 {
		t.Errorf("intents survived resolution: %+v", its)
	}
}

// TestMoveRecoveryRollsForward pins the commit half of the decision
// table: the destination installed the object under the new epoch but
// the source died before its durable commit. On restart the source's
// first touch probes the destination, finds the installation, and rolls
// the move forward — the stale record and the intent are deleted, a
// forwarding pointer is laid down, and the call is served by the one
// real home.
func TestMoveRecoveryRollsForward(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	rec, err := s.stores[1].Get(cap.ID())
	if err != nil {
		t.Fatal(err)
	}

	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	if got := fromU64(mustInvoke(t, s.ks[2], cap, "inc", nil).Data); got != 3 {
		t.Fatalf("post-move inc = %d, want 3", got)
	}

	// Rewind the source to the pre-commit crash window: record and
	// intent durable, destination installed at epoch 2.
	s.crashNode(1)
	plantMoveDebris(t, s.stores[1], rec, store.MoveIntent{Object: cap.ID(), Dest: 2, Epoch: 2})
	k1 := s.restartNode(1)

	// The first touch must resolve forward and chase to the real home —
	// never serve the stale epoch-1 record (it predates an acked write).
	if got := fromU64(mustInvoke(t, k1, cap, "get", nil).Data); got != 3 {
		t.Errorf("read after roll-forward = %d, want the destination's 3", got)
	}
	if st := k1.Stats(); st.MoveResolveForwards != 1 || st.MoveResolveRollbacks != 0 {
		t.Errorf("resolve stats = fwd %d back %d, want 1/0", st.MoveResolveForwards, st.MoveResolveRollbacks)
	}
	if _, err := s.stores[1].Get(cap.ID()); err == nil {
		t.Error("stale pre-move record survived roll-forward")
	}
	wantNoIntents(t, s.stores[1])
	if ds := k1.DebugObjectState(cap.ID()); !strings.Contains(ds, "fwd=true") {
		t.Errorf("no forwarding pointer after roll-forward: %s", ds)
	}

	// Resolution is once per incarnation: the next touch rides the
	// forwarding pointer without re-probing.
	if got := fromU64(mustInvoke(t, k1, cap, "get", nil).Data); got != 3 {
		t.Errorf("second read = %d, want 3", got)
	}
	if st := k1.Stats(); st.MoveResolveForwards != 1 {
		t.Errorf("resolve ran %d times, want 1", st.MoveResolveForwards)
	}
}

// TestObjectReportsARollForward: an activation (Kernel.Object) that
// settles pre-commit debris by rolling the move forward reports the move
// (ErrNoSuchObject), not a missing record.
func TestObjectReportsARollForward(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	rec, err := s.stores[1].Get(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	s.crashNode(1)
	plantMoveDebris(t, s.stores[1], rec, store.MoveIntent{Object: cap.ID(), Dest: 2, Epoch: 2})
	k1 := s.restartNode(1)
	if _, err := k1.Object(cap.ID()); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Object after a roll-forward: err = %v, want ErrNoSuchObject", err)
	}
	if st := k1.Stats(); st.MoveResolveForwards != 1 {
		t.Errorf("MoveResolveForwards = %d, want 1", st.MoveResolveForwards)
	}
}

// TestMoveRecoveryRollsBack pins the abort half of the decision table:
// the intent went durable but the shipment never reached the
// destination. The probe answers "not installed", the intent is
// reclaimed, and the object reincarnates at its old home under its old
// epoch with all acked state intact.
func TestMoveRecoveryRollsBack(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)

	// Die between move.intent-durable and the shipment landing.
	s.crashNode(1)
	if err := s.stores[1].PutIntent(store.MoveIntent{Object: cap.ID(), Dest: 2, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	k1 := s.restartNode(1)

	if got := fromU64(mustInvoke(t, k1, cap, "get", nil).Data); got != 2 {
		t.Errorf("read after rollback = %d, want the checkpointed 2", got)
	}
	if st := k1.Stats(); st.MoveResolveRollbacks != 1 || st.MoveResolveForwards != 0 {
		t.Errorf("resolve stats = fwd %d back %d, want 0/1", st.MoveResolveForwards, st.MoveResolveRollbacks)
	}
	wantNoIntents(t, s.stores[1])

	// Exactly one home: a remote caller reaches the rolled-back object
	// at node 1, and writes land on the reclaimed incarnation.
	if got := fromU64(mustInvoke(t, s.ks[2], cap, "inc", nil).Data); got != 3 {
		t.Errorf("remote inc after rollback = %d, want 3", got)
	}
}

// TestMoveRecoveryInDoubt pins the refusal: with the destination
// unreachable the probe cannot produce a verdict, and the source must
// not serve the object — the destination may hold acked writes behind
// the partition. Calls fail retryably (ErrCrashed), the node declines
// to answer locate queries as the home, and the next touch after the
// partition heals resolves normally.
func TestMoveRecoveryInDoubt(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)

	s.crashNode(1)
	if err := s.stores[1].PutIntent(store.MoveIntent{Object: cap.ID(), Dest: 2, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	s.mesh.Partition(1, 2)
	k1 := s.restartNode(1)

	if _, err := k1.Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("in-doubt invoke: err = %v, want ErrCrashed", err)
	}
	if home, _ := k1.hostCheck(cap.ID(), false); home {
		t.Error("in-doubt node answered a locate query as the home")
	}
	if st := k1.Stats(); st.MoveResolveForwards != 0 || st.MoveResolveRollbacks != 0 {
		t.Errorf("in-doubt move resolved: fwd %d back %d", st.MoveResolveForwards, st.MoveResolveRollbacks)
	}

	s.mesh.Heal(1, 2)
	if got := fromU64(mustInvoke(t, k1, cap, "get", nil).Data); got != 1 {
		t.Errorf("read after heal = %d, want 1", got)
	}
	if st := k1.Stats(); st.MoveResolveRollbacks != 1 {
		t.Errorf("MoveResolveRollbacks after heal = %d, want 1", st.MoveResolveRollbacks)
	}
}

// TestMoveEpochAdvances pins the epoch order: each committed move
// increments the residency epoch, so later incarnations always outrank
// earlier ones at the stale-epoch fence.
func TestMoveEpochAdvances(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	o, err := s.ks[1].lookupActiveForTest(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if o.Epoch() != 1 {
		t.Fatalf("birth epoch = %d, want 1", o.Epoch())
	}

	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[2], cap, "get", nil)
	if o, err = s.ks[2].lookupActiveForTest(cap.ID()); err != nil {
		t.Fatal(err)
	}
	if o.Epoch() != 2 {
		t.Fatalf("epoch after first move = %d, want 2", o.Epoch())
	}

	if obj, err = s.ks[2].Object(cap.ID()); err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(1); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "get", nil)
	if o, err = s.ks[1].lookupActiveForTest(cap.ID()); err != nil {
		t.Fatal(err)
	}
	if o.Epoch() != 3 {
		t.Errorf("epoch after moving home again = %d, want 3", o.Epoch())
	}
}

// TestStaleEpochShipRefused pins the fence: a replayed (or delayed)
// move shipment at an epoch the receiver already hosts must be refused,
// not allowed to clobber the live incarnation's state.
func TestStaleEpochShipRefused(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	rec, err := s.stores[1].Get(cap.ID())
	if err != nil {
		t.Fatal(err)
	}

	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[2], cap, "inc", nil) // live state advances to 2

	// Replay the move shipment: same epoch the destination already
	// hosts, carrying the stale pre-move representation.
	replay := msg.Ship{
		Purpose:  msg.ShipMove,
		Object:   cap.ID(),
		TypeName: rec.TypeName,
		Version:  rec.Version,
		Epoch:    2,
		Rep:      rec.Rep,
	}
	if err := s.ks[2].acceptShip(1, replay); err == nil {
		t.Fatal("stale-epoch move shipment accepted")
	} else if !strings.Contains(err.Error(), "stale move") {
		t.Errorf("refusal = %v, want the stale-epoch fence", err)
	}
	if got := fromU64(mustInvoke(t, s.ks[2], cap, "get", nil).Data); got != 2 {
		t.Errorf("state after refused replay = %d, want the live 2", got)
	}
}

// TestMoveAbortReclaimsIntent pins the live-abort cleanup: a move that
// fails in flight (destination unreachable) deletes its durable intent
// before resuming, so a later crash does not find a phantom in-flight
// move, and a subsequent move starts from a clean slate.
func TestMoveAbortReclaimsIntent(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)

	s.mesh.Partition(1, 2)
	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err == nil {
		t.Fatal("move across a partition succeeded")
	}
	wantNoIntents(t, s.stores[1])
	if _, pending := s.ks[1].pendingIntent(cap.ID()); pending {
		t.Error("aborted move left an in-memory intent")
	}
	if st := s.ks[1].Stats(); st.MoveAborts != 1 {
		t.Errorf("MoveAborts = %d, want 1", st.MoveAborts)
	}

	// The abort is clean: the object still serves, and the retried move
	// commits under the next epoch once the link is back.
	s.mesh.Heal(1, 2)
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != 1 {
		t.Fatalf("read after abort = %d, want 1", got)
	}
	if obj, err = s.ks[1].Object(cap.ID()); err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err != nil {
		t.Fatalf("retried move: %v", err)
	}
	if got := fromU64(mustInvoke(t, s.ks[2], cap, "inc", nil).Data); got != 2 {
		t.Errorf("inc after retried move = %d, want 2", got)
	}
	o, err := s.ks[2].lookupActiveForTest(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if o.Epoch() != 2 {
		t.Errorf("epoch after retried move = %d, want 2", o.Epoch())
	}
	wantNoIntents(t, s.stores[1])
}

// TestMoveRecoveryInvalidatesReplicaShadow pins the satellite: a
// checksite serving a checkpoint shadow must drop it when the object
// moves — even when the commit's invalidation is delivered by crash
// recovery rather than the live move. The checksite is partitioned off
// during the move (so it misses the live broadcast and keeps serving
// the orphaned shadow), the source dies pre-commit, and the recovery
// roll-forward must re-broadcast the move invalidation that retires the
// shadow and repoints the checksite at the new home.
func TestMoveRecoveryInvalidatesReplicaShadow(t *testing.T) {
	s := replicaSys(t) // 1 = home; 2, 3 = checksites with ReplicaServe
	s.addNode(4)       // move destination
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	if got := counterValue(t, s.ks[2], cap, true); got != 2 {
		t.Fatalf("pre-move shadow read = %d, want 2", got)
	}
	rec, err := s.stores[1].Get(cap.ID())
	if err != nil {
		t.Fatal(err)
	}

	// The checksite misses the live commit's invalidation...
	s.mesh.Partition(1, 2)
	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(4); err != nil {
		t.Fatal(err)
	}
	if got := fromU64(mustInvoke(t, s.ks[4], cap, "inc", nil).Data); got != 3 {
		t.Fatalf("post-move inc = %d, want 3", got)
	}
	// ...and keeps serving the orphaned shadow.
	if got := counterValue(t, s.ks[2], cap, true); got != 2 {
		t.Fatalf("partitioned checksite read = %d, want the stale 2", got)
	}

	// The source dies in the pre-commit window; recovery rolls the move
	// forward and must re-announce it to the healed mesh.
	s.crashNode(1)
	plantMoveDebris(t, s.stores[1], rec, store.MoveIntent{Object: cap.ID(), Dest: 4, Epoch: 2})
	s.mesh.Heal(1, 2)
	k1 := s.restartNode(1)
	if got := fromU64(mustInvoke(t, k1, cap, "get", nil).Data); got != 3 {
		t.Fatalf("read after recovery = %d, want 3", got)
	}
	if st := k1.Stats(); st.MoveResolveForwards != 1 {
		t.Fatalf("MoveResolveForwards = %d, want 1", st.MoveResolveForwards)
	}

	// The invalidation is fire-and-forget; poll until the checksite has
	// dropped the shadow and a stale-tolerant read reaches the new home.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := counterValue(t, s.ks[2], cap, true); got == 3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("checksite still serves the orphaned shadow: read = %d, want 3", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, v := range s.ks[2].Replicas() {
		if v.Object == cap.ID() && !v.Disabled {
			t.Errorf("checksite serving floor not disabled after the move: %+v", v)
		}
	}
}

// probeLog is a transport that notes when each move-recovery probe is
// sent.
type probeLog struct {
	transport.Transport
	mu    sync.Mutex
	sent  []time.Time
	first chan struct{} // closed by the first probe
}

func (p *probeLog) Send(env msg.Envelope) error {
	if env.Kind == msg.KindShip {
		if ship, err := msg.DecodeShip(env.Payload); err == nil && ship.Purpose == msg.ShipMoveProbe {
			p.mu.Lock()
			p.sent = append(p.sent, time.Now())
			if len(p.sent) == 1 {
				close(p.first)
			}
			p.mu.Unlock()
		}
	}
	return p.Transport.Send(env)
}

// TestInDoubtTouchesShareOneProbe: however many locate queries find a
// move in doubt, one resolution runs, one probe out at a time, and an
// invocation waits for it no longer than its own deadline. Each query
// used to queue a full-timeout probe of its own, and the invocation
// waited behind all of them.
func TestInDoubtTouchesShareOneProbe(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)

	s.crashNode(1)
	if err := s.stores[1].PutIntent(store.MoveIntent{Object: cap.ID(), Dest: 2, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	s.mesh.Partition(1, 2)
	ep, err := s.mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	probes := &probeLog{Transport: ep, first: make(chan struct{})}
	cfg := DefaultConfig(1, "node-1")
	cfg.DefaultTimeout = 750 * time.Millisecond
	k1 := New(cfg, probes, s.reg, s.stores[1])
	k1.loc.DefaultTimeout = 250 * time.Millisecond
	s.ks[1] = k1
	t.Cleanup(func() { k1.Close() })

	for range 10 {
		k1.hostCheck(cap.ID(), false) // as ten locate queries would
	}
	<-probes.first // a resolution is under way
	start := time.Now()
	_, err = k1.Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: time.Second})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCrashed) && !errors.Is(err, ErrTimeout) {
		t.Errorf("in-doubt invoke: err = %v, want ErrCrashed or ErrTimeout", err)
	}
	if elapsed > 1250*time.Millisecond {
		t.Errorf("in-doubt invoke returned after %v, past its 1 s deadline", elapsed)
	}
	// Each probe is lost to the partition; the next may go only once the
	// last has been waited out.
	probes.mu.Lock()
	sent := append([]time.Time(nil), probes.sent...)
	probes.mu.Unlock()
	for i := 1; i < len(sent); i++ {
		if gap := sent[i].Sub(sent[i-1]); gap < cfg.DefaultTimeout/probeAttempts-20*time.Millisecond {
			t.Errorf("probes %d and %d went %v apart: two in flight at once", i, i+1, gap)
		}
	}
}

// TestProbeIgnoresAnOlderForward: a node the object once left keeps a
// forward from that residency. When the object is moved back to it and
// the source dies with the move's intent durable and the ship never sent,
// the probe finds that forward, which is older than the probed epoch: the
// move did not install, and the source rolls it back. Answering
// "installed" for any forward made the source forward too, and the two
// forwards sent every call round a loop.
func TestProbeIgnoresAnOlderForward(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[2], cap, "inc", nil)
	mustInvoke(t, s.ks[2], cap, "checkpoint", nil)

	// Node 2 dies moving the object back to node 1: the intent is durable
	// (epoch 3), the ship never left.
	s.crashNode(2)
	if err := s.stores[2].PutIntent(store.MoveIntent{Object: cap.ID(), Dest: 1, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	s.restartNode(2)

	for _, n := range []uint32{2, 3} {
		rep, err := s.ks[n].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
		if err != nil {
			t.Fatalf("get at node %d: %v (node 1: %s; node 2: %s)", n, err,
				s.ks[1].DebugObjectState(cap.ID()), s.ks[2].DebugObjectState(cap.ID()))
		}
		if got := fromU64(rep.Data); got != 2 {
			t.Errorf("get at node %d = %d, want 2", n, got)
		}
	}
	if st := s.ks[2].Stats(); st.MoveResolveRollbacks != 1 || st.MoveResolveForwards != 0 {
		t.Errorf("resolve stats at node 2 = fwd %d back %d, want 0/1", st.MoveResolveForwards, st.MoveResolveRollbacks)
	}
}

// TestFailedIntentDeletionIsSettledLater: when the store fails the
// intent's deletion, the intent stays, and the object is not served from
// this node's record until a later probe settles it — after a probe's
// roll-back, on the next touch; after a live move's abort, which resumes
// the incarnation, once it passivates. Neither waits for a restart.
func TestFailedIntentDeletionIsSettledLater(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   killpoint.Point // where node 1's store starts failing
	}{
		{"roll-back", killpoint.MoveResolveRollback},
		{"abort", killpoint.MoveIntentDurable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys(t, 1, 2)
			mustRegister(t, s.reg, counterType(nil))
			cap, err := s.ks[1].Create("counter", nil)
			if err != nil {
				t.Fatal(err)
			}
			mustInvoke(t, s.ks[1], cap, "inc", nil)
			mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
			killpoint.Reset()
			t.Cleanup(killpoint.Reset)
			killpoint.Arm(tc.at, 0, func(killpoint.Point) { s.faults[1].FailWith(store.ErrFailed) })

			k1 := s.ks[1]
			if tc.at == killpoint.MoveResolveRollback {
				// Node 1 died with the intent durable and the ship unsent.
				s.crashNode(1)
				if err := s.stores[1].PutIntent(store.MoveIntent{Object: cap.ID(), Dest: 2, Epoch: 2}); err != nil {
					t.Fatal(err)
				}
				k1 = s.restartNode(1)
				if _, err := k1.Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: time.Second}); !errors.Is(err, ErrCrashed) {
					t.Fatalf("get with the intent kept: err = %v, want ErrCrashed", err)
				}
			} else {
				s.mesh.Partition(1, 2)
				obj, err := k1.Object(cap.ID())
				if err != nil {
					t.Fatal(err)
				}
				if err := <-obj.Move(2); err == nil {
					t.Fatal("move across a partition succeeded")
				}
				s.mesh.Heal(1, 2)
				if got := fromU64(mustInvoke(t, k1, cap, "get", nil).Data); got != 1 {
					t.Fatalf("get after the abort = %d, want 1", got)
				}
				if err := obj.Passivate(); err != nil {
					t.Fatal(err)
				}
			}
			if _, kept := k1.pendingIntent(cap.ID()); !kept {
				t.Fatal("the intent whose deletion failed is gone")
			}

			s.faults[1].FailWith(nil)
			rep, err := k1.Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
			if err != nil {
				t.Fatalf("get once the store heals: %v (%s)", err, k1.DebugObjectState(cap.ID()))
			}
			if got := fromU64(rep.Data); got != 1 {
				t.Errorf("get once the store heals = %d, want 1", got)
			}
			wantNoIntents(t, s.stores[1])
		})
	}
}
