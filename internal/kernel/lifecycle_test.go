package kernel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/store"
)

// ---- checkpoint / crash / reincarnation ----

func TestCheckpointCrashReincarnate(t *testing.T) {
	s := newSys(t, 1)
	var reincs atomic.Int64
	mustRegister(t, s.reg, counterType(&reincs))
	cap, _ := s.ks[1].Create("counter", nil)

	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil) // post-checkpoint, will be lost

	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	obj.Crash()

	// The next invocation reincarnates from the checkpoint: the third
	// inc is gone, exactly as the paper specifies.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != 2 {
		t.Errorf("state after reincarnation = %d, want 2 (checkpointed value)", got)
	}
	if reincs.Load() != 1 {
		t.Errorf("reincarnation handler ran %d times, want 1", reincs.Load())
	}
	if s.ks[1].Stats().Reincarnations != 1 {
		t.Errorf("stats.Reincarnations = %d", s.ks[1].Stats().Reincarnations)
	}
}

func TestCrashWithoutCheckpointLosesObject(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	obj.Crash()
	_, err := s.ks[1].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("invocation of never-checkpointed crashed object succeeded")
	}
}

func TestPassivateAndReactivate(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.Passivate(); err != nil {
		t.Fatal(err)
	}
	if len(s.ks[1].ActiveObjects()) != 0 {
		t.Error("object still active after Passivate")
	}
	// An invocation reincarnates it transparently — the "single-level
	// memory" illusion.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != 1 {
		t.Errorf("state after passivate/reactivate = %d, want 1", got)
	}
}

func TestNodeCrashAndRestart(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	mustInvoke(t, s.ks[2], cap, "inc", nil)
	mustInvoke(t, s.ks[2], cap, "checkpoint", nil)
	mustInvoke(t, s.ks[2], cap, "inc", nil) // lost with the node

	s.crashNode(1)
	s.restartNode(1)

	// Node 2's hint cache points at node 1, which is back; the object
	// reincarnates there from its local checkpoint.
	got, err := s.ks[2].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if fromU64(got.Data) != 1 {
		t.Errorf("state after node restart = %d, want 1", fromU64(got.Data))
	}
}

func TestCheckpointVersionsAdvance(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	for i := 1; i <= 3; i++ {
		if err := obj.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := obj.Version(); got != uint64(i) {
			t.Errorf("version after %d checkpoints = %d", i, got)
		}
	}
	rec, err := s.stores[1].Get(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 3 {
		t.Errorf("stored version = %d, want 3", rec.Version)
	}
}

// ---- checksite ----

func TestRemoteChecksiteRecovery(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	// Keep long-term state at node 3 only.
	if err := obj.SetChecksite(RelRemote, 3); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)

	// The record must be at node 3, not node 1.
	if _, err := s.stores[1].Get(cap.ID()); err == nil {
		t.Error("RelRemote checkpoint also written locally")
	}
	if _, err := s.stores[3].Get(cap.ID()); err != nil {
		t.Errorf("checkpoint missing at remote checksite: %v", err)
	}

	// While node 1 is alive, node 3's backup must not attract
	// invocations.
	mustInvoke(t, s.ks[2], cap, "inc", nil)
	if got := s.ks[3].Stats().ServedInvokes; got != 0 {
		t.Errorf("backup site served %d invocations while home alive", got)
	}

	// Node 1 dies. The next invocation triggers recovery: node 3
	// claims the object and reincarnates it from the backup.
	s.crashNode(1)
	rep, err := s.ks[2].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("invocation after home failure: %v", err)
	}
	if fromU64(rep.Data) != 1 {
		t.Errorf("recovered state = %d, want 1 (checkpointed)", fromU64(rep.Data))
	}
	if s.ks[3].Stats().Reincarnations != 1 {
		t.Errorf("node 3 reincarnations = %d, want 1", s.ks[3].Stats().Reincarnations)
	}
}

// TestHomeCrashSurvivalByChecksite: whether an object outlives its home
// node depends on where its checkpoint is. With none it is lost; with a
// local one it is unavailable while the node is down; a remote or
// replicated checksite reincarnates it, checkpointed state intact.
func TestHomeCrashSurvivalByChecksite(t *testing.T) {
	for _, tc := range []struct {
		name     string
		level    Reliability
		ckpt     bool
		survives bool
	}{
		{"no checkpoint", RelLocal, false, false},
		{"local checkpoint", RelLocal, true, false},
		{"remote checksite", RelRemote, true, true},
		{"replicated checksite", RelReplicated, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys(t, 1, 2, 3)
			mustRegister(t, s.reg, counterType(nil))
			cap, _ := s.ks[1].Create("counter", nil)
			obj, _ := s.ks[1].Object(cap.ID())
			if tc.level != RelLocal {
				if err := obj.SetChecksite(tc.level, 3); err != nil {
					t.Fatal(err)
				}
			}
			mustInvoke(t, s.ks[1], cap, "inc", nil)
			if tc.ckpt {
				mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
			}
			s.crashNode(1)
			rep, err := s.ks[2].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
			if survived := err == nil; survived != tc.survives {
				t.Fatalf("survived = %v (err %v), want %v", survived, err, tc.survives)
			}
			if tc.survives && fromU64(rep.Data) != 1 {
				t.Errorf("recovered state = %d, want the checkpointed 1", fromU64(rep.Data))
			}
		})
	}
}

func TestReplicatedChecksite(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.SetChecksite(RelReplicated, 2, 3); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	for _, n := range []uint32{1, 2, 3} {
		if _, err := s.stores[n].Get(cap.ID()); err != nil {
			t.Errorf("replicated checkpoint missing at node %d: %v", n, err)
		}
	}
	lvl, sites := obj.Checksite()
	if lvl != RelReplicated || len(sites) != 2 {
		t.Errorf("Checksite = %v %v", lvl, sites)
	}
}

func TestChecksiteValidation(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.SetChecksite(RelRemote); err == nil {
		t.Error("RelRemote without sites accepted")
	}
	if err := obj.SetChecksite(RelLocal); err != nil {
		t.Errorf("RelLocal rejected: %v", err)
	}
}

// ---- move ----

func TestMoveObject(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	mustInvoke(t, s.ks[3], cap, "inc", nil) // node 3 caches "home = node 1"

	obj, _ := s.ks[1].Object(cap.ID())
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	if s.ks[1].Stats().Moves != 1 {
		t.Errorf("Moves = %d", s.ks[1].Stats().Moves)
	}
	if len(s.ks[1].ActiveObjects()) != 0 {
		t.Error("object still active on the old node")
	}
	if len(s.ks[2].ActiveObjects()) != 1 {
		t.Error("object not active on the new node")
	}

	// Invocation through the stale hint must chase the forwarding
	// pointer transparently.
	if got := fromU64(mustInvoke(t, s.ks[3], cap, "inc", nil).Data); got != 2 {
		t.Errorf("inc after move = %d, want 2", got)
	}
	// ... unless the move's invalidation broadcast reached node 3 first
	// and placed the object at node 2, which makes the chase unnecessary.
	// (Node 3 caches no hint to invalidate: its first guess for the object
	// is its creating node.) Either way node 3 now looks for it at node 2.
	if loc, err := s.ks[3].Locator().Lookup(cap.ID(), time.Second); err != nil || loc.Node != 2 {
		t.Errorf("node 3 looks for the moved object at %+v (%v), want node 2", loc, err)
	}
	// State traveled with the object.
	if got := fromU64(mustInvoke(t, s.ks[2], cap, "get", nil).Data); got != 2 {
		t.Errorf("state after move = %d", got)
	}
}

func TestMoveToSelfIsNoop(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := <-obj.Move(1); err != nil {
		t.Fatal(err)
	}
	if len(s.ks[1].ActiveObjects()) != 1 {
		t.Error("self-move lost the object")
	}
}

func TestMoveToDeadNodeAborts(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	s.crashNode(2)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := <-obj.Move(2); err == nil {
		t.Fatal("move to dead node succeeded")
	}
	// The object must still serve invocations here.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != 1 {
		t.Errorf("object unusable after aborted move: %d", got)
	}
}

func TestMoveDrainsInFlight(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())

	slow := s.ks[1].InvokeAsync(cap, "slow", u64(200), nil, &InvokeOptions{Timeout: 5 * time.Second})
	time.Sleep(30 * time.Millisecond) // let the slow handler start
	moveDone := obj.Move(2)
	rep, err := slow.Wait()
	if err != nil || string(rep.Data) != "done" {
		t.Errorf("in-flight invocation broken by move: %v %q", err, rep.Data)
	}
	if err := <-moveDone; err != nil {
		t.Fatal(err)
	}
	if got := fromU64(mustInvoke(t, s.ks[2], cap, "inc", nil).Data); got != 1 {
		t.Errorf("inc after drained move = %d", got)
	}
}

// ---- freeze / replicate ----

func TestFreezeMakesImmutable(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !obj.Frozen() {
		t.Error("Frozen() = false after Freeze")
	}
	// Mutating operations fail with StatusFrozen...
	if _, err := s.ks[1].Invoke(cap, "inc", nil, nil, nil); !errors.Is(err, ErrFrozen) {
		t.Errorf("inc on frozen object: %v", err)
	}
	// ... but reads keep working.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != 1 {
		t.Errorf("get on frozen object = %d", got)
	}
	if err := obj.Update(func(r *segment.Representation) error { return nil }); !errors.Is(err, ErrFrozen) {
		t.Errorf("Update on frozen object: %v", err)
	}
}

func TestReplicateRequiresFreeze(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.Replicate(2); !errors.Is(err, ErrNotFrozen) {
		t.Errorf("Replicate before Freeze: %v", err)
	}
}

func TestReplicaServesReadsLocally(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := obj.Replicate(2); err != nil {
		t.Fatal(err)
	}
	if s.ks[2].Stats().ReplicasInstalled != 1 {
		t.Errorf("ReplicasInstalled = %d", s.ks[2].Stats().ReplicasInstalled)
	}

	// A read at node 2 with AllowReplica is served by the local
	// replica: no remote invocation leaves node 2.
	r0 := s.ks[2].Stats().RemoteInvokes
	rep, err := s.ks[2].Invoke(cap, "get", nil, nil, &InvokeOptions{AllowReplica: true})
	if err != nil || fromU64(rep.Data) != 1 {
		t.Fatalf("replica read: %v %d", err, fromU64(rep.Data))
	}
	if r1 := s.ks[2].Stats().RemoteInvokes; r1 != r0 {
		t.Errorf("replica read went remote (%d -> %d)", r0, r1)
	}

	// A mutating op via the replica path bounces home and reports the
	// frozen state (the home is frozen too).
	if _, err := s.ks[2].Invoke(cap, "inc", nil, nil, &InvokeOptions{AllowReplica: true}); !errors.Is(err, ErrFrozen) {
		t.Errorf("inc via replica: %v", err)
	}
}

func TestReplicaIgnoredWithoutOptIn(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	_ = obj.Freeze()
	if err := obj.Replicate(2); err != nil {
		t.Fatal(err)
	}
	r0 := s.ks[2].Stats().RemoteInvokes
	if _, err := s.ks[2].Invoke(cap, "get", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if r1 := s.ks[2].Stats().RemoteInvokes; r1 == r0 {
		t.Error("default invocation used the replica without opt-in")
	}
}

// ---- destroy ----

func TestDestroy(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.Destroy(); err != nil {
		t.Fatal(err)
	}
	_, err := s.ks[2].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 300 * time.Millisecond})
	if !errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrTimeout) {
		t.Errorf("invocation of destroyed object: %v", err)
	}
	if _, err := s.stores[1].Get(cap.ID()); err == nil {
		t.Error("checkpoint survived Destroy")
	}
}

// ---- node resources ----

func TestMemoryBudgetRejectsActivation(t *testing.T) {
	s := newSys(t, 1)
	big := NewType("big")
	big.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("blob", make([]byte, 4096))
			return nil
		})
	}
	big.Op(Operation{Name: "noop", Handler: func(c *Call) {}})
	mustRegister(t, s.reg, big)

	// Rebuild node 1 with a tight budget.
	s.crashNode(1)
	ep, err := s.mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, "tiny")
	cfg.MemoryBytes = 10000
	k := New(cfg, ep, s.reg, s.stores[1])
	t.Cleanup(func() { k.Close() })

	if _, err := k.Create("big", nil); err != nil {
		t.Fatalf("first create: %v", err)
	}
	if _, err := k.Create("big", nil); err != nil {
		t.Fatalf("second create: %v", err)
	}
	if _, err := k.Create("big", nil); err == nil {
		t.Fatal("third create exceeded the memory budget but succeeded")
	}
	if k.MemoryInUse() > cfg.MemoryBytes {
		t.Errorf("MemoryInUse = %d exceeds budget", k.MemoryInUse())
	}
}

func TestVirtualProcessorsBoundConcurrency(t *testing.T) {
	s := newSys(t, 1)
	var maxSeen atomic.Int64
	mustRegister(t, s.reg, probeType("vp", map[string]int{"u": 0}, &maxSeen))

	s.crashNode(1)
	ep, err := s.mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, "twin-gdp")
	cfg.VirtualProcessors = 2
	k := New(cfg, ep, s.reg, nil)
	t.Cleanup(func() { k.Close() })

	cap, err := k.Create("vp", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, _ = k.Invoke(cap, "op-u", nil, nil, &InvokeOptions{Timeout: 5 * time.Second})
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if m := maxSeen.Load(); m > 2 {
		t.Errorf("max concurrency = %d with 2 virtual processors", m)
	}
}

// ---- type hierarchy ----

func TestSubtypeInheritsOperations(t *testing.T) {
	s := newSys(t, 1)
	base := counterType(nil)
	sub := NewType("stats-counter")
	sub.Extends = "counter"
	sub.Init = base.Init
	sub.Op(Operation{
		Name:     "double",
		Class:    "write",
		ReadOnly: false,
		Handler: func(c *Call) {
			var out uint64
			_ = c.Self().Update(func(r *segment.Representation) error {
				cur, _ := r.Data("n")
				out = fromU64(cur) * 2
				r.SetData("n", u64(out))
				return nil
			})
			c.Return(u64(out))
		},
	})
	mustRegister(t, s.reg, base, sub)

	cap, err := s.ks[1].Create("stats-counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inherited operation.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "inc", nil).Data); got != 1 {
		t.Errorf("inherited inc = %d", got)
	}
	// Own operation.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "double", nil).Data); got != 2 {
		t.Errorf("double = %d", got)
	}
	// Inherited read.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != 2 {
		t.Errorf("inherited get = %d", got)
	}
}

func TestSubtypeOverridesOperation(t *testing.T) {
	s := newSys(t, 1)
	base := counterType(nil)
	sub := NewType("loud-counter")
	sub.Extends = "counter"
	sub.Init = base.Init
	sub.Op(Operation{
		Name:     "get",
		ReadOnly: true,
		Handler:  func(c *Call) { c.Return([]byte("LOUD")) },
	})
	mustRegister(t, s.reg, base, sub)
	cap, _ := s.ks[1].Create("loud-counter", nil)
	if got := string(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != "LOUD" {
		t.Errorf("overridden get = %q", got)
	}
}

func TestInheritedClassLimitApplies(t *testing.T) {
	s := newSys(t, 1)
	var maxSeen atomic.Int64
	base := probeType("probe-base", map[string]int{"w": 1}, &maxSeen)
	sub := NewType("probe-sub")
	sub.Extends = "probe-base"
	mustRegister(t, s.reg, base, sub)
	cap, _ := s.ks[1].Create("probe-sub", nil)
	done := make(chan struct{}, 5)
	for i := 0; i < 5; i++ {
		go func() {
			_, _ = s.ks[1].Invoke(cap, "op-w", nil, nil, &InvokeOptions{Timeout: 5 * time.Second})
			done <- struct{}{}
		}()
	}
	for i := 0; i < 5; i++ {
		<-done
	}
	if m := maxSeen.Load(); m != 1 {
		t.Errorf("inherited class limit not enforced: max concurrency = %d", m)
	}
}

// ---- nested invocation ----

func TestNestedInvocationAcrossObjects(t *testing.T) {
	s := newSys(t, 1, 2)
	proxy := NewType("proxy")
	proxy.Op(Operation{
		Name: "relay",
		Handler: func(c *Call) {
			if len(c.Caps) != 1 {
				c.Fail("relay needs one capability parameter")
				return
			}
			rep, err := c.Kernel().Invoke(c.Caps[0], "inc", nil, nil, nil)
			if err != nil {
				c.Fail("nested invoke: %v", err)
				return
			}
			c.Return(rep.Data)
		},
	})
	mustRegister(t, s.reg, counterType(nil), proxy)

	counterCap, _ := s.ks[2].Create("counter", nil)
	proxyCap, _ := s.ks[1].Create("proxy", nil)

	rep, err := s.ks[2].Invoke(proxyCap, "relay", nil, capability.List{counterCap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromU64(rep.Data) != 1 {
		t.Errorf("relayed inc = %d", fromU64(rep.Data))
	}
}

// TestBackupRecordNotActivatable: while an object's home is alive, the
// node holding its remote-checksite backup must refuse to activate a
// second incarnation — even through the administrative Object() path.
func TestBackupRecordNotActivatable(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.SetChecksite(RelRemote, 2); err != nil {
		t.Fatal(err)
	}
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ks[2].Object(cap.ID()); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("backup site activated a live object's record: %v", err)
	}
	// The home still serves.
	if got := fromU64(mustInvoke(t, s.ks[2], cap, "get", nil).Data); got != 0 {
		t.Errorf("get = %d", got)
	}
}

// ---- incremental checkpoints ----

// TestIncrementalCheckpointDelta: after a full first checkpoint, a
// small mutation ships only the changed segments to the remote
// checksite — and the merged record there matches the full state.
func TestIncrementalCheckpointDelta(t *testing.T) {
	s := newSys(t, 1, 2)
	big := NewType("bigdelta")
	big.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("bulk", make([]byte, 256<<10))
			r.SetData("hot", []byte("v0"))
			return nil
		})
	}
	big.Op(Operation{
		Name: "touch",
		Handler: func(c *Call) {
			_ = c.Self().Update(func(r *segment.Representation) error {
				r.SetData("hot", c.Data)
				return nil
			})
		},
	})
	big.Op(Operation{
		Name: "drop-bulk",
		Handler: func(c *Call) {
			_ = c.Self().Update(func(r *segment.Representation) error {
				r.Delete("bulk")
				return nil
			})
		},
	})
	mustRegister(t, s.reg, big)

	cap, _ := s.ks[1].Create("bigdelta", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.SetChecksite(RelRemote, 2); err != nil {
		t.Fatal(err)
	}
	// First checkpoint: full (the site has no base).
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.ks[1].Stats().IncrementalCheckpoints; got != 0 {
		t.Fatalf("first checkpoint counted as incremental (%d)", got)
	}
	bytesAfterFull := s.mesh.Stats().Bytes

	// Small mutation, second checkpoint: incremental.
	mustInvoke(t, s.ks[1], cap, "touch", []byte("v1"))
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.ks[1].Stats().IncrementalCheckpoints; got != 1 {
		t.Errorf("IncrementalCheckpoints = %d, want 1", got)
	}
	deltaBytes := s.mesh.Stats().Bytes - bytesAfterFull
	if deltaBytes > 64<<10 {
		t.Errorf("incremental checkpoint shipped %d bytes for a tiny delta", deltaBytes)
	}

	// The merged record at the checksite reconstructs the full state.
	rec, err := s.stores[2].Get(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := segment.Decode(rec.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if hot, _ := rep.Data("hot"); string(hot) != "v1" {
		t.Errorf("merged hot segment = %q", hot)
	}
	if bulk, _ := rep.Data("bulk"); len(bulk) != 256<<10 {
		t.Errorf("merged bulk segment = %d bytes", len(bulk))
	}

	// Deletions travel in deltas too.
	mustInvoke(t, s.ks[1], cap, "drop-bulk", nil)
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.stores[2].Get(cap.ID())
	rep, _, _ = segment.Decode(rec.Rep)
	if rep.Has("bulk") {
		t.Error("deleted segment survived an incremental checkpoint")
	}

	// Recovery from the incrementally-maintained backup works.
	s.crashNode(1)
	repOut, err := s.ks[2].Invoke(cap.Restrict(rights.All), "touch", []byte("v2"), nil, &InvokeOptions{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("recovery from incremental backup: %v", err)
	}
	_ = repOut
}

// TestIncrementalFallbackToFull: a checksite that lost its base (e.g.
// wiped store) rejects the delta, and the sender transparently
// re-ships the full representation.
func TestIncrementalFallbackToFull(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.SetChecksite(RelRemote, 2); err != nil {
		t.Fatal(err)
	}
	if err := obj.Checkpoint(); err != nil { // full, establishes base v1
		t.Fatal(err)
	}
	// The checksite loses the record behind the sender's back.
	if err := s.stores[2].Delete(cap.ID()); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	if err := obj.Checkpoint(); err != nil { // delta rejected -> full resend
		t.Fatal(err)
	}
	rec, err := s.stores[2].Get(cap.ID())
	if err != nil {
		t.Fatalf("record missing after fallback: %v", err)
	}
	if rec.Version != 2 {
		t.Errorf("record version = %d, want 2", rec.Version)
	}
	rep, _, err := segment.Decode(rec.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rep.Data("n"); fromU64(n) != 1 {
		t.Errorf("fallback record state = %d", fromU64(n))
	}
}

// TestDirtyRestoredOnCheckpointFailure: a failed checkpoint must not
// lose the dirty set — the next successful checkpoint still carries
// the change.
func TestDirtyRestoredOnCheckpointFailure(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.SetChecksite(RelRemote, 2); err != nil {
		t.Fatal(err)
	}
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)

	// The checksite's medium fails: checkpoint must error and the
	// dirty set must survive.
	s.stores[2].FailWith(store.ErrFailed)
	if err := obj.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded against a failed medium")
	}
	s.stores[2].FailWith(nil)
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.stores[2].Get(cap.ID())
	rep, _, _ := segment.Decode(rec.Rep)
	if n, _ := rep.Data("n"); fromU64(n) != 1 {
		t.Errorf("change lost across failed checkpoint: n = %d", fromU64(n))
	}
}

// TestMoveInvalidatesIncrementalBase: a segment deleted while the
// object lived at another node must not be resurrected by a later
// incremental checkpoint after the object moves back — the move
// invalidates the incremental base, forcing a full shipment.
func TestMoveInvalidatesIncrementalBase(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	tm := NewType("segjuggler")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("keep", []byte("keep"))
			r.SetData("doomed", []byte("doomed"))
			return nil
		})
	}
	tm.Op(Operation{
		Name: "drop-doomed",
		Handler: func(c *Call) {
			_ = c.Self().Update(func(r *segment.Representation) error {
				r.Delete("doomed")
				return nil
			})
		},
	})
	tm.Op(Operation{Name: "noop", Handler: func(c *Call) {}})
	mustRegister(t, s.reg, tm)

	cap, _ := s.ks[1].Create("segjuggler", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	if err := obj.SetChecksite(RelRemote, 3); err != nil {
		t.Fatal(err)
	}
	if err := obj.Checkpoint(); err != nil { // v1 at site 3, with "doomed"
		t.Fatal(err)
	}
	// Move to node 2, delete "doomed" there (no checkpoint), move back.
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "drop-doomed", nil)
	obj2, err := s.ks[2].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj2.Move(1); err != nil {
		t.Fatal(err)
	}
	// Back at node 1: checkpoint to the original checksite.
	obj3, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj3.SetChecksite(RelRemote, 3); err != nil {
		t.Fatal(err)
	}
	if err := obj3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, err := s.stores[3].Get(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := segment.Decode(rec.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Has("doomed") {
		t.Error("deleted segment resurrected in the post-move checkpoint")
	}
	if !rep.Has("keep") {
		t.Error("kept segment missing from the post-move checkpoint")
	}
}

// ---- eviction vs fresh incarnations ----

// TestEvictionSparesFreshIncarnation: an object reincarnated but not
// yet invoked carried recency zero, so the next activation's eviction
// chose it — and answered its first call "object crashed" — over
// objects idle far longer. Installing stamps it most recently used.
// (A budget of one object leaves eviction no choice to get wrong; two
// is the smallest that shows it.)
func TestEvictionSparesFreshIncarnation(t *testing.T) {
	k, reg, _ := newSchedKernel(t, func(c *Config) {
		c.MemoryBytes = 2*4096 + 2048 // fits two pagees, not three
		c.EvictOnPressure = true
	})
	pagee := NewType("pagee")
	pagee.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("blob", make([]byte, 4096))
			return nil
		})
	}
	pagee.Op(Operation{Name: "touch", Access: AccessRead, Handler: func(c *Call) {}})
	mustRegister(t, reg, pagee)

	old, err := k.Create("pagee", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, k, old, "touch", nil)
	fresh, err := k.Create("pagee", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := k.Object(fresh.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Passivate(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Object(fresh.ID()); err != nil { // reincarnated, never invoked
		t.Fatal(err)
	}
	if _, err := k.Create("pagee", nil); err != nil { // needs one victim
		t.Fatal(err)
	}
	if _, ok := k.lookupActive(fresh.ID()); !ok {
		t.Error("eviction chose the just-reincarnated object over one idle since before it")
	}
	if _, ok := k.lookupActive(old.ID()); ok {
		t.Error("the least recently used object is still resident")
	}
}
