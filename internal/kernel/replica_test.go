package kernel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/store"
	"eden/internal/telemetry"
)

// replicaSys builds the canonical replica topology: node 1 is the
// home, nodes 2 and 3 are checkpoint-serving checksites with telemetry
// enabled so tests can read the replica counters.
func replicaSys(t *testing.T) *sys {
	t.Helper()
	s := newSys(t, 1)
	for _, n := range []uint32{2, 3} {
		s.addNodeCfg(n, func(c *Config) {
			c.ReplicaServe = true
			c.Telemetry = telemetry.New()
		})
	}
	mustRegister(t, s.reg, counterType(nil))
	return s
}

func counterValue(t *testing.T, k *Kernel, cap capability.Capability, allowReplica bool) uint64 {
	t.Helper()
	rep, err := k.Invoke(cap, "get", nil, nil, &InvokeOptions{AllowReplica: allowReplica})
	if err != nil {
		t.Fatalf("get (allowReplica=%v): %v", allowReplica, err)
	}
	return fromU64(rep.Data)
}

func TestReplicaServesCheckpointReads(t *testing.T) {
	s := replicaSys(t)
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.ks[1].Invoke(cap, "inc", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ks[1].Invoke(cap, "checkpoint", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Advance past the checkpoint without checkpointing again: the
	// shadows must serve the snapshot, not the home's live state.
	for i := 0; i < 3; i++ {
		if _, err := s.ks[1].Invoke(cap, "inc", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	servedBefore := s.ks[1].Stats().ServedInvokes
	for _, n := range []uint32{2, 3} {
		if got := counterValue(t, s.ks[n], cap, true); got != 5 {
			t.Errorf("node %d replica read = %d, want the checkpointed 5", n, got)
		}
		hits := s.ks[n].Telemetry().Counter(metricReplicaHit).Value()
		if hits == 0 {
			t.Errorf("node %d served a shadow read without counting a replica hit", n)
		}
	}
	if after := s.ks[1].Stats().ServedInvokes; after != servedBefore {
		t.Errorf("home served %d invocations during replica reads, want 0", after-servedBefore)
	}

	// A home-demanding read from the same checksite sees live state.
	if got := counterValue(t, s.ks[2], cap, false); got != 8 {
		t.Errorf("home read from checksite = %d, want the live 8", got)
	}
}

// TestReplicaReadsProceedWhileHomeIsHeld counts what replica serving buys
// instead of timing it. With a writer holding the home, reads that
// tolerate a checkpoint's staleness still complete on the checksites,
// several at once on each, and none reaches the home; a read that
// demands the home waits behind the writer.
func TestReplicaReadsProceedWhileHomeIsHeld(t *testing.T) {
	s := replicaSys(t)
	held := make(chan struct{})
	release := make(chan struct{})
	// A meet is one checksite's barrier: full closes once want reads are
	// inside handlers on its node at the same time, and a read leaves only
	// after that.
	type meet struct {
		mu   sync.Mutex
		in   int
		full chan struct{}
	}
	meets := map[uint32]*meet{2: {full: make(chan struct{})}, 3: {full: make(chan struct{})}}
	want := min(4, readerCap)
	abort := make(chan struct{})
	t.Cleanup(func() { close(abort) }) // runs before the kernels close
	tm := NewType("heldread")
	tm.Op(Operation{Name: "hold", Access: AccessWrite, Handler: func(c *Call) {
		close(held)
		<-release
	}})
	tm.Op(Operation{Name: "read", Access: AccessRead, Handler: func(c *Call) {
		m := meets[c.Self().Node()]
		if m == nil {
			c.Fail("read ran on node %d, not on a checksite", c.Self().Node())
			return
		}
		m.mu.Lock()
		m.in++
		select {
		case <-m.full:
		default:
			if m.in >= want {
				close(m.full)
			}
		}
		m.mu.Unlock()
		select {
		case <-m.full:
		case <-abort:
		}
		m.mu.Lock()
		m.in--
		m.mu.Unlock()
	}})
	mustRegister(t, s.reg, tm)
	cap, err := s.ks[1].Create("heldread", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	home, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	holdDone := make(chan error, 1)
	go func() {
		_, err := s.ks[1].Invoke(cap, "hold", nil, nil, &InvokeOptions{Timeout: 10 * time.Second})
		holdDone <- err
	}()
	select {
	case <-held:
	case err := <-holdDone:
		t.Fatalf("hold returned without holding the home: %v", err)
	}
	defer func() {
		close(release)
		if err := <-holdDone; err != nil {
			t.Errorf("hold: %v", err)
		}
	}()

	servedBefore := s.ks[1].Stats().ServedInvokes
	const reads = 8
	errs := make(chan error, reads)
	for i := 0; i < reads; i++ {
		k := s.ks[uint32(2+i%2)]
		go func() {
			_, err := k.Invoke(cap, "read", nil, nil, &InvokeOptions{AllowReplica: true, Timeout: 5 * time.Second})
			errs <- err
		}()
	}
	for i := 0; i < reads; i++ {
		if err := <-errs; err != nil {
			t.Errorf("replica read with the home held: %v", err)
		}
	}
	for n, m := range meets {
		select {
		case <-m.full:
		default:
			t.Errorf("node %d never ran %d replica reads at once", n, want)
		}
	}
	if d := s.ks[1].Stats().ServedInvokes - servedBefore; d != 0 {
		t.Errorf("home served %d invocations during replica reads, want 0", d)
	}
	if _, err := s.ks[1].Invoke(cap, "read", nil, nil, &InvokeOptions{Timeout: 150 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
		t.Errorf("home-only read while the writer holds: err = %v, want ErrTimeout", err)
	}
}

// TestReplicaStalenessBound pins the acceptance invariant: after a
// write's checkpoint has been acknowledged (the "checkpoint" invoke
// returned), no replica read observes an older version — the checksite
// raised its serving floor before acking the ship.
func TestReplicaStalenessBound(t *testing.T) {
	s := replicaSys(t)
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		if _, err := s.ks[1].Invoke(cap, "inc", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ks[1].Invoke(cap, "checkpoint", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, n := range []uint32{2, 3} {
			if got := counterValue(t, s.ks[n], cap, true); got != i {
				t.Fatalf("round %d: node %d replica read = %d; serving below the acked checkpoint", i, n, got)
			}
		}
	}
	for _, n := range []uint32{2, 3} {
		if stale := s.ks[n].Telemetry().Counter(metricReplicaStale).Value(); stale != 0 {
			t.Errorf("node %d refused %d reads as stale; floor and record disagree", n, stale)
		}
	}
}

func TestReplicaServesWhileHomeDown(t *testing.T) {
	s := replicaSys(t)
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.ks[1].Invoke(cap, "inc", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ks[1].Invoke(cap, "checkpoint", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	s.crashNode(1)
	// The availability win: stale-tolerant reads keep completing from
	// the checkpoint shadows with the home dead, no recovery round.
	for _, n := range []uint32{2, 3} {
		if got := counterValue(t, s.ks[n], cap, true); got != 4 {
			t.Errorf("node %d read with home down = %d, want 4", n, got)
		}
	}
}

// TestReplicaRefusesNonReadOps checks the runtime guard: a mutating
// operation steered at a shadow bounces to the home and still succeeds
// there.
func TestReplicaRefusesNonReadOps(t *testing.T) {
	s := replicaSys(t)
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ks[1].Invoke(cap, "inc", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ks[1].Invoke(cap, "checkpoint", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Materialize the shadow on node 2.
	if got := counterValue(t, s.ks[2], cap, true); got != 1 {
		t.Fatalf("replica read = %d, want 1", got)
	}

	// A write with AllowReplica set must not mutate the shadow: it
	// bounces home, succeeds there, and the shadow's snapshot stays.
	rep, err := s.ks[2].Invoke(cap, "inc", nil, nil, &InvokeOptions{AllowReplica: true})
	if err != nil {
		t.Fatalf("inc via replica-tolerant path: %v", err)
	}
	if got := fromU64(rep.Data); got != 2 {
		t.Errorf("inc through the bounce = %d, want 2", got)
	}
	if miss := s.ks[2].Telemetry().Counter(metricReplicaMiss).Value(); miss == 0 {
		t.Error("shadow accepted a mutating operation without bouncing")
	}

}

// TestMoveInvalidatesReplicaServing pins satellite behavior: a move
// retires every checkpoint shadow and disables the old checksites'
// serving floors (the new home does not ship to them), and the
// invalidation repoints their locators at the new home — so a
// stale-tolerant read after the move sees the new home's state, not
// the orphaned record.
func TestMoveInvalidatesReplicaServing(t *testing.T) {
	s := replicaSys(t)
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ks[1].Invoke(cap, "inc", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ks[1].Invoke(cap, "checkpoint", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, s.ks[2], cap, true); got != 1 {
		t.Fatalf("pre-move replica read = %d, want 1", got)
	}

	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ks[3].Invoke(cap, "inc", nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	// The invalidation broadcast is fire-and-forget; give the frame a
	// moment before asserting its effects.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := counterValue(t, s.ks[2], cap, true); got == 2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("post-move replica-tolerant read = %d, want the new home's 2", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stale := s.ks[2].Telemetry().Counter(metricReplicaStale).Value(); stale == 0 {
		t.Error("orphaned checksite record served without a stale refusal after the move")
	}
}

// TestRecoverGraceFencesPromotion pins the split-brain fence: while an
// object's home shipped a checkpoint within RecoverGrace, a checksite
// refuses to promote its backup to home — a recovery claim in that
// window is almost certainly a transient locate timeout, not a dead
// home, and promoting would split the object between two live homes.
// Once the grace elapses (the heartbeat went quiet), promotion works
// and recovery proceeds as before.
func TestRecoverGraceFencesPromotion(t *testing.T) {
	const grace = 600 * time.Millisecond
	s := newSys(t, 1)
	for _, n := range []uint32{2, 3} {
		s.addNodeCfg(n, func(c *Config) {
			c.ReplicaServe = true
			c.RecoverGrace = grace
		})
	}
	s.addNode(4) // client with no local record
	mustRegister(t, s.reg, counterType(nil))

	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)

	// The ship just landed: a recovery claim must be refused, the
	// backup registration must survive it, and the record must still
	// be advertised as a servable replica.
	home, replica := s.ks[2].hostCheck(cap.ID(), true)
	if home {
		t.Fatal("checksite promoted its backup with the home's ship fresh")
	}
	if !replica {
		t.Error("refused promotion should still advertise the replica")
	}
	s.ks[2].mu.Lock()
	_, stillBackup := s.ks[2].backups[cap.ID()]
	s.ks[2].mu.Unlock()
	if !stillBackup {
		t.Fatal("refused promotion deleted the backup registration")
	}

	// With the home actually dead, recovery inside the grace window
	// still fails — the fence cannot tell a dead home from a slow one
	// until the heartbeat goes quiet — and then succeeds.
	s.crashNode(1)
	if _, err := s.ks[4].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 400 * time.Millisecond}); err == nil {
		t.Fatal("home-demanding read succeeded inside the grace window with no home")
	}
	time.Sleep(grace)
	rep, err := s.ks[4].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("recovery after grace elapsed: %v", err)
	}
	if fromU64(rep.Data) != 1 {
		t.Errorf("recovered state = %d, want the checkpointed 1", fromU64(rep.Data))
	}
	if reinc := s.ks[2].Stats().Reincarnations + s.ks[3].Stats().Reincarnations; reinc != 1 {
		t.Errorf("reincarnations across checksites = %d, want 1", reinc)
	}
}

// TestBackupRegistrySurvivesRestart pins the durable backup marker: a
// restarted checksite rebuilds its backup registry from store records
// (Record.Backup/Home), so it neither answers locate queries as the
// objects' home — the real home is alive — nor loses the ability to
// serve checkpoint shadows before the next ship arrives.
func TestBackupRegistrySurvivesRestart(t *testing.T) {
	s := replicaSys(t)
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustInvoke(t, s.ks[1], cap, "inc", nil)
	}
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)

	s.crashNode(2)
	k2 := s.addNodeCfg(2, func(c *Config) {
		c.ReplicaServe = true
		c.Telemetry = telemetry.New()
	})

	// No ship has arrived since the restart: the registry must have
	// been rebuilt from the store, home and floor intact.
	views := k2.Replicas()
	if len(views) != 1 {
		t.Fatalf("restarted checksite reports %d backups, want 1: %+v", len(views), views)
	}
	if views[0].Home != 1 || views[0].Disabled || views[0].Floor == 0 {
		t.Errorf("rebuilt backup = %+v, want home 1 with a live floor", views[0])
	}
	if home, _ := k2.hostCheck(cap.ID(), false); home {
		t.Error("restarted checksite claims to be the home of a backed-up object")
	}
	// And it serves: a stale-tolerant read hits the rebuilt shadow
	// while a home-demanding read still reaches the live home.
	if got := counterValue(t, k2, cap, true); got != 3 {
		t.Errorf("replica read after restart = %d, want the checkpointed 3", got)
	}
	if got := counterValue(t, k2, cap, false); got != 3 {
		t.Errorf("home read after restart = %d, want 3", got)
	}
}

// offlineStore is a store whose medium is offline while err is set: List
// and Get fail with err, and Stat finds nothing, as Get would not. An open
// File answers List and Stat from its directory, so no fault under one
// fails them.
type offlineStore struct {
	store.Store
	err atomic.Pointer[error]
}

func (s *offlineStore) List() ([]edenid.ID, error) {
	if err := s.err.Load(); err != nil {
		return nil, *err
	}
	return s.Store.List()
}

func (s *offlineStore) Get(id edenid.ID) (store.Record, error) {
	if err := s.err.Load(); err != nil {
		return store.Record{}, *err
	}
	return s.Store.Get(id)
}

func (s *offlineStore) Stat(id edenid.ID) (store.Meta, bool) {
	if s.err.Load() != nil {
		return store.Meta{}, false
	}
	return s.Store.Stat(id)
}

// TestFailedBootScanIsRetried: a checksite that restarts while its store
// fails the boot scan must not take the backups it holds for their home.
// While the scan fails, nothing here is served as the object's home;
// once the store heals, the first touch re-runs the scan and the record
// is a backup again. Skipping the failed scan instead reincarnated the
// backup as a second home beside the live one.
func TestFailedBootScanIsRetried(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)

	s.crashNode(2)
	media := errors.New("media offline")
	st := &offlineStore{Store: s.stores[2]}
	st.err.Store(&media)
	k2 := s.bootNode(2, st, nil)
	id := cap.ID()
	if home, _ := k2.hostCheck(id, true); home {
		t.Error("scan failing: the checksite claims to be the home")
	}
	if _, err := k2.Object(id); !errors.Is(err, ErrCrashed) || !errors.Is(err, media) {
		t.Errorf("scan failing: Object = %v, want ErrCrashed carrying the scan error", err)
	}
	// A call from the checksite still reaches the live home.
	mustInvoke(t, k2, cap, "inc", nil)
	if _, active := k2.lookupActive(id); active {
		t.Fatal("scan failing: the backup was activated")
	}

	st.err.Store(nil)
	// The first touch after healing re-runs the scan: the record is a
	// backup, so the call goes to the home and nothing activates here.
	mustInvoke(t, k2, cap, "inc", nil)
	if _, active := k2.lookupActive(id); active {
		t.Fatal("store healed: the backup was activated as a second home")
	}
	if home, _ := k2.hostCheck(id, false); home {
		t.Error("store healed: the checksite claims to be the home")
	}
	if _, err := k2.Object(id); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("store healed: Object = %v, want the backup refused (ErrNoCheckpoint)", err)
	}
	if got := counterValue(t, s.ks[1], cap, false); got != 3 {
		t.Errorf("home counter = %d, want 3 (every inc ran at the home)", got)
	}
}

// TestPromotedChecksiteRetiresItsShadow: a checksite that failure
// recovery promotes to home stops serving its checkpoint shadow. Kept
// past the promotion, the shadow outlived the object's next move: the
// node, now only a forwarder, advertised itself as a replica and sent
// every stale-tolerant read to itself, to be bounced on.
func TestPromotedChecksiteRetiresItsShadow(t *testing.T) {
	s := replicaSys(t)
	cap, err := s.ks[1].Create("counter", &CreateOptions{
		Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	if got := counterValue(t, s.ks[2], cap, true); got != 1 {
		t.Fatalf("shadow read = %d, want 1", got)
	}
	s.crashNode(1)
	// A home read promotes node 2's backup and activates the counter.
	if _, err := s.ks[2].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second}); err != nil {
		t.Fatalf("home read after the home died: %v", err)
	}
	obj, err := s.ks[2].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(3); err != nil {
		t.Fatal(err)
	}

	if home, replica := s.ks[2].hostCheck(cap.ID(), false); home || replica {
		t.Errorf("hostCheck = (%v, %v) after the object moved on, want (false, false)", home, replica)
	}
	before := s.ks[2].Stats()
	if got := counterValue(t, s.ks[2], cap, true); got != 1 {
		t.Errorf("stale-tolerant read = %d, want 1", got)
	}
	after := s.ks[2].Stats()
	if d := after.MovedChases - before.MovedChases; d != 0 {
		t.Errorf("the read chased %d bounces, want 0", d)
	}
	if d := after.ServedInvokes - before.ServedInvokes; d != 0 {
		t.Errorf("node 2 served %d invocations to itself, want 0", d)
	}
}
