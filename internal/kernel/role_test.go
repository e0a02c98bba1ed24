package kernel

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eden/internal/edenid"
	"eden/internal/killpoint"
	"eden/internal/msg"
	"eden/internal/store"
)

// TestSiblingChecksitesPromoteOnce: when the home of an object with two
// remote checksites fails, failure recovery asks both to claim it, and
// exactly one becomes the home; the other holds the new home's backup,
// and every node then sees one history of the object.
func TestSiblingChecksitesPromoteOnce(t *testing.T) {
	s := newSys(t, 1, 2, 3, 4)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelRemote, Sites: []uint32{3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	s.crashNode(1)
	rep, err := s.ks[2].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("read after the home died: %v", err)
	}
	if got := fromU64(rep.Data); got != 1 {
		t.Errorf("recovered state = %d, want the checkpointed 1", got)
	}
	var homes []uint32
	for _, n := range []uint32{3, 4} {
		if home, _ := s.ks[n].hostCheck(cap.ID(), false); home {
			homes = append(homes, n)
		}
	}
	if len(homes) != 1 {
		t.Fatalf("nodes %v answer as the object's home, want exactly one", homes)
	}
	mustInvoke(t, s.ks[3], cap, "inc", nil)
	mustInvoke(t, s.ks[4], cap, "inc", nil)
	for _, n := range []uint32{3, 4} {
		if got := fromU64(mustInvoke(t, s.ks[n], cap, "get", nil).Data); got != 3 {
			t.Errorf("get at node %d = %d, want 3: one history", n, got)
		}
	}
}

// TestDestroyAfterMoveReachesOldChecksites: the checksite policy travels
// with a moved object, so a Destroy at the new home reaches the
// checksite the old home shipped to, and failure recovery cannot bring
// the destroyed object back from it.
func TestDestroyAfterMoveReachesOldChecksites(t *testing.T) {
	s := newSys(t, 1, 2, 3, 4)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{3}}})
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
	mustInvoke(t, s.ks[2], cap, "inc", nil)
	moved, err := s.ks[2].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := moved.Destroy(); err != nil {
		t.Fatalf("destroy at the new home: %v", err)
	}
	if _, held := s.stores[3].Stat(cap.ID()); held {
		t.Error("the old home's checksite still holds a record of the destroyed object")
	}
	rep, err := s.ks[4].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: time.Second})
	if err == nil {
		t.Fatalf("the destroyed object answered %d", fromU64(rep.Data))
	}
	if !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("invoke of the destroyed object: %v, want ErrNoSuchObject", err)
	}
}

// TestClaimGrantedKeepsTheClaimedRecord pins where the claim.granted
// crash boundary lies: every sibling has granted the claim, and the
// claimant's own record is still the one it claimed. A kill there must
// find that record in the claimant's store, version and epoch unchanged,
// so that a restart claims again from it; a kill after the home record
// is written would test nothing the boundary names.
func TestClaimGrantedKeepsTheClaimedRecord(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{3}}})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	s.crashNode(1)
	claimed, ok := s.stores[1].Stat(cap.ID())
	if !ok {
		t.Fatal("the crashed home holds no record")
	}
	k1 := s.restartNode(1)

	killpoint.Reset()
	t.Cleanup(killpoint.Reset)
	var (
		mu   sync.Mutex
		hits int
		seen store.Meta
		held bool
	)
	killpoint.Arm(killpoint.ClaimGranted, 0, func(killpoint.Point) {
		mu.Lock()
		defer mu.Unlock()
		hits++
		seen, held = s.stores[1].Stat(cap.ID())
	})
	mustInvoke(t, k1, cap, "inc", nil) // the restarted home claims before it serves

	mu.Lock()
	defer mu.Unlock()
	if hits != 1 {
		t.Fatalf("claim.granted fired %d times, want once", hits)
	}
	if !held || seen.Version != claimed.Version || seen.Epoch != claimed.Epoch {
		t.Errorf("at claim.granted the claimant's record is v%d e%d (held %v), want the claimed v%d e%d",
			seen.Version, seen.Epoch, held, claimed.Version, claimed.Epoch)
	}
	if home, _ := s.stores[1].Stat(cap.ID()); home.Epoch != normEpoch(claimed.Epoch)+1 {
		t.Errorf("after the claim the home record is at epoch %d, want %d", home.Epoch, normEpoch(claimed.Epoch)+1)
	}
}

// TestRestartedHomeKeepsItsChecksites: the checksite policy is written
// with the checkpoint, so a home that restarts keeps shipping where it
// did, and its Destroy still reaches the checksite.
func TestRestartedHomeKeepsItsChecksites(t *testing.T) {
	s := newSys(t, 1, 2, 3, 4)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{3}}})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	s.crashNode(1)
	k1 := s.restartNode(1)
	mustInvoke(t, k1, cap, "inc", nil)
	mustInvoke(t, k1, cap, "checkpoint", nil)
	home, _ := s.stores[1].Stat(cap.ID())
	site, _ := s.stores[3].Stat(cap.ID())
	if home.Version != site.Version {
		t.Errorf("the home is at v%d and its checksite at v%d: the restart lost the policy", home.Version, site.Version)
	}
	obj, err := k1.Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Destroy(); err != nil {
		t.Fatalf("destroy at the restarted home: %v", err)
	}
	if _, held := s.stores[3].Stat(cap.ID()); held {
		t.Error("the checksite still holds a record of the destroyed object")
	}
	if rep, err := s.ks[4].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: time.Second}); err == nil {
		t.Fatalf("the destroyed object answered %d", fromU64(rep.Data))
	}
}

// TestChecksiteChangedBeforeCheckpoint: a checksite that a policy change
// dropped before any checkpoint went to it holds nothing, so it is no
// ex-checksite, and neither the restarted home nor a recovering
// checksite waits for it to grant a claim.
func TestChecksiteChangedBeforeCheckpoint(t *testing.T) {
	for _, level := range []Reliability{RelReplicated, RelLocal} {
		t.Run(level.String(), func(t *testing.T) {
			s := newSys(t, 1, 2, 3, 4)
			mustRegister(t, s.reg, counterType(nil))
			cap, err := s.ks[1].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{3}}})
			if err != nil {
				t.Fatal(err)
			}
			obj, err := s.ks[1].Object(cap.ID())
			if err != nil {
				t.Fatal(err)
			}
			var sites []uint32
			if level != RelLocal {
				sites = []uint32{2}
			}
			if err := obj.SetChecksite(level, sites...); err != nil {
				t.Fatal(err)
			}
			mustInvoke(t, s.ks[1], cap, "inc", nil)
			mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
			if _, held := s.stores[3].Stat(cap.ID()); held {
				t.Fatal("the dropped checksite holds a record")
			}
			s.crashNode(1)
			k1 := s.restartNode(1)
			rep, err := k1.Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
			if err != nil {
				t.Fatalf("invoke at the restarted home: %v", err)
			}
			if got := fromU64(rep.Data); got != 1 {
				t.Errorf("get = %d, want 1", got)
			}
			if level == RelLocal {
				return
			}
			// The checksite's own recovery claim needs no grant from node 3
			// either.
			s.crashNode(1)
			rep, err = s.ks[4].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
			if err != nil {
				t.Fatalf("invoke after the home died: %v", err)
			}
			if got := fromU64(rep.Data); got != 1 {
				t.Errorf("recovered get = %d, want 1", got)
			}
		})
	}
}

// TestFailedGrantIsUndone: a checksite whose store cannot take a claim's
// record refuses the claim and keeps the backup role it had, so the live
// home's next checkpoint still reaches it.
func TestFailedGrantIsUndone(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelReplicated, Sites: []uint32{2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	s.faults[3].FailWith(store.ErrFailed)
	if s.ks[2].claim(cap.ID(), time.Now().Add(time.Second)) {
		t.Fatal("a claim was granted by a checksite whose store failed")
	}
	s.faults[3].FailWith(nil)
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	mustInvoke(t, s.ks[1], cap, "checkpoint", nil)
	if m, _ := s.stores[3].Stat(cap.ID()); m.Version != 2 || m.Home != 1 {
		t.Errorf("the checksite holds v%d for node %d, want v2 for node 1", m.Version, m.Home)
	}
}

// claim settles id's record at k the way failure recovery does, and
// reports whether k now serves the object as its home.
func (k *Kernel) claim(id edenid.ID, deadline time.Time) bool {
	_ = k.settle(id, deadline)
	return k.judgeRecord(id).role == ownRecord
}

// TestChecksitePolicyBounded: a policy with more checksites than a
// record can list is refused when it is chosen, not truncated when it is
// written.
func TestChecksitePolicyBounded(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	sites := make([]uint32, store.MaxSites+1)
	if _, err := s.ks[1].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelRemote, Sites: sites}}); err == nil {
		t.Error("Create took a policy a record cannot hold")
	}
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.SetChecksite(RelRemote, sites...); err == nil {
		t.Error("SetChecksite took a policy a record cannot hold")
	}
}

// TestShipLaneServesInOrder: senders sharing a lane, pushing at once,
// have every shipment served once, each sender's in the order it pushed
// them, and the lane's goroutine stops once the queue is empty.
func TestShipLaneServesInOrder(t *testing.T) {
	const senders, each = 4, 200
	var lane shipLane
	var mu sync.Mutex
	next := make(map[uint32]uint64)
	var served sync.WaitGroup
	served.Add(senders * each)
	serve := func(env msg.Envelope) {
		mu.Lock()
		if env.Corr != next[env.From] {
			t.Errorf("sender %d: shipment %d served after %d", env.From, env.Corr, next[env.From])
		}
		next[env.From] = env.Corr + 1
		mu.Unlock()
		served.Done()
	}
	var pushers sync.WaitGroup
	for from := uint32(1); from <= senders; from++ {
		pushers.Add(1)
		go func() {
			defer pushers.Done()
			for corr := uint64(0); corr < each; corr++ {
				lane.push(msg.Envelope{From: from, Corr: corr}, serve)
			}
		}()
	}
	pushers.Wait()
	served.Wait()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		lane.mu.Lock()
		idle := !lane.running && len(lane.queue) == 0
		lane.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the lane's goroutine still runs with nothing queued")
		}
	}
}
