package kernel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// locateCost is what one node's invocation cost in location traffic.
type locateCost struct {
	frames                       int64 // every frame the mesh delivered
	guesses, hits, broadcasts    int64 // the invoker's locator
	chases, remote, servedAtHome int64
}

// measureLocate runs fn and reports the traffic it caused, as seen from
// the invoker and from home.
func measureLocate(s *sys, invoker, home uint32, fn func()) locateCost {
	f0, l0, k0, h0 := s.mesh.Stats().Frames, s.ks[invoker].Locator().Stats(), s.ks[invoker].Stats(), s.ks[home].Stats()
	fn()
	f1, l1, k1, h1 := s.mesh.Stats().Frames, s.ks[invoker].Locator().Stats(), s.ks[invoker].Stats(), s.ks[home].Stats()
	return locateCost{
		frames:  f1 - f0,
		guesses: l1.Guesses - l0.Guesses, hits: l1.Hits - l0.Hits, broadcasts: l1.Broadcasts - l0.Broadcasts,
		chases: k1.MovedChases - k0.MovedChases, remote: k1.RemoteInvokes - k0.RemoteInvokes,
		servedAtHome: h1.ServedInvokes - h0.ServedInvokes,
	}
}

// TestFirstTouchGoesToCreator: an object that never left the node that
// created it costs its first remote invocation what every later one
// costs — a request and a reply, no broadcast — and the invoker caches
// nothing about it: every touch is the same guess.
func TestFirstTouchGoesToCreator(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cp, err := s.ks[2].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		got := measureLocate(s, 1, 2, func() {
			if n := fromU64(mustInvoke(t, s.ks[1], cp, "inc", nil).Data); n != i {
				t.Errorf("touch %d: counter = %d", i, n)
			}
		})
		if want := (locateCost{frames: 2, guesses: 1, remote: 1, servedAtHome: 1}); got != want {
			t.Errorf("touch %d cost %+v, want %+v", i, got, want)
		}
	}
}

// TestMovedObjectFoundThroughCreator: a node that missed the move's
// invalidation still finds the object without a broadcast — its creator
// answers the guess with StatusMoved, and the chase is cached.
func TestMovedObjectFoundThroughCreator(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cp, err := s.ks[2].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[2], cp, "inc", nil)
	obj, _ := s.ks[2].Object(cp.ID())
	if err := <-obj.Move(3); err != nil {
		t.Fatal(err)
	}
	s.addNode(4) // joined after the move: it knows only the name
	got := measureLocate(s, 4, 3, func() {
		if n := fromU64(mustInvoke(t, s.ks[4], cp, "inc", nil).Data); n != 2 {
			t.Errorf("counter = %d, want 2", n)
		}
	})
	if want := (locateCost{frames: 4, guesses: 1, hits: 1, chases: 1, remote: 2, servedAtHome: 1}); got != want {
		t.Errorf("first touch cost %+v, want %+v", got, want)
	}
	got = measureLocate(s, 4, 3, func() { mustInvoke(t, s.ks[4], cp, "get", nil) })
	if want := (locateCost{frames: 2, hits: 1, remote: 1, servedAtHome: 1}); got != want {
		t.Errorf("second touch cost %+v, want %+v", got, want)
	}
}

// TestCreatorWithoutRecordCostsOneBroadcast: a creator that neither
// holds the object nor knows where it went (it restarted since the move,
// on a log that lost the move's forward) answers StatusNoSuchObject, and
// the invoker broadcasts once. The guess is not made again.
func TestCreatorWithoutRecordCostsOneBroadcast(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cp, err := s.ks[2].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[2], cp, "checkpoint", nil)
	obj, _ := s.ks[2].Object(cp.ID())
	if err := <-obj.Move(3); err != nil {
		t.Fatal(err)
	}
	s.crashNode(2)
	if err := s.stores[2].Delete(cp.ID()); err != nil {
		t.Fatal(err)
	}
	s.restartNode(2)
	s.addNode(4)
	got := measureLocate(s, 4, 3, func() { mustInvoke(t, s.ks[4], cp, "get", nil) })
	// Request and StatusNoSuchObject to the creator, the broadcast to
	// three peers and node 3's answer, request and reply to node 3.
	if want := (locateCost{frames: 8, guesses: 1, broadcasts: 1, remote: 2, servedAtHome: 1}); got != want {
		t.Errorf("first touch cost %+v, want %+v", got, want)
	}
	if n := s.ks[2].Stats().ServedInvokes; n != 1 {
		t.Errorf("the creator answered %d calls, want one StatusNoSuchObject", n)
	}
	got = measureLocate(s, 4, 3, func() { mustInvoke(t, s.ks[4], cp, "get", nil) })
	if want := (locateCost{frames: 2, hits: 1, remote: 1, servedAtHome: 1}); got != want {
		t.Errorf("second touch cost %+v, want %+v", got, want)
	}
}

// TestDetachedCreatorRecoversWithinBudget: the creator is the home and
// has failed; a checksite holds the object's checkpoint. The guess at the
// dead creator is charged to the locate budget, so failure recovery
// still completes inside the budget of a survival test (a 3 s call,
// 2 s locate timeout), as it did when the first touch broadcast.
func TestDetachedCreatorRecoversWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a dead node's probe and broadcast")
	}
	t.Parallel()
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	for _, k := range s.ks {
		k.loc.DefaultTimeout = 2 * time.Second
	}
	cp, err := s.ks[2].Create("counter", &CreateOptions{Checksite: &ChecksiteSpec{Level: RelRemote, Sites: []uint32{3}}})
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[2], cp, "inc", nil)
	mustInvoke(t, s.ks[2], cp, "checkpoint", nil)
	s.crashNode(2)

	start := time.Now()
	rep, err := s.ks[1].Invoke(cp, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("after %v: %v", time.Since(start), err)
	}
	if n := fromU64(rep.Data); n != 1 {
		t.Errorf("recovered counter = %d, want 1", n)
	}
	if st := s.ks[1].Locator().Stats(); st.Guesses != 1 || st.Broadcasts != 2 {
		t.Errorf("locator %+v, want one guess, one lookup and one recovery broadcast", st)
	}
}

// TestSpentBudgetSendsNoRecovery: an invocation whose lookup ran out its
// whole budget answers ErrTimeout at its deadline and sends no recovery
// broadcast. Here the home is alive but 100 ms away, so the lookup's
// broadcast goes unanswered within a 1 ms call; a recovery broadcast sent
// after it was waited for until the home's answer came back, 200 ms past
// the deadline.
func TestSpentBudgetSendsNoRecovery(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cp, err := s.ks[2].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.mesh.SetLatency(func(from, to uint32) time.Duration { return 100 * time.Millisecond })
	s.ks[1].loc.Forget(cp.ID()) // the creator is ruled out: the first hop is the lookup
	before := s.ks[1].Locator().Stats().Broadcasts
	const timeout = time.Millisecond
	start := time.Now()
	_, err = s.ks[1].Invoke(cp, "get", nil, nil, &InvokeOptions{Timeout: timeout})
	if took := time.Since(start); took > timeout+50*time.Millisecond {
		t.Errorf("a %v invocation answered after %v", timeout, took)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if n := s.ks[1].Locator().Stats().Broadcasts - before; n != 1 {
		t.Errorf("%d broadcasts, want the lookup's alone", n)
	}
}

// TestRightGuessOutlastsItsProbe: a guess at the creator is waited for
// only half the locate budget (125 ms here), but a right guess at a write
// that runs 200 ms must not time out with most of a 750 ms invocation
// left. The serving node runs the write to the invocation's deadline;
// the invoker, done waiting on the guess, locates the object and sends
// the request again under the same corr, which the serving node answers
// with the first execution's reply instead of running the write twice.
func TestRightGuessOutlastsItsProbe(t *testing.T) {
	const work = 200 * time.Millisecond
	s := newSys(t, 1, 2)
	var runs atomic.Int32
	tm := NewType("slowcount")
	tm.Op(Operation{Name: "inc", Handler: func(c *Call) {
		time.Sleep(work)
		c.Return(u64(uint64(runs.Add(1))))
	}})
	mustRegister(t, s.reg, tm)
	cp, err := s.ks[2].Create("slowcount", nil)
	if err != nil {
		t.Fatal(err)
	}
	if probe := s.ks[1].loc.DefaultTimeout / 2; probe >= work || work >= s.ks[1].cfg.DefaultTimeout {
		t.Fatalf("the guess's wait %v and the invocation timeout %v must bracket the write's %v", probe, s.ks[1].cfg.DefaultTimeout, work)
	}
	var rep Reply
	got := measureLocate(s, 1, 2, func() {
		if rep, err = s.ks[1].Invoke(cp, "inc", nil, nil, nil); err != nil {
			t.Fatalf("a right guess at a %v write: %v", work, err)
		}
	})
	time.Sleep(work) // a second execution would have finished by now
	if n := runs.Load(); n != 1 || fromU64(rep.Data) != 1 {
		t.Errorf("the write ran %d times, replied %d; want once", n, fromU64(rep.Data))
	}
	// What the slow node costs today (TestRoutePolicySlowGuess): the guess,
	// a broadcast and its answer, the retransmission (dropped while the
	// write runs) and the first execution's reply. The request and its reply
	// would do.
	if want := (locateCost{frames: 5, guesses: 1, broadcasts: 1, remote: 2, servedAtHome: 1}); got != want {
		t.Errorf("cost %+v, want %+v", got, want)
	}
}
