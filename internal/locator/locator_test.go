package locator

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eden/internal/edenid"
	"eden/internal/msg"
	"eden/internal/transport"
)

var gen = edenid.NewGenerator(1)

// fixture wires locators for n nodes over a mesh. hosting maps
// node -> set of objects it is home for; replicas likewise for frozen
// replicas.
type fixture struct {
	mesh     *transport.Mesh
	locs     map[uint32]*Locator
	mu       sync.Mutex
	hosting  map[uint32]map[edenid.ID]bool
	replicas map[uint32]map[edenid.ID]bool
	backups  map[uint32]map[edenid.ID]bool
}

func newFixture(t *testing.T, nodes ...uint32) *fixture {
	t.Helper()
	f := &fixture{
		mesh:     transport.NewMesh(42),
		locs:     make(map[uint32]*Locator),
		hosting:  make(map[uint32]map[edenid.ID]bool),
		replicas: make(map[uint32]map[edenid.ID]bool),
		backups:  make(map[uint32]map[edenid.ID]bool),
	}
	t.Cleanup(func() { f.mesh.Close() })
	for _, n := range nodes {
		n := n
		ep, err := f.mesh.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		f.hosting[n] = make(map[edenid.ID]bool)
		f.replicas[n] = make(map[edenid.ID]bool)
		f.backups[n] = make(map[edenid.ID]bool)
		loc := New(n, ep.Send, func(id edenid.ID, recover bool) (bool, bool) {
			f.mu.Lock()
			defer f.mu.Unlock()
			if recover && f.backups[n][id] {
				return true, false
			}
			return f.hosting[n][id], f.replicas[n][id]
		})
		loc.DefaultTimeout = 250 * time.Millisecond
		f.locs[n] = loc
		ep.SetHandler(func(env msg.Envelope) {
			switch env.Kind {
			case msg.KindLocateReq:
				loc.HandleRequest(env)
			case msg.KindLocateRep:
				loc.HandleReply(env)
			}
		})
	}
	return f
}

func (f *fixture) host(node uint32, id edenid.ID) {
	f.mu.Lock()
	f.hosting[node][id] = true
	f.mu.Unlock()
}

func (f *fixture) unhost(node uint32, id edenid.ID) {
	f.mu.Lock()
	delete(f.hosting[node], id)
	f.mu.Unlock()
}

func (f *fixture) replica(node uint32, id edenid.ID) {
	f.mu.Lock()
	f.replicas[node][id] = true
	f.mu.Unlock()
}

func TestLookupLocalObject(t *testing.T) {
	f := newFixture(t, 1, 2)
	id := gen.Next()
	f.host(1, id)
	loc, err := f.locs[1].Lookup(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node != 1 || loc.Replica {
		t.Errorf("loc = %+v", loc)
	}
	// Local answers must not count as cache traffic.
	if st := f.locs[1].Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLookupRemoteViaBroadcast(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := gen.Next()
	f.host(3, id)
	loc, err := f.locs[1].Lookup(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node != 3 || loc.Replica {
		t.Errorf("loc = %+v", loc)
	}
	st := f.locs[1].Stats()
	if st.Misses != 1 || st.Broadcasts != 1 {
		t.Errorf("stats after first lookup = %+v", st)
	}
	// Second lookup must hit the hint cache: no new broadcast.
	if _, err := f.locs[1].Lookup(id, 0); err != nil {
		t.Fatal(err)
	}
	st = f.locs[1].Stats()
	if st.Hits != 1 || st.Broadcasts != 1 {
		t.Errorf("stats after second lookup = %+v", st)
	}
}

func TestLookupMissingTimesOut(t *testing.T) {
	f := newFixture(t, 1, 2)
	start := time.Now()
	_, err := f.locs[1].Lookup(gen.Next(), 100*time.Millisecond)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Error("lookup returned before the timeout")
	}
}

func TestLookupAnyPrefersReplica(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := gen.Next()
	f.host(2, id)
	f.replica(3, id)
	// Seed the cache with both the home and the replica.
	f.locs[1].Learn(id, 2, false)
	f.locs[1].Learn(id, 3, true)
	loc, err := f.locs[1].LookupAny(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !loc.Replica || loc.Node != 3 {
		t.Errorf("LookupAny = %+v, want the replica at node 3", loc)
	}
	// Home-only lookup must skip the replica.
	home, err := f.locs[1].Lookup(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if home.Node != 2 || home.Replica {
		t.Errorf("Lookup = %+v, want home at node 2", home)
	}
}

func TestLookupAnyPrefersLocalReplica(t *testing.T) {
	f := newFixture(t, 1, 2)
	id := gen.Next()
	f.host(2, id)
	f.replica(1, id)
	loc, err := f.locs[1].LookupAny(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node != 1 || !loc.Replica {
		t.Errorf("LookupAny = %+v, want local replica", loc)
	}
}

func TestHomeOnlyLookupIgnoresReplicaAnswers(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := gen.Next()
	f.replica(2, id) // only a replica exists; no home anywhere
	_, err := f.locs[1].Lookup(id, 150*time.Millisecond)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("home lookup satisfied by replica: %v", err)
	}
	// But the replica hint was cached, so LookupAny succeeds instantly.
	loc, err := f.locs[1].LookupAny(id, 0)
	if err != nil || !loc.Replica || loc.Node != 2 {
		t.Errorf("LookupAny after cached replica hint = %+v, %v", loc, err)
	}
}

func TestForgetForcesRebroadcast(t *testing.T) {
	f := newFixture(t, 1, 2)
	id := gen.Next()
	f.host(2, id)
	if _, err := f.locs[1].Lookup(id, 0); err != nil {
		t.Fatal(err)
	}
	f.locs[1].Forget(id)
	if _, err := f.locs[1].Lookup(id, 0); err != nil {
		t.Fatal(err)
	}
	st := f.locs[1].Stats()
	if st.Broadcasts != 2 || st.Invalidations != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStaleHintRepairAfterMove(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := gen.Next()
	f.host(2, id)
	if loc, err := f.locs[1].Lookup(id, 0); err != nil || loc.Node != 2 {
		t.Fatalf("initial lookup: %+v %v", loc, err)
	}
	// The object moves from node 2 to node 3. The kernel would
	// invalidate on a StatusMoved reply; here we exercise
	// Forget + re-lookup.
	f.unhost(2, id)
	f.host(3, id)
	f.locs[1].Forget(id)
	loc, err := f.locs[1].Lookup(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node != 3 {
		t.Errorf("post-move lookup = %+v, want node 3", loc)
	}
}

func TestLearnReplacesHome(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := gen.Next()
	f.host(3, id)
	f.locs[1].Learn(id, 2, false) // stale hint
	f.locs[1].Learn(id, 3, false) // move notification wins
	loc, err := f.locs[1].Lookup(id, 0)
	if err != nil || loc.Node != 3 {
		t.Errorf("lookup = %+v %v", loc, err)
	}
	if st := f.locs[1].Stats(); st.Broadcasts != 0 {
		t.Errorf("broadcast despite fresh hint: %+v", st)
	}
}

func TestDropReplica(t *testing.T) {
	f := newFixture(t, 1, 2)
	id := gen.Next()
	f.locs[1].Learn(id, 2, true)
	f.locs[1].DropReplica(id, 2)
	if _, ok := f.locs[1].cached(id, false); ok {
		t.Error("replica hint survived DropReplica")
	}
}

func TestSetReplicasReplacesSites(t *testing.T) {
	f := newFixture(t, 1, 2, 3, 4)
	id := gen.Next()
	// Node 2 was a checksite once; an invalidation carrying the
	// authoritative set {4} (home 3) must retire it — merging would
	// leave reads steered at a site that no longer serves.
	f.locs[1].Learn(id, 2, true)
	f.locs[1].SetReplicas(id, 3, []uint32{4})
	loc, ok := f.locs[1].cached(id, false)
	if !ok || !loc.Replica || loc.Node != 4 {
		t.Errorf("cached = %+v %v, want replica at node 4", loc, ok)
	}
	home, ok := f.locs[1].cached(id, true)
	if !ok || home.Node != 3 {
		t.Errorf("cached home = %+v, want node 3", home)
	}
	if st := f.locs[1].Stats(); st.Invalidations != 1 {
		t.Errorf("stats = %+v, want 1 invalidation for the replaced set", st)
	}
}

func TestSetReplicasExcludesHome(t *testing.T) {
	f := newFixture(t, 1, 2)
	id := gen.Next()
	// A home that appears in its own site list (RelReplicated with a
	// local site) must not register as a replica of itself.
	f.locs[1].SetReplicas(id, 2, []uint32{2})
	loc, ok := f.locs[1].cached(id, false)
	if !ok || loc.Replica || loc.Node != 2 {
		t.Errorf("cached = %+v %v, want home fallback at node 2", loc, ok)
	}
}

func TestSetReplicasFreshEntryDoesNotCountInvalidation(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := gen.Next()
	f.locs[1].SetReplicas(id, 2, []uint32{3})
	if st := f.locs[1].Stats(); st.Invalidations != 0 {
		t.Errorf("stats = %+v, want no invalidation installing into an empty entry", st)
	}
	loc, ok := f.locs[1].cached(id, false)
	if !ok || !loc.Replica || loc.Node != 3 {
		t.Errorf("cached = %+v %v, want replica at node 3", loc, ok)
	}
}

func TestPartitionedHomeUnreachable(t *testing.T) {
	f := newFixture(t, 1, 2)
	id := gen.Next()
	f.host(2, id)
	f.mesh.Partition(1, 2)
	if _, err := f.locs[1].Lookup(id, 100*time.Millisecond); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup across partition: %v", err)
	}
	f.mesh.Heal(1, 2)
	if _, err := f.locs[1].Lookup(id, 0); err != nil {
		t.Fatalf("lookup after heal: %v", err)
	}
}

func TestConcurrentLookups(t *testing.T) {
	f := newFixture(t, 1, 2, 3, 4)
	ids := make([]edenid.ID, 30)
	for i := range ids {
		ids[i] = gen.Next()
		f.host(uint32(2+i%3), ids[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, id := range ids {
				loc, err := f.locs[1].Lookup(id, time.Second)
				if err != nil {
					t.Errorf("worker %d lookup %d: %v", w, i, err)
					return
				}
				if want := uint32(2 + i%3); loc.Node != want {
					t.Errorf("lookup %d = node %d, want %d", i, loc.Node, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestClosedLocatorRejectsLookups(t *testing.T) {
	f := newFixture(t, 1, 2)
	f.locs[1].Close()
	_, err := f.locs[1].Lookup(gen.Next(), 50*time.Millisecond)
	if !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestHandleGarbageFrames(t *testing.T) {
	f := newFixture(t, 1, 2)
	// Malformed frames must be ignored, not crash.
	f.locs[1].HandleRequest(msg.Envelope{Kind: msg.KindLocateReq, Payload: []byte("junk")})
	f.locs[1].HandleReply(msg.Envelope{Kind: msg.KindLocateRep, Payload: []byte{1, 2}})
}

func (f *fixture) backup(node uint32, id edenid.ID) {
	f.mu.Lock()
	f.backups[node][id] = true
	f.mu.Unlock()
}

func TestRecoverFindsBackupSite(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := gen.Next()
	// The object's home (node 2) has died; node 3 holds only a
	// checkpoint backup. An ordinary lookup must fail ...
	f.backup(3, id)
	if _, err := f.locs[1].Lookup(id, 100*time.Millisecond); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ordinary lookup found a backup: %v", err)
	}
	// ... but the recovery protocol must find the backup site.
	loc, err := f.locs[1].Recover(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node != 3 || loc.Replica {
		t.Errorf("Recover = %+v, want home claim from node 3", loc)
	}
}

func TestRecoverBypassesStaleHint(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := gen.Next()
	f.locs[1].Learn(id, 2, false) // points at the dead home
	f.backup(3, id)
	loc, err := f.locs[1].Recover(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node != 3 {
		t.Errorf("Recover followed the stale hint: %+v", loc)
	}
}

func TestRecoverFindsOwnBackup(t *testing.T) {
	f := newFixture(t, 1, 2)
	id := gen.Next()
	// Node 1 itself holds the backup; the home (say node 2) is dead.
	f.backup(1, id)
	loc, err := f.locs[1].Recover(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node != 1 || loc.Replica || !loc.Fresh {
		t.Errorf("Recover = %+v, want local home claim", loc)
	}
}

// TestHandleReplyWaiterBufferFull floods a waiter's reply buffer and
// verifies that further replies neither block the transport goroutine
// delivering them nor get wasted: the hint is cached even though the
// waiter can't take the reply.
func TestHandleReplyWaiterBufferFull(t *testing.T) {
	l := New(1, func(env msg.Envelope) error { return nil },
		func(id edenid.ID, recover bool) (bool, bool) { return false, false })
	id := gen.Next()

	// Install a lookup waiter by hand and fill its buffer to the brim,
	// as a storm of replica answers would.
	w := &waiter{ch: make(chan msg.LocateRep, 8), object: id, wantHome: true}
	l.mu.Lock()
	l.waiters[7] = w
	l.mu.Unlock()
	for i := 0; i < cap(w.ch); i++ {
		w.ch <- msg.LocateRep{Object: id, Node: uint32(10 + i), Replica: true}
	}

	// One more reply than the buffer holds. HandleReply runs on the
	// transport's delivery goroutine, so it must return promptly even
	// though nobody is draining the waiter.
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep := msg.LocateRep{Object: id, Node: 42, Replica: false}
		l.HandleReply(msg.Envelope{Kind: msg.KindLocateRep, Corr: 7, Payload: rep.Encode(nil)})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("HandleReply blocked on a full waiter buffer")
	}

	// The overflowed reply's hint must still have been cached.
	loc, ok := l.cached(id, true)
	if !ok || loc.Node != 42 {
		t.Fatalf("overflowed reply not cached: loc=%+v ok=%v", loc, ok)
	}
	// And the waiter's buffered replies are intact.
	if len(w.ch) != cap(w.ch) {
		t.Errorf("waiter buffer disturbed: len=%d cap=%d", len(w.ch), cap(w.ch))
	}
}

// created2 names objects created on node 2, so that node 1 has a
// creator to guess.
var created2 = edenid.NewGenerator(2)

// TestLookupGuessesCreator: with nothing cached, a lookup answers the
// name's creating node as a guess, without a frame; the creator itself
// never guesses its own node.
func TestLookupGuessesCreator(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := created2.Next()
	f.host(2, id)
	for i := 1; i <= 2; i++ {
		loc, err := f.locs[1].Lookup(id, 0)
		if err != nil || loc != (Location{Node: 2, Guess: true}) {
			t.Fatalf("lookup %d = %+v, %v; want a guess at node 2", i, loc, err)
		}
	}
	if st := f.locs[1].Stats(); st.Guesses != 2 || st.Hits != 0 || st.Broadcasts != 0 {
		t.Errorf("stats = %+v, want two guesses and no broadcast", st)
	}
	f.unhost(2, id)
	if _, err := f.locs[2].Lookup(id, 50*time.Millisecond); !errors.Is(err, ErrNotFound) {
		t.Errorf("the creator's own lookup: %v, want a broadcast that finds nothing", err)
	}
}

// TestCreatorHomeIsNotCached: the cache holds exceptions only. Learning
// that an object is at its creator, from a move or a broadcast answer,
// leaves no entry; learning that it is elsewhere does, until it is back.
func TestCreatorHomeIsNotCached(t *testing.T) {
	f := newFixture(t, 1, 2, 3)
	id := created2.Next()
	l := f.locs[1]
	entries := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.hints)
	}
	l.Learn(id, 2, false)
	if n := entries(); n != 0 {
		t.Errorf("home at the creator: %d entries, want 0", n)
	}
	l.Learn(id, 3, false)
	if loc, _ := l.Lookup(id, 0); loc.Node != 3 || loc.Guess {
		t.Errorf("moved object: lookup = %+v, want the cached home at node 3", loc)
	}
	l.Learn(id, 2, false)
	if n := entries(); n != 0 {
		t.Errorf("back at the creator: %d entries, want 0", n)
	}
	f.host(2, id)
	l.Forget(id) // rule the guess out, so that the lookup broadcasts
	if loc, err := l.Lookup(id, 0); err != nil || loc.Node != 2 || !loc.Fresh {
		t.Fatalf("broadcast lookup = %+v, %v", loc, err)
	}
	if n := entries(); n != 0 {
		t.Errorf("after the creator answered a broadcast: %d entries, want 0", n)
	}
}

// TestForgetRulesOutGuess: a guess that proved wrong is not made again
// — not even after the broadcast's answer proves wrong in its turn — until
// a hint places the object back at its creator.
func TestForgetRulesOutGuess(t *testing.T) {
	f := newFixture(t, 1, 2, 3, 4)
	id := created2.Next()
	f.host(3, id)
	l := f.locs[1]
	if loc, _ := l.Lookup(id, 0); !loc.Guess {
		t.Fatalf("first lookup = %+v, want the guess", loc)
	}
	l.Forget(id)
	if loc, err := l.Lookup(id, 0); err != nil || loc.Node != 3 || loc.Guess {
		t.Fatalf("after a wrong guess: %+v, %v; want a broadcast finding node 3", loc, err)
	}
	f.unhost(3, id)
	f.host(4, id)
	l.Forget(id)
	if loc, err := l.Lookup(id, 0); err != nil || loc.Node != 4 || loc.Guess {
		t.Fatalf("after a stale hint: %+v, %v; want a broadcast finding node 4", loc, err)
	}
	if st := l.Stats(); st.Guesses != 1 || st.Broadcasts != 2 {
		t.Errorf("stats = %+v, want one guess and two broadcasts", st)
	}
	l.Learn(id, 2, false)
	if loc, _ := l.Lookup(id, 0); !loc.Guess {
		t.Errorf("object back at its creator: lookup = %+v, want the guess again", loc)
	}
}
