package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/killpoint"
	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/transport"
)

// ---- store traffic ----

// countingStore counts the calls that read or write the medium. Stat is
// counted apart: it is a question, answered from memory.
type countingStore struct {
	store.Store
	gets, puts, deletes, lists, stats atomic.Int64

	faults *store.Faults // the fault layer under Store
}

func (c *countingStore) Get(id edenid.ID) (store.Record, error) {
	c.gets.Add(1)
	return c.Store.Get(id)
}

func (c *countingStore) Put(rec store.Record) error {
	c.puts.Add(1)
	return c.Store.Put(rec)
}

func (c *countingStore) Delete(id edenid.ID) error {
	c.deletes.Add(1)
	return c.Store.Delete(id)
}

func (c *countingStore) List() ([]edenid.ID, error) {
	c.lists.Add(1)
	return c.Store.List()
}

func (c *countingStore) Stat(id edenid.ID) (store.Meta, bool) {
	c.stats.Add(1)
	return c.Store.Stat(id)
}

func (c *countingStore) reset() {
	c.gets.Store(0)
	c.puts.Store(0)
	c.deletes.Store(0)
	c.lists.Store(0)
	c.stats.Store(0)
}

// traffic is gets, puts, deletes+lists.
func (c *countingStore) traffic() [3]int64 {
	return [3]int64{c.gets.Load(), c.puts.Load(), c.deletes.Load() + c.lists.Load()}
}

// countedSys is an N-node system whose kernels sit on counting stores.
func countedSys(t *testing.T, tweak func(*Config), nodes ...uint32) (map[uint32]*Kernel, map[uint32]*countingStore, *Registry) {
	t.Helper()
	mesh := transport.NewMesh(7)
	t.Cleanup(func() { mesh.Close() })
	reg := NewRegistry()
	ks := make(map[uint32]*Kernel)
	sts := make(map[uint32]*countingStore)
	for _, n := range nodes {
		ep, err := mesh.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(n, fmt.Sprintf("node-%d", n))
		cfg.DefaultTimeout = 2 * time.Second
		if tweak != nil {
			tweak(&cfg)
		}
		f, fl := memLog(t)
		sts[n] = &countingStore{Store: f, faults: fl}
		ks[n] = New(cfg, ep, reg, sts[n])
		k := ks[n]
		t.Cleanup(func() { k.Close() })
	}
	return ks, sts, reg
}

// passivated creates a counter on k, bumps it, and passivates it.
func passivated(t *testing.T, k *Kernel) capability.Capability {
	t.Helper()
	cp, err := k.Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, k, cp, "inc", nil)
	obj, err := k.Object(cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Passivate(); err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestStoreTrafficPerInvocation pins what an invocation asks of the
// stores: touching a passive object reads its record once, on its home
// node, and writes nothing; the invoking node's store is asked about the
// object but never read; a resident object costs neither store anything.
func TestStoreTrafficPerInvocation(t *testing.T) {
	ks, sts, reg := countedSys(t, nil, 1, 2)
	mustRegister(t, reg, counterType(nil))
	cp := passivated(t, ks[2])
	sts[1].reset()
	sts[2].reset()

	if got := fromU64(mustInvoke(t, ks[1], cp, "get", nil).Data); got != 1 {
		t.Fatalf("passive object answered %d, want 1", got)
	}
	if got, want := sts[2].traffic(), [3]int64{1, 0, 0}; got != want {
		t.Errorf("home node: gets, puts, other = %v, want %v", got, want)
	}
	if got, want := sts[1].traffic(), [3]int64{0, 0, 0}; got != want {
		t.Errorf("invoking node: gets, puts, other = %v, want %v", got, want)
	}
	if sts[1].stats.Load() == 0 || sts[2].stats.Load() == 0 {
		t.Errorf("stats = %d invoking, %d home: the directory was not asked", sts[1].stats.Load(), sts[2].stats.Load())
	}

	sts[1].reset()
	sts[2].reset()
	mustInvoke(t, ks[1], cp, "get", nil)
	for n, st := range sts {
		if got := st.traffic(); got != [3]int64{} {
			t.Errorf("node %d, resident object: gets, puts, other = %v, want none", n, got)
		}
	}
}

// ---- the clean/dirty matrix ----

// bootsType counts its reincarnations in a segment: a Reincarnate hook
// that mutates.
func bootsType() *TypeManager {
	tm := NewType("boots")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("boots", u64(0))
			return nil
		})
	}
	tm.Reincarnate = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			b, _ := r.Data("boots")
			r.SetData("boots", u64(fromU64(b)+1))
			return nil
		})
	}
	tm.Op(Operation{Name: "boots", Access: AccessRead, Handler: func(c *Call) {
		c.Self().View(func(r *segment.Representation) {
			b, _ := r.Data("boots")
			c.Return(b)
		})
	}})
	return tm
}

// TestPassivateWritesOnlyWhatChanged is the specification of the clean
// rule: each row brings an incarnation into a state, passivates it, and
// checks how many Puts that cost and what the next incarnation sees.
func TestPassivateWritesOnlyWhatChanged(t *testing.T) {
	type rig struct {
		t   *testing.T
		k   *Kernel
		st  *countingStore
		mem *store.File
	}
	// reincarnated returns a fresh incarnation of a counter that was
	// passivated at value 1, record version 1.
	reincarnated := func(r *rig) *Object {
		r.t.Helper()
		cp := passivated(r.t, r.k)
		obj, err := r.k.Object(cp.ID())
		if err != nil {
			r.t.Fatal(err)
		}
		return obj
	}
	counter := func(r *rig, id edenid.ID) uint64 {
		r.t.Helper()
		return fromU64(mustInvoke(r.t, r.k, capability.New(id, 0xffffffff), "get", nil).Data)
	}
	rows := []struct {
		name string
		// prepare returns the incarnation to passivate.
		prepare func(r *rig) *Object
		puts    int64
		// after inspects the record and the next incarnation.
		after func(r *rig, id edenid.ID, before, rec store.Record)
	}{
		{
			name:    "untouched since reincarnation",
			prepare: reincarnated,
			puts:    0,
			after: func(r *rig, id edenid.ID, before, rec store.Record) {
				if rec.Version != before.Version || !bytes.Equal(rec.Rep, before.Rep) || rec.Frozen != before.Frozen {
					r.t.Errorf("record changed: v%d -> v%d", before.Version, rec.Version)
				}
				if got := counter(r, id); got != 1 {
					r.t.Errorf("next incarnation sees %d, want 1", got)
				}
			},
		},
		{
			name: "read only",
			prepare: func(r *rig) *Object {
				obj := reincarnated(r)
				counter(r, obj.id)
				return obj
			},
			puts: 0,
		},
		{
			name: "after Update",
			prepare: func(r *rig) *Object {
				obj := reincarnated(r)
				mustInvoke(r.t, r.k, capability.New(obj.id, 0xffffffff), "inc", nil)
				return obj
			},
			puts: 1,
			after: func(r *rig, id edenid.ID, before, rec store.Record) {
				if rec.Version != before.Version+1 {
					r.t.Errorf("version %d -> %d, want +1", before.Version, rec.Version)
				}
				if got := counter(r, id); got != 2 {
					r.t.Errorf("next incarnation sees %d, want 2", got)
				}
			},
		},
		{
			name: "after explicit Checkpoint",
			prepare: func(r *rig) *Object {
				obj := reincarnated(r)
				mustInvoke(r.t, r.k, capability.New(obj.id, 0xffffffff), "inc", nil)
				if err := obj.Checkpoint(); err != nil {
					r.t.Fatal(err)
				}
				r.st.reset()
				return obj
			},
			puts: 0,
			after: func(r *rig, id edenid.ID, before, rec store.Record) {
				if got := counter(r, id); got != 2 {
					r.t.Errorf("next incarnation sees %d, want 2", got)
				}
			},
		},
		{
			name: "after Freeze",
			prepare: func(r *rig) *Object {
				obj := reincarnated(r)
				if err := obj.Freeze(); err != nil {
					r.t.Fatal(err)
				}
				return obj
			},
			puts: 1,
			after: func(r *rig, id edenid.ID, before, rec store.Record) {
				if !rec.Frozen {
					r.t.Error("record not frozen")
				}
				obj, err := r.k.Object(id)
				if err != nil || !obj.Frozen() {
					r.t.Errorf("next incarnation frozen = %v, %v", obj != nil && obj.Frozen(), err)
				}
			},
		},
		{
			name: "Reincarnate hook writes a segment",
			prepare: func(r *rig) *Object {
				cp, err := r.k.Create("boots", nil)
				if err != nil {
					r.t.Fatal(err)
				}
				obj, _ := r.k.Object(cp.ID())
				if err := obj.Passivate(); err != nil {
					r.t.Fatal(err)
				}
				obj, err = r.k.Object(cp.ID()) // boots = 1, in memory only
				if err != nil {
					r.t.Fatal(err)
				}
				return obj
			},
			puts: 1,
			after: func(r *rig, id edenid.ID, before, rec store.Record) {
				got := fromU64(mustInvoke(r.t, r.k, capability.New(id, 0xffffffff), "boots", nil).Data)
				if got != 2 {
					r.t.Errorf("boots = %d after two reincarnations, want 2: the hook's write was dropped", got)
				}
			},
		},
		{
			name: "never checkpointed",
			prepare: func(r *rig) *Object {
				cp, err := r.k.Create("counter", nil)
				if err != nil {
					r.t.Fatal(err)
				}
				obj, _ := r.k.Object(cp.ID())
				return obj
			},
			puts: 1,
			after: func(r *rig, id edenid.ID, before, rec store.Record) {
				if rec.Version != 1 {
					r.t.Errorf("first record at v%d, want 1", rec.Version)
				}
			},
		},
		{
			name: "promoted from a backup record",
			prepare: func(r *rig) *Object {
				// A checkpoint shipped here by node 7, whose failure
				// recovery then makes this node the home.
				rep := segment.New()
				rep.SetData("n", u64(5))
				id := edenid.NewGenerator(7).Next()
				ship := store.Record{Object: id, TypeName: "counter", Version: 3, Epoch: 1, Backup: true, Home: 7, Rep: rep.Encode(nil)}
				if err := r.mem.Put(ship); err != nil {
					r.t.Fatal(err)
				}
				r.k.mu.Lock()
				r.k.stepRoleLocked(id, roleEvent{kind: evBoot, record: true, rec: ship.Meta()}, nil)
				r.k.mu.Unlock()
				if home, _ := r.k.hostCheck(id, true); !home {
					r.t.Fatal("recovery did not promote the backup")
				}
				obj, err := r.k.Object(id)
				if err != nil {
					r.t.Fatal(err)
				}
				return obj
			},
			// The claim wrote the home record, one version on, before the
			// incarnation was made: it is clean.
			puts: 0,
			after: func(r *rig, id edenid.ID, before, rec store.Record) {
				if rec.Backup || rec.Version != 4 || rec.Epoch != 2 {
					r.t.Errorf("record backup=%v v%d e%d, want a home record at v4 e2", rec.Backup, rec.Version, rec.Epoch)
				}
				if got := counter(r, id); got != 5 {
					r.t.Errorf("next incarnation sees %d, want 5", got)
				}
				// A restart rebuilds k.roles from the records' markers.
				mesh := transport.NewMesh(7)
				defer mesh.Close()
				ep, _ := mesh.Attach(1)
				k2 := New(DefaultConfig(1, "restarted"), ep, r.k.types, r.mem)
				defer k2.Close()
				if role := k2.roles[id]; role != nil && role.home != 0 {
					r.t.Error("restart took the promoted object's record for a backup")
				}
			},
		},
		{
			name: "local Put failed",
			prepare: func(r *rig) *Object {
				obj := reincarnated(r)
				r.st.faults.FailWith(store.ErrFailed)
				if err := obj.Checkpoint(); err == nil {
					r.t.Fatal("checkpoint onto a failed medium succeeded")
				}
				r.st.faults.FailWith(nil)
				r.st.reset()
				return obj
			},
			puts: 1,
			after: func(r *rig, id edenid.ID, before, rec store.Record) {
				if rec.Version <= before.Version {
					r.t.Errorf("record still at v%d", rec.Version)
				}
			},
		},
		{
			name: "local Put stale",
			prepare: func(r *rig) *Object {
				obj := reincarnated(r)
				rec, _ := r.mem.Get(obj.id)
				rec.Version += 10 // something else wrote the record
				if err := r.mem.Put(rec); err != nil {
					r.t.Fatal(err)
				}
				if err := obj.Checkpoint(); err != nil { // tolerated, but the record is not ours
					r.t.Fatal(err)
				}
				r.st.reset()
				return obj
			},
			puts: 1,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ks, sts, reg := countedSys(t, nil, 1)
			mustRegister(t, reg, counterType(nil), bootsType())
			r := &rig{t: t, k: ks[1], st: sts[1], mem: sts[1].Store.(*store.File)}
			obj := row.prepare(r)
			before, _ := r.mem.Get(obj.id)
			r.st.reset()
			// The crash boundary is crossed whether or not anything is written.
			killpoint.Reset()
			t.Cleanup(killpoint.Reset)
			killpoint.Observe()
			if err := obj.Passivate(); err != nil {
				t.Fatal(err)
			}
			if got := killpoint.Hits(killpoint.PassivatePreRelease); got != 1 {
				t.Errorf("passivate.pre-release hit %d times, want 1", got)
			}
			if got := r.st.puts.Load(); got != row.puts {
				t.Errorf("Passivate cost %d Puts, want %d", got, row.puts)
			}
			if _, active := r.k.lookupActive(obj.id); active {
				t.Error("still active after Passivate")
			}
			rec, err := r.mem.Get(obj.id)
			if err != nil {
				t.Fatalf("no record after Passivate: %v", err)
			}
			if row.after != nil {
				row.after(r, obj.id, before, rec)
			}
		})
	}
}

// TestExplicitCheckpointAlwaysWrites: the clean rule is Passivate's
// alone. Checkpoint is the object asking for a new version, and gets one
// per call whether or not anything changed.
func TestExplicitCheckpointAlwaysWrites(t *testing.T) {
	ks, sts, reg := countedSys(t, nil, 1)
	mustRegister(t, reg, counterType(nil))
	cp := passivated(t, ks[1])
	obj, err := ks[1].Object(cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	sts[1].reset()
	for i := 0; i < 2; i++ {
		if err := obj.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sts[1].puts.Load(); got != 2 {
		t.Errorf("two Checkpoints of an unchanged object cost %d Puts, want 2", got)
	}
	if got := obj.Version(); got != 3 {
		t.Errorf("version %d, want 3", got)
	}
}

// ---- forced interleavings ----

// hookOnce runs fn the first time the hook fires at the point for the
// object.
func hookOnce(k *Kernel, at hookPoint, id edenid.ID, fn func(o *Object)) {
	var fired atomic.Bool
	k.testHook = func(p hookPoint, o *Object) {
		if p == at && o.id == id && fired.CompareAndSwap(false, true) {
			fn(o)
		}
	}
}

// TestArrivalMeetsPassivatedIncarnation forces the window between
// tryLocal's lookup and dispatch's arrival: the incarnation the call
// resolved is passivated before the call reaches its monitor. The call
// never ran and the state is in the record, so it lands on a fresh
// incarnation instead of answering "object crashed".
func TestArrivalMeetsPassivatedIncarnation(t *testing.T) {
	var reinc atomic.Int64
	ks, _, reg := countedSys(t, nil, 1, 2)
	mustRegister(t, reg, counterType(&reinc))
	cp, err := ks[2].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, ks[2], cp, "inc", nil)
	for _, from := range []uint32{2, 1} { // a local invoker, then a remote one
		reinc.Store(0)
		hookOnce(ks[2], hookArrival, cp.ID(), func(o *Object) {
			if err := o.Passivate(); err != nil {
				t.Error(err)
			}
		})
		rep, err := ks[from].Invoke(cp, "inc", nil, nil, nil)
		if err != nil {
			t.Fatalf("invoker on node %d: %v", from, err)
		}
		if want := uint64(from%2 + 2); fromU64(rep.Data) != want { // 2, then 3
			t.Errorf("invoker on node %d: counter = %d, want %d", from, fromU64(rep.Data), want)
		}
		if reinc.Load() != 1 {
			t.Errorf("invoker on node %d: %d reincarnations, want 1", from, reinc.Load())
		}
	}
}

// TestArrivalMeetsCrashedIncarnation: the same window, but the
// incarnation really crashed. Checkpointed or not, the call answers
// "object crashed" — only a passivation promises the state is safe.
func TestArrivalMeetsCrashedIncarnation(t *testing.T) {
	for _, checkpointed := range []bool{true, false} {
		ks, _, reg := countedSys(t, nil, 1)
		mustRegister(t, reg, counterType(nil))
		cp, err := ks[1].Create("counter", nil)
		if err != nil {
			t.Fatal(err)
		}
		if checkpointed {
			mustInvoke(t, ks[1], cp, "checkpoint", nil)
		}
		hookOnce(ks[1], hookArrival, cp.ID(), func(o *Object) { o.Crash() })
		if _, err := ks[1].Invoke(cp, "get", nil, nil, nil); !errors.Is(err, ErrCrashed) {
			t.Errorf("checkpointed=%v: err = %v, want ErrCrashed", checkpointed, err)
		}
	}
}

// TestReresolveIsBounded: an object passivated under every arrival does
// not spin its invoker; after maxReresolve extra rounds the call gives
// up with a crash.
func TestReresolveIsBounded(t *testing.T) {
	ks, _, reg := countedSys(t, nil, 1)
	mustRegister(t, reg, counterType(nil))
	cp := passivated(t, ks[1])
	var rounds atomic.Int64
	ks[1].testHook = func(p hookPoint, o *Object) {
		if p == hookArrival {
			rounds.Add(1)
			if err := o.Passivate(); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := ks[1].Invoke(cp, "get", nil, nil, nil); !errors.Is(err, ErrCrashed) {
		t.Errorf("err = %v, want ErrCrashed", err)
	}
	if got := rounds.Load(); got != 1+maxReresolve {
		t.Errorf("%d rounds, want %d", got, 1+maxReresolve)
	}
}

// pageeType is a 4 KiB object with one write and one read operation.
func pageeType() *TypeManager {
	tm := NewType("pagee")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("blob", make([]byte, 4096))
			r.SetData("tag", nil)
			return nil
		})
	}
	tm.Op(Operation{Name: "tag", Handler: func(c *Call) {
		_ = c.Self().Update(func(r *segment.Representation) error {
			r.SetData("tag", c.Data)
			return nil
		})
	}})
	tm.Op(Operation{Name: "tagged", Access: AccessRead, Handler: func(c *Call) {
		c.Self().View(func(r *segment.Representation) {
			b, _ := r.Data("tag")
			c.Return(b)
		})
	}})
	return tm
}

// TestCallMeetsEvictionVictim forces the window between eviction
// choosing its victim and releasing it: a call arrives at the claimed
// incarnation. It waits in the queue and is re-resolved once the victim
// is passive — it is not run on the dying incarnation, and does not
// answer "object crashed". Both kinds of victim: a dirty one (the claim
// is held across a checkpoint) and a clean one.
func TestCallMeetsEvictionVictim(t *testing.T) {
	for _, dirty := range []bool{true, false} {
		t.Run(fmt.Sprintf("dirty=%v", dirty), func(t *testing.T) {
			ks, sts, reg := countedSys(t, func(c *Config) { c.MemoryBytes = 1 << 20 }, 1)
			k := ks[1]
			mustRegister(t, reg, pageeType())
			victim, err := k.Create("pagee", nil)
			if err != nil {
				t.Fatal(err)
			}
			mustInvoke(t, k, victim, "tag", []byte("v"))
			if !dirty {
				obj, _ := k.Object(victim.ID())
				if err := obj.Passivate(); err != nil {
					t.Fatal(err)
				}
				if _, err := k.Object(victim.ID()); err != nil {
					t.Fatal(err)
				}
			}
			sts[1].reset()

			type result struct {
				rep Reply
				err error
			}
			late := make(chan result, 1)
			hookOnce(k, hookEvictClaimed, victim.ID(), func(o *Object) {
				go func() {
					rep, err := k.Invoke(victim, "tagged", nil, nil, nil)
					late <- result{rep, err}
				}()
				// The call is in: queued behind the claim, not running.
				eventually(t, func() bool {
					o.sched.Lock()
					defer o.sched.Unlock()
					return !o.quiescentLocked()
				}, "the late call reaches the claimed victim")
				o.sched.Lock()
				running, state := o.running, o.state
				o.sched.Unlock()
				if running != 0 || state != stPassivating {
					t.Errorf("claimed victim: running=%d state=%d, want a queued call behind stPassivating", running, state)
				}
			})
			// Memory pressure: everything idle goes — perhaps the late
			// call's fresh incarnation too, once it has answered.
			k.evictUntil(0)
			res := <-late
			if res.err != nil {
				t.Fatalf("call that met the victim: %v", res.err)
			}
			if string(res.rep.Data) != "v" {
				t.Errorf("call that met the victim read %q, want \"v\"", res.rep.Data)
			}
			wantPuts := int64(0)
			if dirty {
				wantPuts = 1
			}
			if got := sts[1].puts.Load(); got != wantPuts {
				t.Errorf("%d Puts, want %d", got, wantPuts)
			}
			if got := k.Stats().Reincarnations; got != int64(wantPuts^1)+1 {
				t.Errorf("%d reincarnations, want %d", got, int64(wantPuts^1)+1)
			}
		})
	}
}

// TestEvictionClaimRefusesBusyObject: the claim re-checks idleness in
// its own critical section, so a call that reached the victim after the
// scan chose it keeps it resident.
func TestEvictionClaimRefusesBusyObject(t *testing.T) {
	ks, _, reg := countedSys(t, nil, 1)
	mustRegister(t, reg, counterType(nil))
	cp, err := ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := ks[1].Object(cp.ID())
	done := make(chan error, 1)
	go func() {
		_, err := ks[1].Invoke(cp, "slow", u64(200), nil, nil)
		done <- err
	}()
	eventually(t, func() bool {
		obj.sched.Lock()
		defer obj.sched.Unlock()
		return obj.running == 1
	}, "the slow call runs")
	if err := obj.claimPassivation(true); !errors.Is(err, errBusy) {
		t.Errorf("claim on a busy object: %v, want errBusy", err)
	}
	if err := <-done; err != nil {
		t.Errorf("the running call: %v", err)
	}
	if err := obj.claimPassivation(true); err != nil {
		t.Errorf("claim on the idle object: %v", err)
	}
	if err := obj.claimPassivation(false); !errors.Is(err, errBusy) {
		t.Errorf("second claim: %v, want errBusy", err)
	}
}

// TestFailedPassivationResumesService: calls that queued behind a claim
// whose checkpoint then failed are served by the same incarnation.
func TestFailedPassivationResumesService(t *testing.T) {
	ks, sts, reg := countedSys(t, nil, 1)
	mustRegister(t, reg, counterType(nil))
	cp, err := ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, ks[1], cp, "inc", nil)
	obj, _ := ks[1].Object(cp.ID())
	if err := obj.claimPassivation(false); err != nil {
		t.Fatal(err)
	}
	done := make(chan Reply, 1)
	go func() { done <- mustInvoke(t, ks[1], cp, "get", nil) }()
	eventually(t, func() bool {
		obj.sched.Lock()
		defer obj.sched.Unlock()
		return !obj.quiescentLocked()
	}, "the call queues behind the claim")
	sts[1].faults.FailWith(store.ErrFailed)
	if err := obj.passivateClaimed(); err == nil {
		t.Fatal("passivation onto a failed medium succeeded")
	}
	if got := fromU64((<-done).Data); got != 1 {
		t.Errorf("queued call read %d, want 1", got)
	}
	if cur, ok := ks[1].lookupActive(cp.ID()); !ok || cur != obj {
		t.Error("the incarnation did not survive its failed passivation")
	}
}

// TestInstallGapIsRetried forces the window between install's eviction
// and its claim on the room the eviction made: a Create takes that room
// first. The activation evicts again instead of failing "out of virtual
// memory", which its invoker would see as a crashed object.
func TestInstallGapIsRetried(t *testing.T) {
	const page = 4096 // pagee's size, bar its tag
	ks, _, reg := countedSys(t, func(c *Config) {
		c.MemoryBytes = 2*page + 64
		c.EvictOnPressure = true
	}, 1)
	k := ks[1]
	mustRegister(t, reg, pageeType())
	create := func() capability.Capability {
		cp, err := k.Create("pagee", nil)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	paged := create()
	mustInvoke(t, k, paged, "tag", []byte("p"))
	create()
	create() // the node is full, and paged was evicted to make room
	if _, active := k.lookupActive(paged.ID()); active {
		t.Fatal("the first object is still resident")
	}
	hookOnce(k, hookInstallGap, paged.ID(), func(*Object) { create() })
	rep, err := k.Invoke(paged, "tagged", nil, nil, nil)
	if err != nil {
		t.Fatalf("touch of the paged-out object: %v", err)
	}
	if string(rep.Data) != "p" {
		t.Errorf("tag = %q, want \"p\"", rep.Data)
	}
	if used := memInUse(k); used > k.cfg.MemoryBytes {
		t.Errorf("%d bytes in use, budget %d", used, k.cfg.MemoryBytes)
	}
}

// TestPassiveTouchAllocCeiling pins what touching a passive object costs
// on a log in memory, with the clean passivation that makes it passive
// again: the buffer the store reads the record into, the incarnation
// (one block: the object, which holds its representation and class
// states, and its segment table, whose names and data are the record's),
// and what the call itself costs — the handler's copy of the value,
// which Return keeps. Measured 5 (6 while the table and a copy of the
// names were allocated apart; 7 while Return copied the reply again; 11
// with the representation, its table and the down channel apart and the
// class states on the heap; 17 when Decode went through SetData and an
// incarnation made its maps, condition variable and first queue slot
// eagerly); held to one more.
func TestPassiveTouchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; the frame is reallocated at random")
	}
	const ceiling = 6
	ks, _, reg := countedSys(t, nil, 1)
	mustRegister(t, reg, counterType(nil))
	cp := passivated(t, ks[1])
	got := testing.AllocsPerRun(200, func() {
		mustInvoke(t, ks[1], cp, "get", nil)
		obj, err := ks[1].Object(cp.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Passivate(); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("%.1f allocs per passive touch, ceiling %d", got, ceiling)
	}
}

// TestReincarnationLetsGoOfItsRecord: an incarnation decoded from a
// record aliases it — its data segments and its names are the record's
// bytes — but only while they are as decoded. Once each of 64 objects
// with a 64 KiB record is reincarnated and has its one segment set
// again, none may hold its record: collecting releases at least 3.5 of
// their 4 MiB. A name left pointing into the record would keep all of it.
func TestReincarnationLetsGoOfItsRecord(t *testing.T) {
	const objects, size = 64, 64 << 10
	ks, _, reg := countedSys(t, nil, 1)
	k := ks[1]
	tm := NewType("blob")
	set := func(b []byte) func(*Call) {
		return func(c *Call) {
			if err := c.Self().Update(func(r *segment.Representation) error {
				r.SetData("blob", b)
				return nil
			}); err != nil {
				c.Fail("%v", err)
			}
		}
	}
	tm.Op(Operation{Name: "fill", Handler: set(make([]byte, size))})
	tm.Op(Operation{Name: "shrink", Handler: set([]byte{1})})
	tm.Op(Operation{Name: "touch", Access: AccessRead, Handler: func(*Call) {}})
	mustRegister(t, reg, tm)
	cps := make([]capability.Capability, objects)
	for i := range cps {
		cp, err := k.Create("blob", nil)
		if err != nil {
			t.Fatal(err)
		}
		mustInvoke(t, k, cp, "fill", nil)
		obj, err := k.Object(cp.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Passivate(); err != nil {
			t.Fatal(err)
		}
		cps[i] = cp
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, cp := range cps {
		mustInvoke(t, k, cp, "touch", nil) // reincarnates it from its record
	}
	held := heap()
	for _, cp := range cps {
		mustInvoke(t, k, cp, "shrink", nil)
	}
	const want = 3.5 * (1 << 20)
	released := int64(held) - int64(heap())
	t.Logf("released %d B", released)
	if released < want {
		t.Errorf("setting every segment of %d reincarnated objects released %d B, want at least %.0f: an incarnation still holds its record", objects, released, float64(want))
	}
	if st := k.Stats(); st.Reincarnations != objects {
		t.Errorf("%d reincarnations, want %d", st.Reincarnations, objects)
	}
}

// TestOneReliefRunAtATime: a burst of growing Updates on an over-budget
// node starts one asynchronous eviction run, not one each. The first run
// is held at its start until every writer has grown its object, so a run
// any other writer started would be inside the hook beside it; then the
// run relieves all of the growth, and the node ends within budget. A
// later growth starts a run of its own.
func TestOneReliefRunAtATime(t *testing.T) {
	const page, objects, writers = 4096, 40, 32
	budget := int64(objects*page + 64)
	ks, _, reg := countedSys(t, func(c *Config) {
		c.MemoryBytes = budget
		c.EvictOnPressure = true
	}, 1)
	k := ks[1]
	var inside, peak, runs atomic.Int32
	hold := make(chan struct{})
	k.testHook = func(p hookPoint, _ *Object) {
		if p != hookRelief {
			return
		}
		runs.Add(1)
		n := inside.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		<-hold
		inside.Add(-1)
	}
	mustRegister(t, reg, pageeType())
	caps := make([]capability.Capability, objects)
	for i := range caps {
		cp, err := k.Create("pagee", nil)
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = cp
	}
	if used := memInUse(k); used > budget {
		t.Fatalf("%d bytes in use before the burst, budget %d", used, budget)
	}
	done := make(chan error, writers)
	for _, cp := range caps[:writers] {
		go func(cp capability.Capability) {
			_, err := k.Invoke(cp, "tag", make([]byte, page/4), nil, nil)
			done <- err
		}(cp)
	}
	for i := 0; i < writers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	close(hold)
	eventually(t, func() bool { return memInUse(k) <= budget }, "the node is back within budget")
	if p := peak.Load(); p != 1 {
		t.Errorf("%d relief runs at once, want 1", p)
	}
	before := runs.Load()
	mustInvoke(t, k, caps[writers], "tag", make([]byte, 2*page))
	eventually(t, func() bool { return runs.Load() > before && memInUse(k) <= budget }, "a later growth is relieved by a new run")
}

// TestFailedCheckpointChangesNothing: a checkpoint that fails leaves the
// representation's clean mark where it was, so the change it did not make
// durable still counts as one (an eviction writes the object first); one
// that succeeds raises the mark past it.
func TestFailedCheckpointChangesNothing(t *testing.T) {
	ks, sts, reg := countedSys(t, nil, 1)
	mustRegister(t, reg, counterType(nil))
	cp := passivated(t, ks[1])
	mustInvoke(t, ks[1], cp, "inc", nil)
	obj, err := ks[1].Object(cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	dirty := func() bool {
		obj.mu.RLock()
		defer obj.mu.RUnlock()
		return obj.rep.HasDirty()
	}
	sts[1].faults.FailWith(store.ErrFailed)
	if err := obj.Checkpoint(); err == nil {
		t.Fatal("checkpoint onto a failed medium succeeded")
	}
	sts[1].faults.FailWith(nil)
	if !dirty() {
		t.Error("after a failed checkpoint, the change is marked clean")
	}
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if dirty() {
		t.Error("after a durable checkpoint, the representation is still dirty")
	}
}
