package kernel

// Tests for what an idle incarnation costs and for the intrusive class
// queues that let it cost that: the Object's size class, the heap one
// resident object holds, and the queues' order, shedding and teardown.

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/locator"
	"eden/internal/msg"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/transport"
)

// TestObjectFootprint pins what one resident, idle incarnation costs.
// Object was 584 B, in Go's 640-byte size class: both class rows kept
// three slice headers and three one-slot backing arrays, and the drain
// wait, behaviors count, parked-writer queue, down channel and semaphore
// and port tables sat inline whether or not anything used them. With
// intrusive queues and short-term state made on first use it fits the
// 288-byte class (280 B now, below). The heap bound is the measured growth per created
// object plus 32 B: 428 B (780 B at 584) — the Object, one 72-byte
// segment array in an 80-byte block, half of a 16-byte block for the
// 8-byte value, and about 52 B of active-table slots. The first kernel a
// process makes reads about 36 B less, as other start-up memory is freed
// during its window. A Segment is 72 B, the 80 B it was less the change
// stamp each carried for delta checkpoints. A reincarnation allocates
// the Object and its table of four in one block (objectWithTable), and
// Go puts an 8-byte malloc header before an object over 512 B that holds
// pointers: the block is the size class of 8 B more. At 576 B (an Object
// of 281 B of fields, padded to 288) that was 584 B, the 640-byte class;
// with the Object at 280 B (its saved record's frozen flag folded into
// saved) it is 568 + 8 = 576 B, the 576-byte class.
func TestObjectFootprint(t *testing.T) {
	if got := reflect.TypeOf(Object{}).Size(); got > 280 {
		t.Errorf("Object is %d B, want at most 280 (objectWithTable's 576-byte size class needs it)", got)
	}
	if got := reflect.TypeOf(segment.Segment{}).Size(); got > 72 {
		t.Errorf("segment.Segment is %d B, want at most 72", got)
	}
	const mallocHeader = 8 // before a pointerful object over 512 B
	if got := reflect.TypeOf(objectWithTable{}).Size(); got+mallocHeader > 576 {
		t.Errorf("objectWithTable is %d B, %d B with its malloc header; want at most 576 (the 576-byte size class)", got, got+mallocHeader)
	}
	if raceEnabled {
		t.Skip("the race detector changes what an allocation costs")
	}
	mesh := transport.NewMesh(7)
	defer mesh.Close()
	ep, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	tm := NewType("cell")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("v", make([]byte, 8))
			return nil
		})
	}
	tm.Op(Operation{Name: "get", Access: AccessRead, Handler: func(c *Call) {}})
	mustRegister(t, reg, tm)
	cfg := DefaultConfig(1, "footprint")
	cfg.Telemetry = nil
	k := New(cfg, ep, reg, nil)
	defer k.Close()
	// The first creation builds the type's table; it is not per object.
	if _, err := k.Create("cell", nil); err != nil {
		t.Fatal(err)
	}

	const n = 1024
	caps := make([]capability.Capability, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cp, err := k.Create("cell", nil)
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, cp)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(caps)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	const measured = 428
	t.Logf("%d B of heap per resident object (Object %d B)", per, reflect.TypeOf(Object{}).Size())
	if per > measured+32 {
		t.Errorf("%d B of heap per resident object, want at most %d", per, measured+32)
	}
}

// TestMovedAwayFootprint pins what a node keeps for each object it moved
// away: the forward, one entry of its log's directory, and no role entry.
// It moves 4 096 objects off one node, then drops the node's role table
// and closes its log, which frees the directory but not the log's bytes
// (the log is in memory), between two GCs. A forward kept as a whole role
// entry cost about 245 B; the bound is TestFileDirectoryFootprint's, 80 B.
// The locator's hint at the source (commitMove's Learn) is a cache, and
// not counted. The destination's locator, replaced by an empty one
// between two GCs, must keep nothing for the objects its node now holds:
// a hint naming the node itself cost 69 B each.
func TestMovedAwayFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what an allocation costs")
	}
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	const n = 4096
	ids := make([]edenid.ID, n)
	for i := range ids {
		cp, err := s.ks[1].Create("counter", nil)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := s.ks[1].Object(cp.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := <-obj.Move(2); err != nil {
			t.Fatal(err)
		}
		ids[i] = cp.ID()
	}
	k := s.ks[1]
	var before, after runtime.MemStats
	runtime.GC() // twice: the second would otherwise free sync.Pool's victims inside the window
	runtime.GC()
	runtime.ReadMemStats(&before)
	k.mu.Lock()
	roles := len(k.roles)
	k.roles = make(map[edenid.ID]*role)
	k.mu.Unlock()
	if err := s.stores[1].Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ids)
	per := (int64(before.HeapAlloc) - int64(after.HeapAlloc)) / n
	t.Logf("%d B of heap per moved-away object (%d role entries)", per, roles)
	if roles != 0 {
		t.Errorf("%d role entries after %d committed moves, want none", roles, n)
	}
	if per > 80 {
		t.Errorf("%d B of heap per moved-away object, want at most 80", per)
	}

	dst := s.ks[2]
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	dst.loc = locator.New(2, dst.tr.Send, dst.hostCheck)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per = (int64(before.HeapAlloc) - int64(after.HeapAlloc)) / n
	t.Logf("%d B of the destination's locator per object it holds", per)
	if per > 8 {
		t.Errorf("%d B of the destination's locator per object it holds, want at most 8", per)
	}
}

// TestServedTableFootprint pins what a node's at-most-once table costs
// once full: a ring of servedCacheSize 72-byte slots (288 KiB) and an
// index of 2 × servedCacheSize uint16 ring positions (16 KiB), 304 KiB
// in all. Slots of 80 bytes and a map[servedKey]uint64 over them took
// 496 KiB. Replies carry no data here: what a kept reply holds is the
// handler's, not the table's.
func TestServedTableFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what an allocation costs")
	}
	var tb servedTable
	var before, after runtime.MemStats
	runtime.GC() // twice: the second would otherwise free sync.Pool's victims inside the window
	runtime.GC()
	runtime.ReadMemStats(&before)
	for corr := uint64(1); corr <= servedCacheSize; corr++ {
		n, _ := tb.begin(servedKey{from: 2, corr: corr})
		tb.end(n, msg.InvokeRep{Status: msg.StatusOK}, nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := tb.indexed(); got != servedCacheSize {
		t.Fatalf("the table holds %d calls, want %d", got, servedCacheSize)
	}
	runtime.KeepAlive(&tb)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d B of heap for %d remembered calls (%d B each)", grown, servedCacheSize, grown/servedCacheSize)
	const bound = 320 << 10
	if grown > bound {
		t.Errorf("a full table holds %d B of heap, want at most %d", grown, bound)
	}
}

// queueRig is one object of a type with two unlimited classes, "a" and
// "b", each with a write operation that records its tag ("a" also has a
// reader, "ar"), and a writer in a third class, "gate", that holds
// exclusivity until release closes — so every call submitted behind it
// waits in a class queue, and the rows are those of a type with more
// than two classes. Writers run one at a time, so execution order is
// admission order. Calls are submitted to the object's monitor
// directly, one after another, so their arrival order is the order of
// submit calls.
type queueRig struct {
	t       *testing.T
	o       *Object
	entered chan struct{}
	release chan struct{}

	mu  sync.Mutex
	ran []string
}

func newQueueRig(t *testing.T) *queueRig {
	t.Helper()
	r := &queueRig{t: t, entered: make(chan struct{}, 1), release: make(chan struct{})}
	k, reg, _ := newSchedKernel(t, nil)
	record := func(c *Call) {
		r.mu.Lock()
		r.ran = append(r.ran, string(c.Data))
		r.mu.Unlock()
	}
	tm := NewType("queues")
	tm.Op(Operation{Name: "a", Class: "a", Access: AccessWrite, Handler: record})
	tm.Op(Operation{Name: "b", Class: "b", Access: AccessWrite, Handler: record})
	tm.Op(Operation{Name: "ar", Class: "a", Access: AccessRead, Handler: record})
	tm.Op(Operation{Name: "gate", Class: "gate", Access: AccessWrite, Handler: func(c *Call) {
		r.entered <- struct{}{}
		<-r.release
	}})
	mustRegister(t, reg, tm)
	cp, err := k.Create("queues", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.o, err = k.Object(cp.ID()); err != nil {
		t.Fatal(err)
	}
	return r
}

// submit queues one call the way dispatch does, minus the virtual
// processor: validate, then arrive under the monitor. The frame keeps
// its invoker's share until answer.
func (r *queueRig) submit(op, tag string, deadline time.Time) *callCtx {
	r.t.Helper()
	c := r.o.k.getFrame()
	c.name, c.data, c.rts = op, []byte(tag), rights.All
	c.o, c.deadline = r.o, deadline
	if rep, ok := r.o.validate(c); !ok {
		r.t.Fatalf("validate %s: %v", op, rep.Status)
	}
	c.owners.Store(2)
	r.o.sched.Lock()
	r.o.arrive(c)
	r.o.sched.Unlock()
	return c
}

// hold starts the gate writer and waits until it runs.
func (r *queueRig) hold() *callCtx {
	r.t.Helper()
	c := r.submit("gate", "gate", time.Now().Add(10*time.Second))
	select {
	case <-r.entered:
	case <-time.After(2 * time.Second):
		r.t.Fatal("gate writer never ran")
	}
	return c
}

// answer waits for the call's reply and drops the invoker's share.
func (r *queueRig) answer(c *callCtx) msg.Status {
	r.t.Helper()
	rep, ok := c.await(5 * time.Second)
	if !ok {
		r.t.Fatal("no reply")
	}
	c.release()
	return rep.Status
}

// queued returns the tags waiting in each class's write queue, head
// first, by class name, checking each ring's count and links on the way.
func (r *queueRig) queued() string {
	r.t.Helper()
	r.o.sched.Lock()
	defer r.o.sched.Unlock()
	out := make(map[string][]string)
	for i, cl := range r.o.cs.rows(len(r.o.table.classes)) {
		name := r.o.table.classes[i].name
		t := cl.tail[AccessWrite]
		if t == nil {
			if cl.n[AccessWrite] != 0 {
				r.t.Errorf("class %q: empty queue counts %d", name, cl.n[AccessWrite])
			}
			continue
		}
		for c := t.next; ; c = c.next {
			out[name] = append(out[name], string(c.data))
			if c == t {
				break
			}
		}
		if len(out[name]) != int(cl.n[AccessWrite]) {
			r.t.Errorf("class %q: ring holds %d calls, counts %d", name, len(out[name]), cl.n[AccessWrite])
		}
	}
	return fmt.Sprint(out)
}

func (r *queueRig) executed() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprint(r.ran)
}

func TestClassQueueIntrusive(t *testing.T) {
	later := func() time.Time { return time.Now().Add(10 * time.Second) }

	t.Run("FIFO per queue, older head first across classes", func(t *testing.T) {
		r := newQueueRig(t)
		gate := r.hold()
		var calls []*callCtx
		for _, s := range []struct{ op, tag string }{
			{"a", "a1"}, {"a", "a2"}, {"b", "b1"}, {"a", "a3"}, {"b", "b2"}, {"b", "b3"}, {"a", "a4"},
		} {
			calls = append(calls, r.submit(s.op, s.tag, later()))
		}
		if got, want := r.queued(), "map[a:[a1 a2 a3 a4] b:[b1 b2 b3]]"; got != want {
			t.Errorf("queues = %v, want %v", got, want)
		}
		close(r.release)
		for _, c := range append(calls, gate) {
			if st := r.answer(c); st != msg.StatusOK {
				t.Errorf("call answered %v", st)
			}
		}
		if got, want := r.executed(), "[a1 a2 b1 a3 b2 b3 a4]"; got != want {
			t.Errorf("execution order = %v, want arrival order %v", got, want)
		}
		if got := r.queued(); got != "map[]" {
			t.Errorf("queues after the run = %v, want empty", got)
		}
	})

	t.Run("an expired call between live ones is shed", func(t *testing.T) {
		r := newQueueRig(t)
		gate := r.hold()
		first := r.submit("a", "a1", later())
		expired := r.submit("a", "a2", time.Now().Add(20*time.Millisecond))
		last := r.submit("a", "a3", later())
		other := r.submit("b", "b1", time.Now().Add(20*time.Millisecond))
		time.Sleep(40 * time.Millisecond)
		// Any arrival runs the deadline pass; this one queues behind
		// the gate too.
		tail := r.submit("b", "b2", later())
		if got, want := r.queued(), "map[a:[a1 a3] b:[b2]]"; got != want {
			t.Errorf("queues after the deadline pass = %v, want %v", got, want)
		}
		for _, c := range []*callCtx{expired, other} {
			if st := r.answer(c); st != msg.StatusTimeout {
				t.Errorf("expired call answered %v, want StatusTimeout", st)
			}
		}
		close(r.release)
		for _, c := range []*callCtx{first, last, tail, gate} {
			if st := r.answer(c); st != msg.StatusOK {
				t.Errorf("live call answered %v", st)
			}
		}
		if got, want := r.executed(), "[a1 a3 b2]"; got != want {
			t.Errorf("execution order = %v, want %v", got, want)
		}
	})

	t.Run("teardown answers every queued call exactly once", func(t *testing.T) {
		r := newQueueRig(t)
		r.hold()
		var calls []*callCtx
		for i := 0; i < 4; i++ {
			calls = append(calls,
				r.submit("a", fmt.Sprint("a", i), later()),
				r.submit("ar", fmt.Sprint("ar", i), later()),
				r.submit("b", fmt.Sprint("b", i), later()))
		}
		calls = append(calls, r.submit("gate", "w", later()))
		r.o.Crash()
		r.o.sched.Lock()
		for i, cl := range r.o.cs.rows(len(r.o.table.classes)) {
			if cl.tail != [3]*callCtx{} || cl.n != [3]int32{} {
				t.Errorf("class %q still queues %v after teardown", r.o.table.classes[i].name, cl.n)
			}
		}
		r.o.sched.Unlock()
		for _, c := range calls {
			// The object side has disposed of the call once: its share is
			// gone and exactly one reply waits in the slot.
			if n := c.owners.Load(); n != 1 {
				t.Errorf("call %q: %d owners after teardown, want 1", c.data, n)
			}
			if len(c.reply) != 1 {
				t.Errorf("call %q: %d replies after teardown, want 1", c.data, len(c.reply))
			}
			if c.next != nil {
				t.Errorf("call %q left the queue still linked", c.data)
			}
			if st := r.answer(c); st != msg.StatusCrashed {
				t.Errorf("call answered %v, want StatusCrashed", st)
			}
		}
		close(r.release)
		if got := r.executed(); got != "[]" {
			t.Errorf("executed %v after teardown, want nothing", got)
		}
	})
}
