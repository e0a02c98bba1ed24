package kernel

// Tests for the reader/writer coordinator and deadline-aware
// admission: access-class normalization, concurrent read fan-out, the
// reader-pool bound, writer exclusivity and preference, a writer's hold
// across a nested invoke, deadline shedding, virtual-processor
// exhaustion accounting, and the reader/writer/checkpoint consistency
// stress.

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// newSchedKernel builds a single-node kernel with telemetry enabled
// and an empty registry for the test to populate.
func newSchedKernel(t *testing.T, tweak func(*Config)) (*Kernel, *Registry, *telemetry.Registry) {
	t.Helper()
	mesh := transport.NewMesh(7)
	t.Cleanup(func() { mesh.Close() })
	ep, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	tel := telemetry.New()
	cfg := DefaultConfig(1, "sched")
	cfg.DefaultTimeout = 2 * time.Second
	cfg.Telemetry = tel
	if tweak != nil {
		tweak(&cfg)
	}
	k := New(cfg, ep, reg, store.NewMemory())
	t.Cleanup(func() { k.Close() })
	return k, reg, tel
}

// eventually polls cond for up to two seconds.
func eventually(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

func TestAccessNormalization(t *testing.T) {
	nop := func(c *Call) {}
	tm := NewType("norm")
	tm.Op(Operation{Name: "ar", Access: AccessRead, Handler: nop})
	tm.Op(Operation{Name: "s", Handler: nop})

	if got := tm.Operations["ar"].Access; got != AccessRead {
		t.Errorf("declared access = %v, want %v", got, AccessRead)
	}
	if got := tm.Operations["s"].Access; got != AccessShared {
		t.Errorf("default access = %v, want %v", got, AccessShared)
	}
	if got := tm.Operations["s"].Class; got != DefaultClass {
		t.Errorf("default class = %q, want %q", got, DefaultClass)
	}
}

// sleepType's "sleep" op parses its data as a duration and sleeps.
func sleepType(name string) *TypeManager {
	tm := NewType(name)
	tm.Op(Operation{Name: "sleep", Handler: func(c *Call) {
		d, err := time.ParseDuration(string(c.Data))
		if err != nil {
			c.Fail("bad duration: %v", err)
			return
		}
		time.Sleep(d)
	}})
	return tm
}

// TestDispatchSingleDeadline is the regression test for the doubled
// deadline in dispatch: the virtual-processor wait used to consume up
// to the full timeout, after which a *fresh* full-length timer was
// armed for the reply wait, letting one invocation hold its caller
// for nearly twice the requested limit.
func TestDispatchSingleDeadline(t *testing.T) {
	k, reg, _ := newSchedKernel(t, func(c *Config) { c.VirtualProcessors = 1 })
	if err := reg.Register(sleepType("slow")); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("slow", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the node's only virtual processor for ~250ms.
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		_, _ = k.Invoke(cp, "sleep", []byte("250ms"), nil, &InvokeOptions{Timeout: 2 * time.Second})
	}()
	time.Sleep(50 * time.Millisecond)

	// This caller spends ~200ms queued for the virtual processor, then
	// invokes a 500ms handler with only ~200ms of budget left. With one
	// shared timer it must observe ErrTimeout at ~400ms total; the old
	// code re-armed 400ms after the vproc wait and returned at ~600ms.
	start := time.Now()
	_, err = k.Invoke(cp, "sleep", []byte("500ms"), nil, &InvokeOptions{Timeout: 400 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed > 480*time.Millisecond {
		t.Fatalf("invocation held its caller %v against a 400ms limit (doubled-deadline regression)", elapsed)
	}
	<-occupied
}

func TestReadersRunConcurrently(t *testing.T) {
	k, reg, tel := newSchedKernel(t, nil)
	const n = 4
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	tm := NewType("reads")
	tm.Op(Operation{Name: "get", Access: AccessRead, Handler: func(c *Call) {
		c.Self().View(func(r *segment.Representation) {
			arrived <- struct{}{}
			<-release
		})
	}})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("reads", nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := k.Invoke(cp, "get", nil, nil, &InvokeOptions{Timeout: 5 * time.Second}); err != nil {
				errs <- err
			}
		}()
	}
	// All n readers must be inside the representation at once — with
	// the old exclusive coordinator the first blocked reader would
	// wedge the object and the rest would never arrive.
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(2 * time.Second):
			close(release)
			t.Fatalf("only %d of %d readers entered the representation concurrently", i, n)
		}
	}
	if got := tel.Gauge(metricServeConc).Value(); got != n {
		t.Errorf("%s = %d with %d readers in flight, want %d", metricServeConc, got, n, n)
	}
	close(release)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("reader failed: %v", err)
	default:
	}
	eventually(t, func() bool { return tel.Gauge(metricServeConc).Value() == 0 },
		"serve-concurrency gauge returns to zero")
}

// TestReaderPoolBound runs readerCap+1 readers that hold their handlers:
// readerCap run at once and the last waits in the read queue until one
// of them returns.
func TestReaderPoolBound(t *testing.T) {
	k, reg, tel := newSchedKernel(t, nil)
	var cur, max atomic.Int64
	release := make(chan struct{})
	tm := NewType("bounded")
	tm.Op(Operation{Name: "get", Access: AccessRead, Handler: func(c *Call) {
		v := cur.Add(1)
		for {
			m := max.Load()
			if v <= m || max.CompareAndSwap(m, v) {
				break
			}
		}
		<-release
		cur.Add(-1)
	}})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("bounded", nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < readerCap+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := k.Invoke(cp, "get", nil, nil, &InvokeOptions{Timeout: 5 * time.Second}); err != nil {
				t.Errorf("reader: %v", err)
			}
		}()
	}
	eventually(t, func() bool { return cur.Load() == readerCap && tel.Gauge(metricAdmissionDepth).Value() == 1 },
		"readerCap readers run and one waits")
	time.Sleep(20 * time.Millisecond)
	if got := cur.Load(); got != readerCap {
		t.Errorf("%d readers run, pool bound is %d", got, readerCap)
	}
	close(release)
	wg.Wait()
	if got := max.Load(); got != readerCap {
		t.Errorf("observed %d concurrent readers, pool bound is %d", got, readerCap)
	}
}

// TestAdmissionQueueCapSheds parks queueCap readers behind a writer: a
// reader past the cap is refused at the door at once with StatusTimeout
// and counted under kernel.admission.queue.full, and the parked ones all
// run once the writer returns.
func TestAdmissionQueueCapSheds(t *testing.T) {
	k, reg, tel := newSchedKernel(t, nil)
	held, release := make(chan struct{}), make(chan struct{})
	tm := NewType("gated")
	tm.Op(Operation{Name: "hold", Access: AccessWrite, Handler: func(c *Call) {
		close(held)
		<-release
	}})
	tm.Op(Operation{Name: "get", Access: AccessRead, Handler: func(c *Call) {}})
	mustRegister(t, reg, tm)
	cp, err := k.Create("gated", nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := &InvokeOptions{Timeout: 10 * time.Second}
	holder := make(chan error, 1)
	go func() {
		_, err := k.Invoke(cp, "hold", nil, nil, opts)
		holder <- err
	}()
	<-held
	parked := make(chan error, queueCap)
	for i := 0; i < queueCap; i++ {
		go func() {
			_, err := k.Invoke(cp, "get", nil, nil, opts)
			parked <- err
		}()
	}
	eventually(t, func() bool { return tel.Gauge(metricAdmissionDepth).Value() == queueCap },
		"queueCap readers parked behind the writer")

	const over = 8
	start := time.Now()
	for i := 0; i < over; i++ {
		if _, err := k.Invoke(cp, "get", nil, nil, opts); !errors.Is(err, ErrTimeout) {
			t.Errorf("reader past the cap: err = %v, want ErrTimeout", err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("%d refusals took %v; they should not wait in the queue", over, elapsed)
	}
	if got := tel.Counter(metricQueueFull).Value(); got != over {
		t.Errorf("%s = %d, want %d", metricQueueFull, got, over)
	}
	close(release)
	if err := <-holder; err != nil {
		t.Errorf("holder: %v", err)
	}
	for i := 0; i < queueCap; i++ {
		if err := <-parked; err != nil {
			t.Errorf("parked reader: %v", err)
		}
	}
}

func TestWriterExclusion(t *testing.T) {
	k, reg, _ := newSchedKernel(t, nil)
	var readers, writers, violations atomic.Int64
	tm := NewType("rw")
	tm.Op(Operation{Name: "get", Access: AccessRead, Handler: func(c *Call) {
		readers.Add(1)
		if writers.Load() != 0 {
			violations.Add(1)
		}
		time.Sleep(time.Millisecond)
		readers.Add(-1)
	}})
	tm.Op(Operation{Name: "set", Access: AccessWrite, Handler: func(c *Call) {
		if writers.Add(1) != 1 || readers.Load() != 0 {
			violations.Add(1)
		}
		time.Sleep(time.Millisecond)
		writers.Add(-1)
	}})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("rw", nil)
	if err != nil {
		t.Fatal(err)
	}

	opts := &InvokeOptions{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := k.Invoke(cp, "get", nil, nil, opts); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := k.Invoke(cp, "set", nil, nil, opts); err != nil {
					t.Errorf("set: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d reader/writer exclusion violations", v)
	}
}

// TestWriterPreference checks the anti-starvation schedule: once a
// writer queues, newly arriving readers wait behind it, and writers
// execute in arrival order.
func TestWriterPreference(t *testing.T) {
	k, reg, _ := newSchedKernel(t, nil)
	var mu sync.Mutex
	var events []string
	record := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	tm := NewType("pref")
	tm.Op(Operation{Name: "read", Access: AccessRead, Handler: func(c *Call) {
		record("read:" + string(c.Data))
		started <- struct{}{}
		<-release
	}})
	tm.Op(Operation{Name: "write", Access: AccessWrite, Handler: func(c *Call) {
		record("write:" + string(c.Data))
	}})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("pref", nil)
	if err != nil {
		t.Fatal(err)
	}

	opts := &InvokeOptions{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	call := func(op, tag string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := k.Invoke(cp, op, []byte(tag), nil, opts); err != nil {
				t.Errorf("%s %s: %v", op, tag, err)
			}
		}()
	}

	// Two readers occupy the pool.
	call("read", "early")
	call("read", "early")
	<-started
	<-started
	// A writer queues behind the running readers...
	call("write", "w1")
	time.Sleep(50 * time.Millisecond)
	// ...then late readers arrive; writer preference must hold them.
	call("read", "late")
	call("read", "late")
	time.Sleep(50 * time.Millisecond)
	// A second writer must run after w1 (arrival order) and still
	// before the late readers.
	call("write", "w2")
	time.Sleep(50 * time.Millisecond)

	close(release)
	wg.Wait()

	idx := func(e string) int {
		for i, ev := range events {
			if ev == e {
				return i
			}
		}
		return -1
	}
	lastWrite := idx("write:w2")
	if idx("write:w1") == -1 || lastWrite == -1 {
		t.Fatalf("missing writer events in %v", events)
	}
	if idx("write:w1") > lastWrite {
		t.Errorf("writers ran out of arrival order: %v", events)
	}
	for i, ev := range events {
		if ev == "read:late" && i < lastWrite {
			t.Errorf("late reader ran before queued writer (no writer preference): %v", events)
		}
	}
}

// TestWriterHoldBlocksReaders specifies what a writer's nested invoke
// does to its own object: nothing. The writer stays exclusive across the
// wait, so a reader with a short budget times out instead of being
// admitted, and the mutations on both sides of the nested call land
// together.
func TestWriterHoldBlocksReaders(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	gate := NewType("gate")
	gate.Op(Operation{Name: "hold", Handler: func(c *Call) { <-release }})
	set := func(c *Call, key string) error {
		return c.Self().Update(func(r *segment.Representation) error {
			r.SetData(key, []byte{1})
			return nil
		})
	}
	front := NewType("front")
	front.Op(Operation{Name: "relay", Access: AccessWrite, Handler: func(c *Call) {
		if err := set(c, "pre"); err != nil {
			c.Fail("set pre: %v", err)
			return
		}
		close(entered)
		if _, err := c.Kernel().Invoke(c.Caps[0], "hold", nil, nil, nil); err != nil {
			c.Fail("nested invoke: %v", err)
			return
		}
		if err := set(c, "done"); err != nil {
			c.Fail("set done: %v", err)
		}
	}})
	front.Op(Operation{Name: "peek", Access: AccessRead, Handler: func(c *Call) {
		out := make([]byte, 2)
		c.Self().View(func(r *segment.Representation) {
			for i, key := range []string{"pre", "done"} {
				if b, err := r.Data(key); err == nil && len(b) == 1 {
					out[i] = b[0]
				}
			}
		})
		c.Return(out)
	}})
	k, reg, _ := newSchedKernel(t, nil)
	mustRegister(t, reg, gate, front)
	gateCap, err := k.Create("gate", nil)
	if err != nil {
		t.Fatal(err)
	}
	frontCap, err := k.Create("front", nil)
	if err != nil {
		t.Fatal(err)
	}
	relayDone := make(chan error, 1)
	go func() {
		_, err := k.Invoke(frontCap, "relay", nil, capability.List{gateCap}, nil)
		relayDone <- err
	}()
	select {
	case <-entered:
	case err := <-relayDone:
		t.Fatalf("relay returned before its nested invoke: %v", err)
	}

	if _, err := k.Invoke(frontCap, "peek", nil, nil, &InvokeOptions{Timeout: 150 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("reader while writer holds: err = %v, want ErrTimeout", err)
	}

	close(release)
	if err := <-relayDone; err != nil {
		t.Fatalf("relay: %v", err)
	}
	rep, err := k.Invoke(frontCap, "peek", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Data, []byte{1, 1}) {
		t.Errorf("state (pre, done) = %v, want [1 1]", rep.Data)
	}
}

// TestAdmissionShedsExpiredQueuedCalls checks that a call whose caller
// deadline expires while queued behind a writer is shed — counted in
// kernel.admission.shed, never dispatched — and that the queue-depth
// gauge settles back to zero.
func TestAdmissionShedsExpiredQueuedCalls(t *testing.T) {
	k, reg, tel := newSchedKernel(t, nil)
	var executed atomic.Int64
	tm := NewType("shed")
	tm.Op(Operation{Name: "hold", Access: AccessWrite, Handler: func(c *Call) {
		executed.Add(1)
		d, _ := time.ParseDuration(string(c.Data))
		time.Sleep(d)
	}})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("shed", nil)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = k.Invoke(cp, "hold", []byte("300ms"), nil, &InvokeOptions{Timeout: 5 * time.Second})
	}()
	time.Sleep(50 * time.Millisecond)

	// Queued behind a 300ms writer with a 100ms budget: the caller
	// times out, and the coordinator sheds the stale call instead of
	// executing it.
	_, err = k.Invoke(cp, "hold", []byte("1ms"), nil, &InvokeOptions{Timeout: 100 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	<-done

	eventually(t, func() bool { return tel.Counter(metricAdmissionShed).Value() == 1 },
		"expired queued call counted in kernel.admission.shed")
	eventually(t, func() bool { return tel.Gauge(metricAdmissionDepth).Value() == 0 },
		"admission queue depth gauge returns to zero")
	if got := executed.Load(); got != 1 {
		t.Errorf("%d holds executed, want 1 (the expired call must never run)", got)
	}
}

// TestVprocExhaustionReconciles saturates the virtual-processor pool
// and checks every rejected caller gets StatusTimeout, with the shed
// and timeout counters reconciling exactly against the rejected count.
func TestVprocExhaustionReconciles(t *testing.T) {
	k, reg, tel := newSchedKernel(t, func(c *Config) { c.VirtualProcessors = 1 })
	if err := reg.Register(sleepType("slow")); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("slow", nil)
	if err != nil {
		t.Fatal(err)
	}

	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		if _, err := k.Invoke(cp, "sleep", []byte("600ms"), nil, &InvokeOptions{Timeout: 5 * time.Second}); err != nil {
			t.Errorf("occupant: %v", err)
		}
	}()
	time.Sleep(50 * time.Millisecond)

	shedBefore := tel.Counter(metricAdmissionShed).Value()
	toBefore := tel.Counter(metricInvokeTimeouts).Value()

	const callers = 5
	var timeouts atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := k.Invoke(cp, "sleep", []byte("1ms"), nil, &InvokeOptions{Timeout: 100 * time.Millisecond})
			if errors.Is(err, ErrTimeout) {
				timeouts.Add(1)
			} else {
				t.Errorf("queued caller: err = %v, want ErrTimeout", err)
			}
		}()
	}
	wg.Wait()
	<-occupied

	if got := timeouts.Load(); got != callers {
		t.Fatalf("%d callers timed out, want %d", got, callers)
	}
	if got := tel.Counter(metricAdmissionShed).Value() - shedBefore; got != callers {
		t.Errorf("%s advanced by %d, want %d (one per rejected caller)", metricAdmissionShed, got, callers)
	}
	if got := tel.Counter(metricInvokeTimeouts).Value() - toBefore; got != callers {
		t.Errorf("%s advanced by %d, want %d", metricInvokeTimeouts, got, callers)
	}
	if got := tel.Gauge(metricAdmissionDepth).Value(); got != 0 {
		t.Errorf("%s = %d after the pool drained, want 0", metricAdmissionDepth, got)
	}
}

// TestQueuedCallsFailFastOnCrash checks the admission queues quiesce
// with the incarnation: calls waiting for a reader slot or writer
// exclusivity are answered with ErrCrashed promptly, not left to hang
// until their timeouts.
func TestQueuedCallsFailFastOnCrash(t *testing.T) {
	k, reg, _ := newSchedKernel(t, nil)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	tm := NewType("crashq")
	tm.Op(Operation{Name: "hold", Access: AccessWrite, Handler: func(c *Call) {
		entered <- struct{}{}
		<-release
	}})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("crashq", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := k.Object(cp.ID())
	if err != nil {
		t.Fatal(err)
	}

	go func() { _, _ = k.Invoke(cp, "hold", nil, nil, &InvokeOptions{Timeout: 10 * time.Second}) }()
	<-entered

	const queued = 3
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := k.Invoke(cp, "hold", nil, nil, &InvokeOptions{Timeout: 10 * time.Second})
			if !errors.Is(err, ErrCrashed) {
				t.Errorf("queued caller: err = %v, want ErrCrashed", err)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)

	obj.Crash()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("queued callers took %v to learn of the crash", elapsed)
	}
	close(release)
}

// TestReaderWriterCheckpointStress is the acceptance stress: readers,
// writers, and checkpoints race on one object. Writer exclusivity must
// make the handlers' read-modify-write safe (any overlap loses an
// increment), reader snapshots must be monotonic, and a checkpoint
// taken during the storm must reincarnate to a consistent count.
func TestReaderWriterCheckpointStress(t *testing.T) {
	k, reg, _ := newSchedKernel(t, nil)
	tm := NewType("stressctr")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("n", u64(0))
			return nil
		})
	}
	tm.Op(Operation{Name: "get", Access: AccessRead, Handler: func(c *Call) {
		c.Self().View(func(r *segment.Representation) {
			b, _ := r.Data("n")
			c.Return(b)
		})
	}})
	tm.Op(Operation{Name: "inc", Access: AccessWrite, Handler: func(c *Call) {
		// Deliberately non-atomic read-modify-write: correct only
		// because AccessWrite processes are exclusive.
		var v uint64
		c.Self().View(func(r *segment.Representation) {
			b, _ := r.Data("n")
			v = fromU64(b)
		})
		if err := c.Self().Update(func(r *segment.Representation) error {
			r.SetData("n", u64(v+1))
			return nil
		}); err != nil {
			c.Fail("update: %v", err)
		}
	}})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Create("stressctr", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := k.Object(cp.ID())
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 3
		perWriter = 40
		readers   = 4
		perReader = 50
		ckpts     = 20
	)
	opts := &InvokeOptions{Timeout: 20 * time.Second}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := k.Invoke(cp, "inc", nil, nil, opts); err != nil {
					t.Errorf("inc: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev uint64
			for i := 0; i < perReader; i++ {
				rep, err := k.Invoke(cp, "get", nil, nil, opts)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				v := fromU64(rep.Data)
				if v < prev {
					t.Errorf("counter went backwards: %d after %d", v, prev)
					return
				}
				prev = v
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ckpts; i++ {
			if err := obj.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()

	const total = writers * perWriter
	rep, err := k.Invoke(cp, "get", nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fromU64(rep.Data); got != total {
		t.Fatalf("final count = %d, want %d (writer exclusivity lost updates)", got, total)
	}

	// Checkpoint once more, crash, and reincarnate: the decoded
	// representation must carry the exact final count.
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	obj.Crash()
	rep, err = k.Invoke(cp, "get", nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fromU64(rep.Data); got != total {
		t.Fatalf("reincarnated count = %d, want %d", got, total)
	}
}
