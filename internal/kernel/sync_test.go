package kernel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/segment"
)

// mkObject builds a bare active object for unit-testing intra-object
// primitives without network machinery.
func mkObject(t *testing.T) (*Object, *Kernel) {
	t.Helper()
	s := newSys(t, 1)
	tm := NewType("bare")
	tm.Op(Operation{Name: "noop", Handler: func(c *Call) {}})
	mustRegister(t, s.reg, tm)
	cap, err := s.ks[1].Create("bare", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	return obj, s.ks[1]
}

func TestSemaphorePV(t *testing.T) {
	obj, _ := mkObject(t)
	sem := obj.Semaphore("s", 2)
	if err := sem.P(); err != nil {
		t.Fatal(err)
	}
	if err := sem.P(); err != nil {
		t.Fatal(err)
	}
	if sem.TryP() {
		t.Error("TryP succeeded on empty semaphore")
	}
	sem.V()
	if !sem.TryP() {
		t.Error("TryP failed after V")
	}
}

func TestSemaphoreBlocksUntilV(t *testing.T) {
	obj, _ := mkObject(t)
	sem := obj.Semaphore("s", 0)
	acquired := make(chan error, 1)
	go func() { acquired <- sem.P() }()
	select {
	case <-acquired:
		t.Fatal("P returned on a zero semaphore")
	case <-time.After(50 * time.Millisecond):
	}
	sem.V()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("P never woke after V")
	}
}

func TestSemaphoreNamedIdentity(t *testing.T) {
	obj, _ := mkObject(t)
	if obj.Semaphore("a", 1) != obj.Semaphore("a", 5) {
		t.Error("same name yielded different semaphores")
	}
	if obj.Semaphore("a", 1) == obj.Semaphore("b", 1) {
		t.Error("different names yielded the same semaphore")
	}
}

func TestSemaphoreReleasedOnCrash(t *testing.T) {
	obj, _ := mkObject(t)
	sem := obj.Semaphore("s", 0)
	got := make(chan error, 1)
	go func() { got <- sem.P() }()
	time.Sleep(20 * time.Millisecond)
	obj.Crash()
	select {
	case err := <-got:
		if !errors.Is(err, ErrObjectDown) {
			t.Errorf("P after crash: %v, want ErrObjectDown", err)
		}
	case <-time.After(time.Second):
		t.Fatal("P still blocked after crash")
	}
}

func TestPortSendReceive(t *testing.T) {
	obj, _ := mkObject(t)
	p := obj.Port("mbox", 4)
	if err := p.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
	m, err := p.Receive(0)
	if err != nil || string(m) != "one" {
		t.Errorf("Receive = %q, %v", m, err)
	}
	m, ok := p.TryReceive()
	if !ok || string(m) != "two" {
		t.Errorf("TryReceive = %q, %v", m, ok)
	}
	if _, ok := p.TryReceive(); ok {
		t.Error("TryReceive on empty port succeeded")
	}
}

func TestPortCopiesMessages(t *testing.T) {
	obj, _ := mkObject(t)
	p := obj.Port("mbox", 1)
	buf := []byte("mutable")
	_ = p.Send(buf)
	buf[0] = 'X'
	m, _ := p.Receive(0)
	if string(m) != "mutable" {
		t.Errorf("port aliased sender's buffer: %q", m)
	}
}

func TestPortReceiveTimeout(t *testing.T) {
	obj, _ := mkObject(t)
	p := obj.Port("mbox", 1)
	start := time.Now()
	_, err := p.Receive(60 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 60*time.Millisecond {
		t.Error("Receive returned early")
	}
}

func TestPortBackpressure(t *testing.T) {
	obj, _ := mkObject(t)
	p := obj.Port("mbox", 1)
	_ = p.Send([]byte("fill"))
	if p.TrySend([]byte("overflow")) {
		t.Error("TrySend succeeded on a full port")
	}
	sent := make(chan error, 1)
	go func() { sent <- p.Send([]byte("blocked")) }()
	select {
	case <-sent:
		t.Fatal("Send returned while port full")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := p.Receive(0); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func TestPortUnblockedByCrash(t *testing.T) {
	obj, _ := mkObject(t)
	p := obj.Port("mbox", 1)
	got := make(chan error, 1)
	go func() {
		_, err := p.Receive(0)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	obj.Crash()
	select {
	case err := <-got:
		if !errors.Is(err, ErrObjectDown) {
			t.Errorf("Receive after crash: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Receive still blocked after crash")
	}
}

// ---- behaviors ----

func TestBehaviorRunsAndStopsOnCrash(t *testing.T) {
	obj, _ := mkObject(t)
	var ticks atomic.Int64
	stopped := make(chan struct{})
	obj.SpawnBehavior(func(stop <-chan struct{}) {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				ticks.Add(1)
			}
		}
	})
	time.Sleep(60 * time.Millisecond)
	if ticks.Load() == 0 {
		t.Error("behavior never ran")
	}
	obj.Crash()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("behavior survived crash")
	}
}

// TestBehaviorCaretaking exercises the paper's caretaking example: a
// behavior spawned by the reincarnation handler drains a port that
// invocations feed.
func TestBehaviorCaretaking(t *testing.T) {
	s := newSys(t, 1)
	var drained atomic.Int64
	tm := NewType("caretaker")
	startBehavior := func(o *Object) error {
		port := o.Port("work", 16)
		o.SpawnBehavior(func(stop <-chan struct{}) {
			for {
				m, err := port.Receive(0)
				if err != nil {
					return
				}
				_ = m
				drained.Add(1)
			}
		})
		return nil
	}
	tm.Init = startBehavior
	tm.Reincarnate = startBehavior
	tm.Op(Operation{
		Name: "submit",
		Handler: func(c *Call) {
			if err := c.Self().Port("work", 16).Send(c.Data); err != nil {
				c.Fail("submit: %v", err)
			}
		},
	})
	mustRegister(t, s.reg, tm)
	cap, _ := s.ks[1].Create("caretaker", nil)
	for i := 0; i < 5; i++ {
		mustInvoke(t, s.ks[1], cap, "submit", []byte{byte(i)})
	}
	deadline := time.After(2 * time.Second)
	for drained.Load() < 5 {
		select {
		case <-deadline:
			t.Fatalf("behavior drained %d of 5", drained.Load())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestShortTermStateNotCheckpointed(t *testing.T) {
	// Semaphores and ports are short-term state: after passivation and
	// reincarnation they are fresh, while the representation persists.
	s := newSys(t, 1)
	tm := NewType("stateful")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("persisted", []byte("yes"))
			return nil
		})
	}
	tm.Op(Operation{Name: "noop", Handler: func(c *Call) {}})
	mustRegister(t, s.reg, tm)
	cap, _ := s.ks[1].Create("stateful", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	_ = obj.Port("mbox", 4).Send([]byte("volatile"))
	if err := obj.Passivate(); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, s.ks[1], cap, "noop", nil) // reincarnate
	obj2, err := s.ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if obj2 == obj {
		t.Fatal("reincarnation returned the dead incarnation")
	}
	if obj2.Port("mbox", 4).Len() != 0 {
		t.Error("port contents survived passivation")
	}
	obj2.View(func(r *segment.Representation) {
		if b, _ := r.Data("persisted"); string(b) != "yes" {
			t.Error("representation did not survive passivation")
		}
	})
}

// TestSubprocessConcurrency: subordinate processes run concurrently
// with their parent invocation and each other.
func TestSubprocessConcurrency(t *testing.T) {
	s := newSys(t, 1)
	tm := NewType("forker")
	tm.Op(Operation{
		Name: "fanout",
		Handler: func(c *Call) {
			results := c.Self().Port("results", 8)
			var dones []<-chan struct{}
			for i := 0; i < 4; i++ {
				i := i
				dones = append(dones, c.Subprocess(func() {
					_ = results.Send([]byte{byte(i * i)})
				}))
			}
			for _, d := range dones {
				<-d
			}
			sum := 0
			for i := 0; i < 4; i++ {
				m, err := results.Receive(time.Second)
				if err != nil {
					c.Fail("receive: %v", err)
					return
				}
				sum += int(m[0])
			}
			c.Return([]byte{byte(sum)})
		},
	})
	mustRegister(t, s.reg, tm)
	cap, _ := s.ks[1].Create("forker", nil)
	rep, err := s.ks[1].Invoke(cap, "fanout", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.Data[0]) != 0+1+4+9 {
		t.Errorf("fanout sum = %d", rep.Data[0])
	}
}

// TestMoveDrainsSubprocesses: a move must wait for subordinate
// processes, not just top-level invocation processes.
func TestMoveDrainsSubprocesses(t *testing.T) {
	s := newSys(t, 1, 2)
	var finished atomic.Bool
	tm := NewType("slowfork")
	tm.Op(Operation{
		Name: "bg",
		Handler: func(c *Call) {
			// The handler returns immediately; the subordinate keeps
			// the object busy.
			c.Subprocess(func() {
				time.Sleep(150 * time.Millisecond)
				finished.Store(true)
			})
		},
	})
	mustRegister(t, s.reg, tm)
	cap, _ := s.ks[1].Create("slowfork", nil)
	if _, err := s.ks[1].Invoke(cap, "bg", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	obj, _ := s.ks[1].Object(cap.ID())
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Error("move committed while a subordinate process was still executing")
	}
}

// TestSubprocessPanicContained: a panicking subordinate must not take
// down the node.
func TestSubprocessPanicContained(t *testing.T) {
	s := newSys(t, 1)
	tm := NewType("panicky")
	tm.Op(Operation{
		Name: "boom-child",
		Handler: func(c *Call) {
			<-c.Subprocess(func() { panic("child kaboom") })
			c.Return([]byte("survived"))
		},
	})
	mustRegister(t, s.reg, tm)
	cap, _ := s.ks[1].Create("panicky", nil)
	rep, err := s.ks[1].Invoke(cap, "boom-child", nil, nil, nil)
	if err != nil || string(rep.Data) != "survived" {
		t.Errorf("after child panic: %v %q", err, rep.Data)
	}
}

// TestShortTermStateReleasedAtTeardown: a semaphore, a port and a
// behavior waiting on an incarnation are released promptly when it is
// torn down, whether they were made before the teardown — the down
// channel is made by the first of them — or after it, when they are made
// on a channel already closed.
func TestShortTermStateReleasedAtTeardown(t *testing.T) {
	teardowns := map[string]func(*Object) error{
		"Crash":     func(o *Object) error { o.Crash(); return nil },
		"Passivate": (*Object).Passivate,
	}
	for name, teardown := range teardowns {
		for _, after := range []bool{false, true} {
			obj, _ := mkObject(t)
			if after {
				if err := teardown(obj); err != nil {
					t.Fatal(err)
				}
			}
			released := make(chan string, 3)
			sem := obj.Semaphore("s", 0)
			go func() {
				if errors.Is(sem.P(), ErrObjectDown) {
					released <- "semaphore"
				}
			}()
			port := obj.Port("p", 1)
			go func() {
				if _, err := port.Receive(0); errors.Is(err, ErrObjectDown) {
					released <- "port"
				}
			}()
			obj.SpawnBehavior(func(stop <-chan struct{}) {
				<-stop
				released <- "behavior"
			})
			if !after {
				if err := teardown(obj); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				select {
				case <-released:
				case <-time.After(2 * time.Second):
					t.Fatalf("%s, made after it %v: %d of 3 released", name, after, i)
				}
			}
		}
	}
}
