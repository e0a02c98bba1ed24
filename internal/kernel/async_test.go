package kernel

// Tests for async invocation: sticky Pending promises, shedding at the
// node's in-flight cap, independence from slow calls to other objects,
// and resolution across Close.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/rights"
)

// blockerType is a type whose "block" operation parks until the test
// closes release, signalling entry through entered. "quick" returns
// immediately and "fail" always fails.
func blockerType(name string, entered chan struct{}, release chan struct{}) *TypeManager {
	tm := NewType(name)
	var once sync.Once
	tm.Op(Operation{
		Name: "block",
		Handler: func(c *Call) {
			once.Do(func() { close(entered) })
			<-release
			c.Return([]byte("released"))
		},
	})
	tm.Op(Operation{
		Name:    "quick",
		Handler: func(c *Call) { c.Return([]byte("ok")) },
	})
	tm.Op(Operation{
		Name:    "fail",
		Handler: func(c *Call) { c.Fail("deliberate: %s", c.Data) },
	})
	return tm
}

func TestPendingWaitSticky(t *testing.T) {
	k, reg, _ := newSchedKernel(t, nil)
	mustRegister(t, reg, counterType(nil))
	cap, err := k.Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := k.InvokeAsync(cap, "inc", nil, nil, nil)
	rep1, err1 := p.Wait()
	if err1 != nil {
		t.Fatalf("first Wait: %v", err1)
	}
	// The result is sticky: every further Wait, from any goroutine,
	// returns the identical outcome immediately.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := p.Wait()
			if err != nil || fromU64(rep.Data) != fromU64(rep1.Data) {
				t.Errorf("repeat Wait = (%v, %v), want (%v, nil)", rep.Data, err, rep1.Data)
			}
		}()
	}
	wg.Wait()
	if fromU64(rep1.Data) != 1 {
		t.Errorf("inc = %d, want 1", fromU64(rep1.Data))
	}
	select {
	case <-p.Done():
	default:
		t.Error("Done channel not closed after completion")
	}
}

func TestAsyncShedAtCapacity(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	k, reg, tel := newSchedKernel(t, nil)
	mustRegister(t, reg, blockerType("blocker", entered, release))
	cap, err := k.Create("blocker", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cap-many submissions are in flight: one runs the handler, the rest
	// wait in the object's queue on processors of their own.
	long := &InvokeOptions{Timeout: time.Minute}
	parked := make([]*Pending, asyncCap)
	for i := range parked {
		parked[i] = k.InvokeAsync(cap, "block", nil, nil, long)
	}
	<-entered
	// One more finds the node at its cap and is shed at the door.
	if _, err := k.InvokeAsync(cap, "quick", nil, nil, nil).Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("shed submission: err = %v, want ErrTimeout", err)
	}
	if got := tel.Counter(metricAsyncShed).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", metricAsyncShed, got)
	}
	const pending = "kernel.async.pending"
	if got := tel.Snapshot().Gauges[pending]; got != asyncCap {
		t.Errorf("%s = %d while parked, want %d", pending, got, asyncCap)
	}
	close(release)
	for i, p := range parked {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("parked submission %d: %v", i, err)
		}
	}
	if got := tel.Snapshot().Gauges[pending]; got != 0 {
		t.Errorf("%s = %d after release, want 0", pending, got)
	}
}

// TestAsyncCallIsNotStarvedBySlowOnes: async calls parked in a slow
// handler on one object do not hold up an async call to another. Each
// runs on a processor of its own, so the call to the idle object starts
// at once instead of waiting for a parked one to give its processor up.
func TestAsyncCallIsNotStarvedBySlowOnes(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	k, reg, _ := newSchedKernel(t, nil)
	mustRegister(t, reg, blockerType("blocker", entered, release))
	a, err := k.Create("blocker", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Create("blocker", nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 16 {
		k.InvokeAsync(a, "block", nil, nil, nil)
	}
	<-entered
	const budget = 300 * time.Millisecond
	start := time.Now()
	rep, err := k.InvokeAsync(b, "quick", nil, nil, &InvokeOptions{Timeout: budget}).Wait()
	if took := time.Since(start); took > budget {
		t.Errorf("Wait returned after %v, over its %v budget", took, budget)
	}
	if err != nil || string(rep.Data) != "ok" {
		t.Fatalf("call to idle object = (%q, %v), want (ok, nil)", rep.Data, err)
	}
}

func TestAsyncRejectsBadCapability(t *testing.T) {
	k, reg, _ := newSchedKernel(t, nil)
	mustRegister(t, reg, counterType(nil))
	cap, err := k.Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.InvokeAsync(capability.Capability{}, "inc", nil, nil, nil).Wait(); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("null capability: err = %v, want ErrNoSuchObject", err)
	}
	noInvoke := cap.Restrict(rights.Checkpoint)
	if _, err := k.InvokeAsync(noInvoke, "inc", nil, nil, nil).Wait(); !errors.Is(err, ErrRights) {
		t.Errorf("no invoke right: err = %v, want ErrRights", err)
	}
}

func TestAsyncCloseResolvesPending(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	k, reg, _ := newSchedKernel(t, nil)
	mustRegister(t, reg, blockerType("blocker", entered, release))
	cap, err := k.Create("blocker", nil)
	if err != nil {
		t.Fatal(err)
	}
	p1 := k.InvokeAsync(cap, "block", nil, nil, nil)
	<-entered
	p2 := k.InvokeAsync(cap, "quick", nil, nil, nil)
	p3 := k.InvokeAsync(cap, "quick", nil, nil, nil)
	k.Close()
	// The running call and the calls queued behind it all resolve
	// through the invocation path; nothing is left dangling.
	for i, p := range []*Pending{p1, p2, p3} {
		select {
		case <-p.Done():
		case <-time.After(3 * time.Second):
			t.Errorf("pending %d never resolved after Close", i+1)
		}
	}
	// A submission after Close is rejected crisply, never stranded.
	if _, err := k.InvokeAsync(cap, "quick", nil, nil, nil).Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close submission: err = %v, want ErrClosed", err)
	}
}
