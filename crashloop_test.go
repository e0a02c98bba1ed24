package eden

// In-process crash loops: the whitebox complement to the blackbox
// harness in internal/chaos. The node's long-term store is a
// fault-injecting wrapper (internal/faultstore) plugged in through
// NodeConfig.Store, the "process" dies via Node.Crash, and the whole
// loop runs in one address space — so the race detector watches every
// cycle, which the subprocess harness cannot offer.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/faultstore"
	"eden/internal/kernel"
	"eden/internal/store"
)

// durableCounterType is a counter whose "incdur" operation makes the
// durability promise the crash loop audits: increment, checkpoint, and
// only then reply value(8)|version(8). An acknowledged incdur must
// survive any crash. "stat" is the post-restart observation.
func durableCounterType() *TypeManager {
	tm := NewType("chaos.durable")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *Representation) error {
			r.SetData("n", make([]byte, 8))
			return nil
		})
	}
	tm.Limit("write", 1)
	tm.Op(Operation{
		Name:  "incdur",
		Class: "write",
		Handler: func(c *Call) {
			var out [8]byte
			err := c.Self().Update(func(r *Representation) error {
				b, _ := r.Data("n")
				binary.BigEndian.PutUint64(out[:], binary.BigEndian.Uint64(b)+1)
				r.SetData("n", out[:])
				return nil
			})
			if err == nil {
				err = c.Self().Checkpoint()
			}
			if err != nil {
				c.Fail("incdur: %v", err)
				return
			}
			var ver [8]byte
			binary.BigEndian.PutUint64(ver[:], c.Self().Version())
			c.Return(append(out[:], ver[:]...))
		},
	})
	tm.Op(Operation{
		Name:     "stat",
		ReadOnly: true,
		Handler: func(c *Call) {
			var b [16]byte
			c.Self().View(func(r *Representation) {
				n, _ := r.Data("n")
				copy(b[:8], n)
			})
			binary.BigEndian.PutUint64(b[8:], c.Self().Version())
			c.Return(b[:])
		},
	})
	return tm
}

// ackFloor tracks the highest acknowledged value/version — the floor
// every post-restart observation must meet.
type ackFloor struct {
	mu              sync.Mutex
	value, version  uint64
	observedVersion uint64
	acks            uint64
}

func (f *ackFloor) ack(value, version uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acks++
	if value > f.value {
		f.value = value
	}
	if version > f.version {
		f.version = version
	}
}

// acked returns the floor as it stands: a read sent after this returns
// must observe at least this value and version.
func (f *ackFloor) acked() (value, version uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.value, f.version
}

// observe checks a post-restart observation against the floor acked
// returned before the observing read was sent. Acks recorded since may
// be of writes the read preceded, so they do not count against it.
func (f *ackFloor) observe(floorValue, floorVersion, value, version uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if value < floorValue {
		return fmt.Errorf("lost acknowledged writes: observed value %d < acked floor %d", value, floorValue)
	}
	if version < floorVersion {
		return fmt.Errorf("lost acknowledged checkpoint: observed version %d < acked floor %d", version, floorVersion)
	}
	if version < f.observedVersion {
		return fmt.Errorf("version ran backwards across restart: %d after %d", version, f.observedVersion)
	}
	f.observedVersion = version
	return nil
}

// allowedCrashLoopErr reports whether an invocation error is legitimate
// while the serving node is crashing, down, or served by a store that
// injects failures. A failed incdur is fine — it just raises no floor.
func allowedCrashLoopErr(err error) bool {
	return errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrCrashed) ||
		errors.Is(err, ErrNoSuchObject) ||
		errors.Is(err, ErrInvocationFailed) ||
		errors.Is(err, kernel.ErrClosed)
}

// TestCrashLoopInProcess crash-loops a node whose store injects failed
// and delayed I/O — faults the checkpoint contract must tolerate by
// failing invocations cleanly, never by losing acknowledged state.
// Traffic runs concurrently throughout, so under -race this also
// audits the kill/recover paths for data races.
func TestCrashLoopInProcess(t *testing.T) {
	seed := int64(20260808)
	if s := os.Getenv("EDEN_CHAOS_SEED"); s != "" {
		fmt.Sscanf(s, "%d", &seed)
	}
	rng := rand.New(rand.NewSource(seed))
	fs := faultstore.Wrap(store.NewMemory(), faultstore.Config{
		Seed:      seed,
		FailProb:  0.05,
		DelayProb: 0.05,
		MaxDelay:  2 * time.Millisecond,
	})
	sys, err := NewSystem(SystemConfig{
		DefaultTimeout: 2 * time.Second,
		LocateTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	faulty, err := sys.AddNodeWithConfig("faulty", NodeConfig{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddNode("client")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterType(durableCounterType()); err != nil {
		t.Fatal(err)
	}
	cap, err := faulty.CreateObject("chaos.durable")
	if err != nil {
		t.Fatal(err)
	}

	floor := &ackFloor{}
	// Baseline durable write (retried: the schedule may fail it).
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, err := client.Invoke(cap, "incdur", nil, nil, nil)
		if err == nil {
			floor.ack(binary.BigEndian.Uint64(rep.Data[:8]), binary.BigEndian.Uint64(rep.Data[8:]))
			break
		}
		if !allowedCrashLoopErr(err) || time.Now().After(deadline) {
			t.Fatalf("baseline incdur: %v", err)
		}
	}

	stop := make(chan struct{})
	var undefined atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := client.Invoke(cap, "incdur", nil, nil, &InvokeOptions{Timeout: 500 * time.Millisecond})
				if err != nil {
					if !allowedCrashLoopErr(err) {
						undefined.CompareAndSwap(nil, err)
					}
					continue
				}
				floor.ack(binary.BigEndian.Uint64(rep.Data[:8]), binary.BigEndian.Uint64(rep.Data[8:]))
			}
		}()
	}

	cycles := 4
	if chaosLong() {
		cycles = 25
	}
	for cycle := 1; cycle <= cycles; cycle++ {
		time.Sleep(time.Duration(20+rng.Intn(50)) * time.Millisecond)
		faulty.Crash()
		if err := faulty.Restart(); err != nil {
			t.Fatalf("cycle %d: restart: %v", cycle, err)
		}
		// Post-restart observation, retried while reincarnation (itself
		// subject to injected store faults) comes through.
		obsDeadline := time.Now().Add(10 * time.Second)
		for {
			floorValue, floorVersion := floor.acked()
			rep, err := client.Invoke(cap, "stat", nil, nil, &InvokeOptions{Timeout: time.Second})
			if err == nil {
				v := binary.BigEndian.Uint64(rep.Data[:8])
				ver := binary.BigEndian.Uint64(rep.Data[8:])
				if oerr := floor.observe(floorValue, floorVersion, v, ver); oerr != nil {
					t.Fatalf("cycle %d (seed %d): %v", cycle, seed, oerr)
				}
				break
			}
			if !allowedCrashLoopErr(err) || time.Now().After(obsDeadline) {
				t.Fatalf("cycle %d (seed %d): object unrecoverable: %v", cycle, seed, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	close(stop)
	wg.Wait()
	if e := undefined.Load(); e != nil {
		t.Fatalf("traffic saw an undefined error (seed %d): %v", seed, e)
	}
	c := fs.Counters()
	if fs.Ops() == 0 {
		t.Fatal("fault schedule never consulted: the injected store is not wired in")
	}
	floor.mu.Lock()
	t.Logf("seed %d: survived %d crash cycles, %d acked writes (floor value=%d version=%d); injected faults: fail=%d delay=%d over %d store ops",
		seed, cycles, floor.acks, floor.value, floor.version, c.Fail, c.Delay, fs.Ops())
	floor.mu.Unlock()
}

// TestCrashSyncLieInProcess is the in-process negative control: a store
// that acknowledges checkpoints before they are durable must lose them
// when the node power-fails (Node.Crash drops the volatile overlay),
// and the floor checks must catch the loss. It also pins the
// System-level contract that Crash loses unsynced state.
func TestCrashSyncLieInProcess(t *testing.T) {
	fs := faultstore.Wrap(store.NewMemory(), faultstore.Config{Seed: 4242, SyncLie: true})
	sys, err := NewSystem(SystemConfig{
		DefaultTimeout: 2 * time.Second,
		LocateTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	faulty, err := sys.AddNodeWithConfig("faulty", NodeConfig{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddNode("client")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterType(durableCounterType()); err != nil {
		t.Fatal(err)
	}
	cap, err := faulty.CreateObject("chaos.durable")
	if err != nil {
		t.Fatal(err)
	}

	floor := &ackFloor{}
	for i := uint64(1); i <= 3; i++ {
		rep, err := client.Invoke(cap, "incdur", nil, nil, nil)
		if err != nil {
			t.Fatalf("incdur %d: %v", i, err)
		}
		floor.ack(binary.BigEndian.Uint64(rep.Data[:8]), binary.BigEndian.Uint64(rep.Data[8:]))
	}
	if fs.UnsyncedLen() == 0 {
		t.Fatal("sync-lie store has nothing unsynced after three acknowledged checkpoints")
	}

	faulty.Crash() // the overlay dies with the power
	if c := fs.Counters(); c.Dropped == 0 {
		t.Fatal("Crash did not drop the unsynced overlay")
	}
	if err := faulty.Restart(); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged write was a lie: recovery must either find no
	// object at all or a value below the acked floor. Finding the data
	// intact would mean the injection (or Crash) stopped working.
	deadline := time.Now().Add(5 * time.Second)
	for {
		floorValue, floorVersion := floor.acked()
		rep, err := client.Invoke(cap, "stat", nil, nil, &InvokeOptions{Timeout: time.Second})
		if err == nil {
			v := binary.BigEndian.Uint64(rep.Data[:8])
			if oerr := floor.observe(floorValue, floorVersion, v, binary.BigEndian.Uint64(rep.Data[8:])); oerr == nil {
				t.Fatalf("acked writes survived a sync-lie crash (value %d): fault injection is not working", v)
			}
			t.Logf("loss detected: observed value %d below acked floor %d", v, 3)
			return
		}
		if errors.Is(err, ErrNoSuchObject) {
			t.Logf("loss detected: object unrecoverable after sync-lie crash (%v)", err)
			return
		}
		if !allowedCrashLoopErr(err) || time.Now().After(deadline) {
			t.Fatalf("undefined post-crash error: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
