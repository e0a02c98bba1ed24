package eden

// In-process crash loops: the whitebox complement to the blackbox
// harness in internal/chaos. The node keeps its log in a directory
// through a fault layer (store.Faults), the "process" dies via
// Node.Crash — which tears what the layer held unsynced — and every
// Restart reopens the log, so each cycle runs the open pass's replay and
// torn-tail cut-off. The whole loop runs in one address space, so the
// race detector watches every cycle, which the subprocess harness cannot
// offer.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/chaos"
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
		Name:   "stat",
		Access: AccessRead,
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

// waitAck waits for the model's next acknowledgement.
func waitAck(floor *chaos.Model, timeout time.Duration) error {
	from := floor.Snapshot().Acks
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if floor.Snapshot().Acks > from {
			return nil
		}
	}
	return fmt.Errorf("no write acknowledged in %v", timeout)
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

// faultyNode adds a node to sys that keeps its log in a fresh directory
// through a fault layer with cfg's schedule.
func faultyNode(t *testing.T, sys *System, cfg store.FaultConfig) (*Node, *store.Faults) {
	t.Helper()
	fl := store.NewFaults(cfg)
	n, err := sys.addNode("faulty", NodeConfig{StoreDir: t.TempDir()}, fl)
	if err != nil {
		t.Fatal(err)
	}
	return n, fl
}

// TestCrashLoopInProcess crash-loops a node whose log fails and stalls
// reads, writes and fsyncs — faults the checkpoint contract must
// tolerate by failing invocations cleanly, never by losing acknowledged
// state — and whose crashes tear the batch in flight. Traffic runs
// concurrently throughout, so under -race this also audits the
// kill/recover paths for data races.
func TestCrashLoopInProcess(t *testing.T) {
	seed := int64(20260808)
	if s := os.Getenv("EDEN_CHAOS_SEED"); s != "" {
		fmt.Sscanf(s, "%d", &seed)
	}
	rng := rand.New(rand.NewSource(seed))
	sys, err := NewSystem(SystemConfig{
		DefaultTimeout: 2 * time.Second,
		LocateTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	faulty, fl := faultyNode(t, sys, store.FaultConfig{
		Seed:      seed,
		FailProb:  0.05,
		DelayProb: 0.5,
		MaxDelay:  5 * time.Millisecond,
	})
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

	floor := &chaos.Model{}
	// Baseline durable write (retried: the schedule may fail it).
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, err := client.Invoke(cap, "incdur", nil, nil, nil)
		if err == nil {
			floor.Ack(binary.BigEndian.Uint64(rep.Data[:8]), binary.BigEndian.Uint64(rep.Data[8:]))
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
				rep, err := client.Invoke(cap, "incdur", nil, nil, &InvokeOptions{Timeout: 250 * time.Millisecond})
				if err != nil {
					if !allowedCrashLoopErr(err) {
						undefined.CompareAndSwap(nil, err)
					}
					continue
				}
				floor.Ack(binary.BigEndian.Uint64(rep.Data[:8]), binary.BigEndian.Uint64(rep.Data[8:]))
			}
		}()
	}

	cycles := 4
	if chaosLong() {
		cycles = 25
	}
	for cycle := 1; cycle <= cycles; cycle++ {
		// Crash under load: once a write gets through to this incarnation,
		// after a seeded while — most likely inside a batch, stalled.
		if err := waitAck(floor, 10*time.Second); err != nil {
			t.Fatalf("cycle %d (seed %d): %v", cycle, seed, err)
		}
		time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
		faulty.Crash()
		if err := faulty.Restart(); err != nil {
			t.Fatalf("cycle %d: restart: %v", cycle, err)
		}
		// Post-restart observation, retried while reincarnation (itself
		// subject to injected store faults) comes through.
		obsDeadline := time.Now().Add(10 * time.Second)
		for {
			acked := floor.Snapshot()
			rep, err := client.Invoke(cap, "stat", nil, nil, &InvokeOptions{Timeout: time.Second})
			if err == nil {
				v := binary.BigEndian.Uint64(rep.Data[:8])
				ver := binary.BigEndian.Uint64(rep.Data[8:])
				if oerr := floor.Observe(acked, v, ver); oerr != nil {
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
	c := fl.Counters()
	if c.Ops == 0 {
		t.Fatal("fault schedule never consulted: the fault layer is not under the node's log")
	}
	acked := floor.Snapshot()
	t.Logf("seed %d: survived %d crash cycles, %d acked writes (floor value=%d version=%d); injected faults: fail=%d delay=%d over %d segment calls, %d torn and %d dropped tails",
		seed, cycles, acked.Acks, acked.AckedValue, acked.AckedVersion, c.Fail, c.Delay, c.Ops, c.Torn, c.Dropped)
}

// TestCrashSyncLieInProcess is the in-process negative control: a log
// whose fsyncs acknowledge checkpoints before they are durable must lose
// them when the node power-fails (Node.Crash tears what the layer held),
// and the floor checks must catch the loss. It also pins the
// System-level contract that Crash loses unsynced state.
func TestCrashSyncLieInProcess(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		DefaultTimeout: 2 * time.Second,
		LocateTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	faulty, fl := faultyNode(t, sys, store.FaultConfig{Seed: 4242, SyncLie: true})
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

	floor := &chaos.Model{}
	for i := uint64(1); i <= 3; i++ {
		rep, err := client.Invoke(cap, "incdur", nil, nil, nil)
		if err != nil {
			t.Fatalf("incdur %d: %v", i, err)
		}
		floor.Ack(binary.BigEndian.Uint64(rep.Data[:8]), binary.BigEndian.Uint64(rep.Data[8:]))
	}
	if c := fl.Counters(); c.SyncLie < 3 {
		t.Fatalf("%d lying fsyncs behind three acknowledged checkpoints", c.SyncLie)
	}

	faulty.Crash() // what the layer held dies with the power
	if c := fl.Counters(); c.Dropped+c.Torn == 0 {
		t.Fatal("Crash lost nothing the layer held")
	}
	if err := faulty.Restart(); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged write was a lie: recovery must either find no
	// object at all or a value below the acked floor. Finding the data
	// intact would mean the injection (or Crash) stopped working.
	deadline := time.Now().Add(5 * time.Second)
	for {
		acked := floor.Snapshot()
		rep, err := client.Invoke(cap, "stat", nil, nil, &InvokeOptions{Timeout: time.Second})
		if err == nil {
			v := binary.BigEndian.Uint64(rep.Data[:8])
			if oerr := floor.Observe(acked, v, binary.BigEndian.Uint64(rep.Data[8:])); oerr == nil {
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

// TestCrashSyncLieMemoryNode: a node that keeps its log in memory runs
// over its fault layer as a StoreDir node does. Its crash tears what the
// lying fsyncs held: the last acknowledged checkpoint is lost, and the
// restart replays the whole frames the tear left.
func TestCrashSyncLieMemoryNode(t *testing.T) {
	sys, err := NewSystem(SystemConfig{DefaultTimeout: 2 * time.Second, LocateTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fl := store.NewFaults(store.FaultConfig{Seed: 1, SyncLie: true}) // a seed whose tear keeps whole frames
	n, err := sys.addNode("memory", NodeConfig{}, fl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterType(durableCounterType()); err != nil {
		t.Fatal(err)
	}
	cap, err := n.CreateObject("chaos.durable")
	if err != nil {
		t.Fatal(err)
	}
	const acked = 6
	for i := 0; i < acked; i++ {
		if _, err := n.Invoke(cap, "incdur", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	n.Crash()
	if c := fl.Counters(); c.SyncLie < acked || c.Torn != 1 {
		t.Fatalf("counters %+v: want %d lying fsyncs and one torn tail", c, acked)
	}
	if err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	rep, err := n.Invoke(cap, "stat", nil, nil, nil)
	if err != nil {
		t.Fatalf("after the restart: %v", err)
	}
	v := binary.BigEndian.Uint64(rep.Data[:8])
	if v == 0 || v >= acked {
		t.Errorf("after the restart the counter reads %d, want a checkpoint the tear kept, below %d", v, acked)
	}
	t.Logf("the tear kept %d of %d acknowledged checkpoints", v, acked)
}

// logBytes sums the lengths of the log segments in dir.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestCrashFencesTheDeadIncarnation: a handler still running when its
// node crashes checkpoints through the dead incarnation's log, which
// Crash closed, so the Put fails with ErrClosed and nothing of it is
// seen after Restart, which reopens the log. Over an honest layer the
// acknowledged write survives exactly; over a lying one the crash tears
// the held tail, and the restart's scan cuts the torn frame off.
func TestCrashFencesTheDeadIncarnation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  store.FaultConfig
	}{
		{"honest", store.FaultConfig{}},
		{"sync-lie", store.FaultConfig{Seed: 1, SyncLie: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(SystemConfig{DefaultTimeout: 2 * time.Second, LocateTimeout: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			entered, release := make(chan struct{}), make(chan struct{})
			late := make(chan error, 1)
			tm := durableCounterType()
			tm.Op(Operation{
				Name:  "late",
				Class: "write",
				Handler: func(c *Call) {
					close(entered)
					<-release
					err := c.Self().Update(func(r *Representation) error {
						r.SetData("n", binary.BigEndian.AppendUint64(nil, 1000))
						return nil
					})
					if err == nil {
						err = c.Self().Checkpoint()
					}
					late <- err
					c.Return(nil)
				},
			})
			if err := sys.RegisterType(tm); err != nil {
				t.Fatal(err)
			}
			faulty, fl := faultyNode(t, sys, tc.cfg)
			cap, err := faulty.CreateObject("chaos.durable")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := faulty.Invoke(cap, "incdur", nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			faulty.InvokeAsync(cap, "late", nil, nil, nil)
			<-entered
			faulty.Crash()
			crashed := logBytes(t, faulty.nc.StoreDir)
			close(release)
			if err := <-late; !errors.Is(err, store.ErrClosed) {
				t.Fatalf("the dead incarnation's checkpoint: %v, want store.ErrClosed", err)
			}
			if err := faulty.Restart(); err != nil {
				t.Fatal(err)
			}
			c := fl.Counters()
			rep, err := faulty.Invoke(cap, "stat", nil, nil, nil)
			if tc.cfg.SyncLie {
				if c.Torn != 1 {
					t.Fatalf("counters %+v: seed %d no longer tears the held tail", c, tc.cfg.Seed)
				}
				if reopened := logBytes(t, faulty.nc.StoreDir); reopened >= crashed {
					t.Errorf("the log holds %d bytes after the restart, %d after the crash: the torn frame was not cut off", reopened, crashed)
				}
				if err == nil && binary.BigEndian.Uint64(rep.Data) != 0 {
					t.Errorf("value %d after a crash under lying fsyncs, want 0 or no object", binary.BigEndian.Uint64(rep.Data))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.Torn+c.Dropped != 0 {
				t.Errorf("the crash tore a batch nobody was writing: %+v", c)
			}
			if v := binary.BigEndian.Uint64(rep.Data); v != 1 {
				t.Errorf("value %d after the restart, want the acknowledged 1", v)
			}
		})
	}
}
