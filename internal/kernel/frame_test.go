package kernel

// Tests for the pooled call frame and the processor it keeps: a recycled
// frame never carries one invocation's reply into another, a virtual
// processor stays with the handler that occupies it, processors come and
// go with demand and never outlive Close, a serve never hands its process
// to its own processor, and a handler that ends its goroutine still
// settles its exit.

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/store"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// TestCallFrameRecycle hammers frame reuse at its worst: callers whose
// 1 ms deadline is about the handler's sleep, so timed-out invokers,
// late replies, queued-then-shed calls and prompt replies all recycle
// frames into each other's hands, locally (dispatch) and across the
// mesh (roundTrip). Every reply must be the one its own request asked
// for.
func TestCallFrameRecycle(t *testing.T) {
	before := runtime.NumGoroutine()

	tm := NewType("echo")
	tm.Op(Operation{Name: "echo", Access: AccessWrite, Handler: func(c *Call) {
		// The sleep is derived from the request, so the handler shares no
		// state with its callers.
		time.Sleep(time.Duration(fromU64(c.Data)%2001) * time.Microsecond)
		c.Return(c.Data)
	}})
	reg := NewRegistry()
	mustRegister(t, reg, tm)
	mesh := transport.NewMesh(7)
	tels := map[uint32]*telemetry.Registry{1: telemetry.New(), 2: telemetry.New()}
	ks := make(map[uint32]*Kernel)
	var caps []capability.Capability
	for n := uint32(1); n <= 2; n++ {
		ep, err := mesh.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(n, "recycle")
		cfg.Telemetry = tels[n]
		ks[n] = New(cfg, ep, reg, store.NewMemory())
		cp, err := ks[n].Create("echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, cp) // one object local to the callers' node, one remote
	}

	const callers = 8
	var seq, ok, timedOut atomic.Uint64
	stop := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for time.Now().Before(stop) {
				want := u64(seq.Add(1))
				rep, err := ks[1].Invoke(caps[rng.Intn(len(caps))], "echo", want, nil, &InvokeOptions{Timeout: time.Millisecond})
				switch {
				case err == nil && bytes.Equal(rep.Data, want):
					ok.Add(1)
				case err == nil:
					t.Errorf("request %d was answered with request %d's reply", fromU64(want), fromU64(rep.Data))
					return
				case errors.Is(err, ErrTimeout):
					timedOut.Add(1)
				default:
					t.Errorf("request %d: %v", fromU64(want), err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if ok.Load() == 0 || timedOut.Load() == 0 {
		t.Errorf("%d replies, %d timeouts: the test needs both to recycle frames both ways", ok.Load(), timedOut.Load())
	}

	for _, k := range ks {
		k.Close()
	}
	mesh.Close()
	for _, tel := range tels {
		eventually(t, func() bool { return tel.Gauge(metricAdmissionDepth).Value() == 0 },
			"admission-depth gauge of every node returns to zero")
	}
	eventually(t, func() bool { return runtime.NumGoroutine() <= before },
		"every goroutine the system started has exited after Close")
}

// TestTimedOutCallKeepsItsVirtualProcessor: a handler that outlives its
// invoker's deadline still runs on the virtual processor it was given;
// the node must not hand that processor to a second handler until the
// first returns.
func TestTimedOutCallKeepsItsVirtualProcessor(t *testing.T) {
	k, reg, _ := newSchedKernel(t, func(c *Config) { c.VirtualProcessors = 1 })
	var running, peak atomic.Int64
	release := make(chan struct{})
	tm := NewType("vp")
	tm.Op(Operation{Name: "run", Handler: func(c *Call) {
		if n := running.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		if string(c.Data) == "hold" {
			<-release
		}
		running.Add(-1)
	}})
	mustRegister(t, reg, tm)
	cp, err := k.Create("vp", nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := k.Invoke(cp, "run", []byte("hold"), nil, &InvokeOptions{Timeout: 50 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("holder: err = %v, want ErrTimeout", err)
	}
	// The holder's handler is still running on the node's only virtual
	// processor: this call must wait for it and be shed, not run beside it.
	if _, err := k.Invoke(cp, "run", nil, nil, &InvokeOptions{Timeout: 100 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
		t.Errorf("second call while the timed-out handler still runs: err = %v, want ErrTimeout", err)
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("%d handlers ran at once on a node with 1 virtual processor", got)
	}
	close(release)
	// The processor comes back when the handler returns.
	if _, err := k.Invoke(cp, "run", nil, nil, &InvokeOptions{Timeout: 2 * time.Second}); err != nil {
		t.Errorf("call after the holder returned: %v", err)
	}
}

// TestDisarmLeavesNoTick: a reply that arrives as the frame's timer
// fires must not leave the tick for the frame's next wait, where it
// would time out a call with seconds to spare. Stop can report a fired
// timer before its tick is in the channel; disarm then abandons the
// timer. Each round disarms at the instant of expiry and looks for a
// tick afterwards.
func TestDisarmLeavesNoTick(t *testing.T) {
	spin := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	c := new(Kernel).getFrame()
	defer c.recycle()
	for i := 0; i < 20000; i++ {
		d := time.Duration(20+i%40) * time.Microsecond
		c.arm(d)
		spin(d - 2*time.Microsecond)
		c.disarm()
		spin(5 * time.Microsecond)
		if c.timer == nil {
			continue // abandoned, and its tick with it
		}
		select {
		case <-c.timer.C:
			t.Fatalf("round %d: a disarmed timer's tick surfaced afterwards", i)
		default:
		}
	}
}

// TestGoexitHandlerSettlesItsExit: a handler that ends its goroutine
// (runtime.Goexit, as t.FailNow inside a handler does) still settles its
// process's exit. Its invoker is answered with a failure, the class slot
// it held is freed, and the frame's processor keeps serving.
func TestGoexitHandlerSettlesItsExit(t *testing.T) {
	k, reg, _ := newSchedKernel(t, nil)
	tm := NewType("goexit").Limit("one", 1)
	tm.Op(Operation{Name: "exit", Class: "one", Handler: func(c *Call) { runtime.Goexit() }})
	tm.Op(Operation{Name: "ok", Class: "one", Handler: func(c *Call) { c.Return(c.Data) }})
	mustRegister(t, reg, tm)
	cp, err := k.Create("goexit", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := k.Invoke(cp, "exit", nil, nil, &InvokeOptions{Timeout: 200 * time.Millisecond}); !errors.Is(err, ErrInvocationFailed) {
			t.Fatalf("round %d: exit: err = %v, want ErrInvocationFailed", i, err)
		}
		want := u64(uint64(i))
		rep, err := k.Invoke(cp, "ok", want, nil, &InvokeOptions{Timeout: 300 * time.Millisecond})
		if err != nil || !bytes.Equal(rep.Data, want) {
			t.Fatalf("round %d: ok after exit: %v, %v: the exit was not settled", i, rep.Data, err)
		}
	}
}

// TestProcessorsFollowDemand: a burst of concurrent handlers starts a
// processor per frame, and when the burst is over the pool drops its
// frames and their processors exit: after two collections the node is
// back at the goroutines it had before. Stacks do not show in the heap,
// so the test logs goroutines and stack memory at the peak and after.
func TestProcessorsFollowDemand(t *testing.T) {
	k, reg, _ := newSchedKernel(t, nil)
	const burst = 200
	var entered sync.WaitGroup
	release := make(chan struct{})
	tm := NewType("burst")
	tm.Op(Operation{Name: "hold", Handler: func(c *Call) {
		entered.Done()
		<-release
		c.Return(c.Data)
	}})
	mustRegister(t, reg, tm)
	cp, err := k.Create("burst", nil)
	if err != nil {
		t.Fatal(err)
	}
	stacks := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.StackInuse
	}
	runtime.GC()
	runtime.GC()
	before, stackBefore := runtime.NumGoroutine(), stacks()

	entered.Add(burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := u64(uint64(i))
			if rep, err := k.Invoke(cp, "hold", want, nil, &InvokeOptions{Timeout: 10 * time.Second}); err != nil || !bytes.Equal(rep.Data, want) {
				t.Errorf("call %d: %v, %v", i, rep.Data, err)
			}
		}(i)
	}
	entered.Wait()
	peak, stackPeak := runtime.NumGoroutine(), stacks()
	close(release)
	wg.Wait()
	idle := runtime.NumGoroutine()

	runtime.GC()
	runtime.GC()
	eventually(t, func() bool { return runtime.NumGoroutine() <= before },
		"the burst's processors exit once the pool has dropped their frames")
	t.Logf("goroutines: %d before, %d at the peak, %d idle after the burst, %d after two collections",
		before, peak, idle, runtime.NumGoroutine())
	t.Logf("stack in use: %d KiB before, %d KiB at the peak, %d KiB after", stackBefore>>10, stackPeak>>10, stacks()>>10)
}

// TestProcessorStartRacingCloseIsAnswered: a process started after its
// node stopped its processors runs on a goroutine of its own, and one
// started as Close stops them still runs, so no call waits out its
// deadline against a processor that has exited, and no processor
// outlives Close.
func TestProcessorStartRacingCloseIsAnswered(t *testing.T) {
	echo := NewType("echo")
	echo.Op(Operation{Name: "echo", Handler: func(c *Call) { c.Return(c.Data) }})

	t.Run("after-stop", func(t *testing.T) {
		k, reg, _ := newSchedKernel(t, nil)
		mustRegister(t, reg, echo)
		cp, err := k.Create("echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		mustInvoke(t, k, cp, "echo", nil) // the frame gets its processor
		k.stopProcessors()
		for i := 0; i < 100; i++ {
			if _, err := k.Invoke(cp, "echo", nil, nil, &InvokeOptions{Timeout: time.Second}); err != nil {
				t.Fatalf("call %d after the processors stopped: %v", i, err)
			}
		}
	})

	t.Run("racing-close", func(t *testing.T) {
		before := runtime.NumGoroutine()
		const rounds, callers = 50, 4
		for r := 0; r < rounds; r++ {
			reg := NewRegistry()
			mustRegister(t, reg, echo)
			mesh := transport.NewMesh(int64(r))
			ep, err := mesh.Attach(1)
			if err != nil {
				t.Fatal(err)
			}
			k := New(DefaultConfig(1, "close-race"), ep, reg, store.NewMemory())
			cp, err := k.Create("echo", nil)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						start := time.Now()
						_, err := k.Invoke(cp, "echo", nil, nil, &InvokeOptions{Timeout: 10 * time.Second})
						if d := time.Since(start); d > 2*time.Second {
							t.Errorf("round %d: a call took %v to be answered (%v)", r, d, err)
							return
						}
						if err != nil {
							return
						}
					}
				}()
			}
			time.Sleep(time.Duration(r%5) * 200 * time.Microsecond)
			k.Close()
			wg.Wait()
			mesh.Close()
		}
		eventually(t, func() bool { return runtime.NumGoroutine() <= before }, "no processor outlives Close")
	})
}

// TestServeKeepsItsFrame: a served request keeps the frame that carried
// it until the serve returns. With one P the pool hands a frame recycled
// on it to the next Get there, so a serve that recycled its frame first
// would draw that same frame for its dispatch and hand its process to
// the processor that runs the serve itself, which waits for the process.
func TestServeKeepsItsFrame(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cp, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.ks[2].Invoke(cp, "inc", nil, nil, &InvokeOptions{Timeout: 500 * time.Millisecond}); err != nil {
			t.Fatalf("served request %d: %v", i, err)
		}
	}
}
