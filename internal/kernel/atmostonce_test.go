package kernel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/msg"
)

// onceRig is node 2 serving crafted request frames "from" node 9, a
// bare mesh endpoint that collects the reply frames. The type has a
// state-changing operation, which can be held inside its handler, and a
// read-only one; both count their executions. A third, "keep", changes
// nothing but is not declared ReadOnly: it returns the first 8 bytes of
// its request, a slice of the frame the request arrived in.
type onceRig struct {
	*sys
	k         *Kernel
	cp        capability.Capability
	bumps     atomic.Int64  // executions of "bump"
	peeks     atomic.Int64  // executions of "peek"
	hold      chan struct{} // non-nil: "bump" announces itself on entered, then waits here
	entered   chan struct{}
	mu        sync.Mutex
	replies   []msg.Envelope
	delivered chan struct{}
}

func newOnceRig(t *testing.T) *onceRig {
	r := &onceRig{sys: newSys(t, 1, 2), entered: make(chan struct{}, 8), delivered: make(chan struct{}, 4*servedCacheSize)}
	r.k = r.ks[2]
	tm := NewType("once")
	tm.Op(Operation{Name: "bump", Access: AccessWrite, Handler: func(c *Call) {
		n := r.bumps.Add(1)
		if r.hold != nil {
			r.entered <- struct{}{}
			<-r.hold
		}
		c.Return(u64(uint64(n)))
	}})
	tm.Op(Operation{Name: "peek", ReadOnly: true, Handler: func(c *Call) {
		c.Return(u64(uint64(r.peeks.Add(1))))
	}})
	tm.Op(Operation{Name: "keep", Access: AccessWrite, Handler: func(c *Call) {
		c.Return(c.Data[:min(8, len(c.Data))])
	}})
	mustRegister(t, r.reg, tm)
	var err error
	if r.cp, err = r.k.Create("once", nil); err != nil {
		t.Fatal(err)
	}
	ep, err := r.mesh.Attach(9)
	if err != nil {
		t.Fatal(err)
	}
	ep.SetHandler(func(env msg.Envelope) {
		if env.Kind != msg.KindInvokeRep {
			return // a move's broadcast reaches every endpoint
		}
		r.mu.Lock()
		r.replies = append(r.replies, env)
		r.mu.Unlock()
		r.delivered <- struct{}{}
	})
	return r
}

// frame is the request an invoker on node 9 would send for corr.
func (r *onceRig) frame(op string, corr uint64) msg.Envelope {
	return r.frameData(op, corr, nil)
}

// frameData is frame with data parameters.
func (r *onceRig) frameData(op string, corr uint64, data []byte) msg.Envelope {
	req := msg.InvokeReq{Target: r.cp, Operation: op, Data: data, TimeoutNanos: int64(5 * time.Second)}
	return msg.Envelope{Kind: msg.KindInvokeReq, From: 9, To: 2, Corr: corr, Payload: req.Encode(nil)}
}

// answers waits for n more reply frames and returns their decoded
// replies, checking each carries corr (0: any).
func (r *onceRig) answers(t *testing.T, n int, corr uint64) []msg.InvokeRep {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-r.delivered:
		case <-time.After(5 * time.Second):
			t.Fatalf("reply %d of %d never arrived", i+1, n)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]msg.InvokeRep, 0, n)
	for _, env := range r.replies[len(r.replies)-n:] {
		rep, err := msg.DecodeInvokeRep(env.Payload)
		if err != nil || (corr != 0 && env.Corr != corr) {
			t.Fatalf("reply %+v: %v", env, err)
		}
		out = append(out, rep)
	}
	return out
}

// quiet reports that no further reply frame arrives.
func (r *onceRig) quiet(t *testing.T) {
	t.Helper()
	select {
	case <-r.delivered:
		t.Fatal("an extra reply frame was sent")
	case <-time.After(50 * time.Millisecond):
	}
}

func (r *onceRig) tableSize() int {
	r.k.served.mu.Lock()
	defer r.k.served.mu.Unlock()
	return len(r.k.served.idx)
}

// recorded is the reply the table keeps for node 9's call corr.
func (r *onceRig) recorded(t *testing.T, corr uint64) msg.InvokeRep {
	t.Helper()
	r.k.served.mu.Lock()
	defer r.k.served.mu.Unlock()
	n, ok := r.k.served.idx[servedKey{from: 9, corr: corr}]
	if !ok {
		t.Fatalf("call %d holds no slot", corr)
	}
	return r.k.served.ring[n%servedCacheSize].rep
}

// TestAtMostOnceTable is the specification of remote at-most-once
// execution: an operation that may change state executes at most once
// per logical invocation (From, Corr) within a window of the last
// servedCacheSize such calls, and the table holds nothing else — not a
// read-only call, whose duplicate simply runs again, and not a routing
// outcome.
func TestAtMostOnceTable(t *testing.T) {
	t.Run("duplicate while executing is dropped", func(t *testing.T) {
		r := newOnceRig(t)
		r.hold = make(chan struct{})
		env := r.frame("bump", 100)
		first := make(chan struct{})
		go func() { r.k.serveInvoke(env); close(first) }()
		<-r.entered
		r.k.serveInvoke(env) // returns: neither executed nor parked for the timeout
		r.quiet(t)
		close(r.hold)
		<-first
		if rep := r.answers(t, 1, 100)[0]; rep.Status != msg.StatusOK || fromU64(rep.Data) != 1 {
			t.Errorf("reply = %+v", rep)
		}
		r.quiet(t)
		if got := r.bumps.Load(); got != 1 {
			t.Errorf("%d executions for one logical invocation", got)
		}
	})

	t.Run("duplicate after completion is replayed", func(t *testing.T) {
		r := newOnceRig(t)
		env := r.frame("bump", 200)
		r.k.serveInvoke(env)
		r.k.serveInvoke(env)
		for i, rep := range r.answers(t, 2, 200) {
			if rep.Status != msg.StatusOK || fromU64(rep.Data) != 1 {
				t.Errorf("reply %d = %+v, want the first execution's", i, rep)
			}
		}
		if got := r.bumps.Load(); got != 1 {
			t.Errorf("%d executions for one logical invocation", got)
		}
	})

	t.Run("the window is servedCacheSize calls, oldest forgotten first", func(t *testing.T) {
		r := newOnceRig(t)
		const n = 2 * servedCacheSize
		for corr := uint64(1); corr <= n; corr++ {
			r.k.serveInvoke(r.frame("bump", corr))
		}
		r.answers(t, n, 0)
		if got := r.tableSize(); got != servedCacheSize {
			t.Fatalf("table holds %d entries after %d calls, want %d", got, n, servedCacheSize)
		}
		// The newest and the oldest still inside the window replay ...
		for _, corr := range []uint64{n, n - servedCacheSize + 1} {
			r.k.serveInvoke(r.frame("bump", corr))
			if rep := r.answers(t, 1, corr)[0]; fromU64(rep.Data) != corr {
				t.Errorf("call %d replayed as %d", corr, fromU64(rep.Data))
			}
		}
		if got := r.bumps.Load(); got != n {
			t.Fatalf("%d executions after replays, want %d", got, n)
		}
		// ... and the one just outside it has been forgotten.
		r.k.serveInvoke(r.frame("bump", n-servedCacheSize))
		if rep := r.answers(t, 1, n-servedCacheSize)[0]; fromU64(rep.Data) != n+1 {
			t.Errorf("a call outside the window answered %d, want a fresh execution (%d)", fromU64(rep.Data), n+1)
		}
		if got := r.tableSize(); got != servedCacheSize {
			t.Errorf("table holds %d entries, want %d", got, servedCacheSize)
		}
	})

	t.Run("a read-only call costs no entry and its duplicate runs again", func(t *testing.T) {
		r := newOnceRig(t)
		env := r.frame("peek", 300)
		r.k.serveInvoke(env)
		r.k.serveInvoke(env)
		reps := r.answers(t, 2, 300)
		if fromU64(reps[0].Data) != 1 || fromU64(reps[1].Data) != 2 {
			t.Errorf("replies %d, %d: want both executions answered", fromU64(reps[0].Data), fromU64(reps[1].Data))
		}
		if r.tableSize() != 0 || r.k.served.ring != nil {
			t.Errorf("read-only calls left %d entries and a %d-slot ring", r.tableSize(), len(r.k.served.ring))
		}
	})
}

// TestBouncedCallDoesNotAgeOutItsExecution: a call bounced StatusMoved
// from inside dispatch — the one routing outcome that has taken a slot —
// must leave nothing behind. The dedup log used to keep the bounce's
// key; when the retry then executed here under the same key, the stale
// position aged out first and took the live entry with it, and a later
// retransmission of the executed write ran it again.
func TestBouncedCallDoesNotAgeOutItsExecution(t *testing.T) {
	r := newOnceRig(t)
	// The incarnation moves away between the call's resolution and its
	// arrival: dispatch, past the table already, answers StatusMoved.
	hookOnce(r.k, hookArrival, r.cp.ID(), func(o *Object) {
		if err := <-o.Move(1); err != nil {
			t.Error(err)
		}
	})
	env := r.frame("bump", 7)
	r.k.serveInvoke(env)
	if rep := r.answers(t, 1, 7)[0]; rep.Status != msg.StatusMoved {
		t.Fatalf("bounce = %+v, want StatusMoved", rep)
	}
	if got := r.tableSize(); got != 0 {
		t.Fatalf("a routing outcome left %d entries in the table", got)
	}
	// The object comes back and the retry executes here.
	back, err := r.ks[1].Object(r.cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-back.Move(2); err != nil {
		t.Fatal(err)
	}
	r.k.serveInvoke(env)
	if rep := r.answers(t, 1, 7)[0]; rep.Status != msg.StatusOK || fromU64(rep.Data) != 1 {
		t.Fatalf("retry = %+v", rep)
	}
	// Exactly enough other calls to age out the position the bounce held.
	for corr := uint64(1000); corr < 1000+servedCacheSize-1; corr++ {
		r.k.serveInvoke(r.frame("bump", corr))
	}
	r.answers(t, servedCacheSize-1, 0)
	r.k.serveInvoke(env)
	if rep := r.answers(t, 1, 7)[0]; fromU64(rep.Data) != 1 {
		t.Errorf("retransmission answered %d: the write executed again", fromU64(rep.Data))
	}
	if got := r.bumps.Load(); got != servedCacheSize {
		t.Errorf("%d executions, want %d", got, servedCacheSize)
	}
}

// TestAtMostOnceKeepsRightSizedReplies: Return keeps the slice it is
// given, so a handler that returns 8 bytes of a 64 KiB request gives the
// kernel a slice of the whole receive frame. The table may keep the
// reply for the next servedCacheSize calls; it must keep those 8 bytes,
// not the frame behind them.
func TestAtMostOnceKeepsRightSizedReplies(t *testing.T) {
	r := newOnceRig(t)
	body := make([]byte, 64<<10)
	copy(body, "8 bytes!")
	env := r.frameData("keep", 400, body)
	r.k.serveInvoke(env)
	if rep := r.answers(t, 1, 400)[0]; string(rep.Data) != "8 bytes!" {
		t.Fatalf("reply = %q", rep.Data)
	}
	if kept := r.recorded(t, 400).Data; cap(kept) > 2*8+64 {
		t.Errorf("the table keeps the 8-byte reply in a %d-byte array", cap(kept))
	}
	r.k.serveInvoke(env)
	if rep := r.answers(t, 1, 400)[0]; string(rep.Data) != "8 bytes!" {
		t.Errorf("retransmission answered %q", rep.Data)
	}
}
