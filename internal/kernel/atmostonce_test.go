package kernel

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/msg"
	"eden/internal/rights"
)

// onceRig is node 2 serving crafted request frames "from" node 9, a
// bare mesh endpoint that collects the reply frames. The type has a
// state-changing operation, which can be held inside its handler, and a
// read-only one; both count their executions. A third, "head", changes
// nothing but is not declared AccessRead: it returns the first 8 bytes of
// its request, a slice of its Call.Data. A fourth, "build", is a
// state-changing operation that writes its reply with ReturnBuffer: its
// execution count, then its request.
type onceRig struct {
	*sys
	k         *Kernel
	cp        capability.Capability
	bumps     atomic.Int64  // executions of "bump"
	peeks     atomic.Int64  // executions of "peek"
	builds    atomic.Int64  // executions of "build"
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
	tm.Op(Operation{Name: "peek", Access: AccessRead, Handler: func(c *Call) {
		c.Return(u64(uint64(r.peeks.Add(1))))
	}})
	tm.Op(Operation{Name: "head", Access: AccessWrite, Handler: func(c *Call) {
		c.Return(c.Data[:min(8, len(c.Data))])
	}})
	tm.Op(Operation{Name: "build", Access: AccessWrite, Handler: func(c *Call) {
		out := c.ReturnBuffer(8 + len(c.Data))
		binary.BigEndian.PutUint64(out, uint64(r.builds.Add(1)))
		copy(out[8:], c.Data)
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
	return r.k.served.indexed()
}

// recorded is the reply the table keeps for node 9's call corr.
func (r *onceRig) recorded(t *testing.T, corr uint64) msg.InvokeRep {
	t.Helper()
	r.k.served.mu.Lock()
	defer r.k.served.mu.Unlock()
	i := -1
	if r.k.served.ring != nil {
		i = r.k.served.lookup(servedKey{from: 9, corr: corr})
	}
	if i < 0 {
		t.Fatalf("call %d holds no slot", corr)
	}
	return r.k.served.ring[r.k.served.idx[i]-1].reply()
}

// indexed counts the table's index entries.
func (t *servedTable) indexed() int {
	n := 0
	for _, e := range t.idx {
		if e != 0 {
			n++
		}
	}
	return n
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
	env := r.frameData("head", 400, body)
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

// mapServedTable is the at-most-once table as it was when a map indexed
// its ring: the reference TestServedTableMatchesModel holds servedTable
// to. It keeps no lock and no copy of reply data; the test needs
// neither.
type mapServedTable struct {
	n    uint64
	idx  map[servedKey]uint64
	ring []mapServedSlot
}

type mapServedSlot struct {
	n   uint64
	key servedKey
	rep msg.InvokeRep
}

func (t *mapServedTable) begin(key servedKey) (uint64, msg.InvokeRep) {
	if n, dup := t.idx[key]; dup {
		return 0, t.ring[n%servedCacheSize].rep
	}
	if t.ring == nil {
		t.idx = make(map[servedKey]uint64)
		t.ring = make([]mapServedSlot, servedCacheSize)
	}
	t.n++
	s := &t.ring[t.n%servedCacheSize]
	if s.n != 0 {
		delete(t.idx, s.key)
	}
	*s = mapServedSlot{n: t.n, key: key, rep: msg.InvokeRep{Status: statusDuplicate}}
	t.idx[key] = t.n
	return t.n, msg.InvokeRep{}
}

func (t *mapServedTable) end(n uint64, rep msg.InvokeRep) {
	s := &t.ring[n%servedCacheSize]
	switch {
	case s.n != n:
	case rep.Status == msg.StatusMoved || rep.Status == statusPassive:
		delete(t.idx, s.key)
		*s = mapServedSlot{}
	default:
		s.rep = rep
	}
}

func sameReply(a, b msg.InvokeRep) bool {
	return a.Status == b.Status && bytes.Equal(a.Data, b.Data) && slices.Equal(a.Caps, b.Caps)
}

// TestServedTableMatchesModel drives servedTable and the map-indexed
// table it replaced through one seeded sequence of begin and end calls
// and compares every answer, and now and then the whole table. The
// sequence has new calls from three senders, retransmissions of calls
// still executing, settled, evicted or freed, calls settled out of
// order and some only after the ring came round, outcomes that are kept
// (StatusOK, StatusError, with and without capabilities) and outcomes
// that free their slot (StatusMoved, passive), and it runs past
// 3 × servedCacheSize admissions.
func TestServedTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 1981))
	var got servedTable
	var want mapServedTable
	type call struct {
		n   uint64
		key servedKey
	}
	var (
		running []call      // begun and not yet ended
		seen    []servedKey // every key begun, oldest first
		corrs   [3]uint64
		caps    = capability.List{capability.New(edenid.New(9, 1, 1), rights.All)}
		met     = make(map[string]int) // how often each case came up
	)
	begin := func(key servedKey, again bool) {
		n, rep := got.begin(key)
		wn, wrep := want.begin(key)
		if n != wn || !sameReply(rep, wrep) {
			t.Fatalf("begin(%v) after %d admissions = %d, %+v; the model says %d, %+v", key, want.n, n, rep, wn, wrep)
		}
		switch {
		case n == 0 && rep.Status == statusDuplicate:
			met["retransmission dropped while running"]++
		case n == 0:
			met["retransmission replayed"]++
		case again:
			met["retransmission of a forgotten call admitted"]++
		}
		if n != 0 {
			running = append(running, call{n, key})
			seen = append(seen, key)
		}
	}
	compare := func() {
		t.Helper()
		if g, w := got.indexed(), len(want.idx); g != w {
			t.Fatalf("after %d admissions the index holds %d entries, the model %d", want.n, g, w)
		}
		for key, n := range want.idx {
			i := got.lookup(key)
			if i < 0 {
				t.Fatalf("after %d admissions call %v (slot of call %d) cannot be found", want.n, key, n)
			}
			if pos := int(got.idx[i] - 1); pos != int(n%servedCacheSize) {
				t.Fatalf("call %v is indexed at ring position %d, the model's is %d", key, pos, n%servedCacheSize)
			}
			if rep, wrep := got.ring[n%servedCacheSize].reply(), want.ring[n%servedCacheSize].rep; !sameReply(rep, wrep) {
				t.Fatalf("call %v keeps %+v, the model %+v", key, rep, wrep)
			}
		}
	}
	for step := 0; want.n <= 3*servedCacheSize+servedCacheSize/2; step++ {
		switch r := rng.IntN(100); {
		case r < 45 || len(running) == 0: // a new call
			from := rng.IntN(len(corrs))
			corrs[from] += 1 + uint64(rng.IntN(3))
			begin(servedKey{from: uint32(from + 1), corr: corrs[from]}, false)
		case r < 70: // a retransmission
			var key servedKey
			if rng.IntN(4) == 0 {
				key = running[rng.IntN(len(running))].key
			} else {
				key = seen[max(0, len(seen)-1-rng.IntN(servedCacheSize+servedCacheSize/2))]
			}
			begin(key, true)
		default: // a running call ends, most recent ones likelier
			i := len(running) - 1 - rng.IntN(min(len(running), 1+rng.IntN(64)))
			if rng.IntN(200) == 0 {
				i = 0 // and now and then one that may have outlived its slot
			}
			c := running[i]
			running = slices.Delete(running, i, i+1)
			var rep msg.InvokeRep
			switch o := rng.IntN(20); {
			case o < 3:
				rep.Status = msg.StatusMoved
			case o < 6:
				rep.Status = statusPassive
			case o < 8:
				rep = msg.InvokeRep{Status: msg.StatusError, Data: []byte("failed")}
			case o < 10:
				rep = msg.InvokeRep{Status: msg.StatusOK, Caps: caps}
			default:
				rep = msg.InvokeRep{Status: msg.StatusOK, Data: binary.BigEndian.AppendUint64(nil, c.n)}
			}
			if want.ring[c.n%servedCacheSize].n != c.n {
				met["a call settled after the ring came round"]++
			} else if rep.Status == msg.StatusMoved || rep.Status == statusPassive {
				met["a slot freed"]++
			}
			got.end(c.n, rep, nil)
			want.end(c.n, rep)
		}
		if step%512 == 0 {
			compare()
		}
	}
	compare()
	t.Logf("%d admissions: %v", want.n, met)
	if len(met) != 5 {
		t.Errorf("the sequence missed a case: %v", met)
	}
}
