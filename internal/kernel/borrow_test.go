package kernel

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/msg"
)

// lend returns env as a transport hands an invocation request over: its
// payload copied into a pooled frame of its own, Envelope.Frame.
func lend(env msg.Envelope) msg.Envelope {
	b := msg.FrameBuffer(len(env.Payload))
	copy(b.B, env.Payload)
	env.Payload, env.Frame = b.B, b
	return env
}

// request is the lent frame of a call from node 9 to node 2.
func request(req msg.InvokeReq, corr uint64) msg.Envelope {
	return lend(msg.Envelope{Kind: msg.KindInvokeReq, From: 9, To: 2, Corr: corr, Payload: req.Encode(nil)})
}

// TestReadBorrowsItsRequest: a read served for another node borrows its
// request, and the frame is freed once the reply is sent. A handler that
// keeps Call.Data breaks that rule, and a race build shows it: by the
// time a later call is served, the kept bytes are msg.Poison.
func TestReadBorrowsItsRequest(t *testing.T) {
	if !raceEnabled {
		t.Skip("only a race build overwrites a freed buffer")
	}
	s := newSys(t, 2)
	var kept []byte
	tm := NewType("stash")
	tm.Op(Operation{Name: "stash", Access: AccessRead, Handler: func(c *Call) {
		if kept == nil {
			kept = c.Data // the misuse: Data outlives the handler
		}
	}})
	mustRegister(t, s.reg, tm)
	cp, err := s.ks[2].Create("stash", nil)
	if err != nil {
		t.Fatal(err)
	}
	req := msg.InvokeReq{Target: cp, Operation: "stash", Data: []byte("borrowed"), TimeoutNanos: int64(5 * time.Second)}
	s.ks[2].serveInvoke(request(req, 1))
	s.ks[2].serveInvoke(request(req, 2)) // a later call
	if want := bytes.Repeat([]byte{msg.Poison}, len(kept)); !bytes.Equal(kept, want) {
		t.Errorf("a read's request still reads %q after its reply was sent; its frame was not freed", kept)
	}
}

// lingerType registers "linger", an operation of the given access
// whose handler, except for a request reading "later", waits for
// release and then sends a copy of its request on seen.
func lingerType(t *testing.T, s *sys, access Access, release <-chan struct{}, seen chan<- []byte) {
	tm := NewType("linger")
	tm.Op(Operation{Name: "linger", Access: access, Handler: func(c *Call) {
		if string(c.Data) == "later" {
			return
		}
		<-release
		seen <- bytes.Clone(c.Data)
	}})
	mustRegister(t, s.reg, tm)
}

// lingerOut serves a "linger" call to slow that times out after 10 ms,
// then a later call to later, whose frame may take the first one's
// buffer were it freed, and releases the first handler, which must still
// read its own request. A write holds its object exclusively, so its
// later call goes to another object.
func lingerOut(t *testing.T, k *Kernel, slow, later capability.Capability, release chan<- struct{}, seen <-chan []byte) {
	want := bytes.Repeat([]byte("request!"), 8)
	first := msg.InvokeReq{Target: slow, Operation: "linger", Data: want, TimeoutNanos: int64(10 * time.Millisecond)}
	k.serveInvoke(request(first, 1)) // answered StatusTimeout; the handler waits
	next := msg.InvokeReq{Target: later, Operation: "linger", Data: []byte("later"), TimeoutNanos: int64(5 * time.Second)}
	k.serveInvoke(request(next, 2))
	close(release)
	select {
	case got := <-seen:
		if !bytes.Equal(got, want) {
			t.Errorf("the timed-out handler read %q, want its request %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler never finished")
	}
}

// TestTimedOutReadKeepsItsRequest: a read whose invoker's time ran out is
// answered StatusTimeout while its handler may still run, so its request
// frame is not freed with the reply: the handler, released after a later
// call was served, still reads its own request.
func TestTimedOutReadKeepsItsRequest(t *testing.T) {
	s := newSys(t, 2)
	release, seen := make(chan struct{}), make(chan []byte, 1)
	lingerType(t, s, AccessRead, release, seen)
	cp, err := s.ks[2].Create("linger", nil)
	if err != nil {
		t.Fatal(err)
	}
	lingerOut(t, s.ks[2], cp, cp, release, seen)
}

// bounceOnce passivates cp's incarnation when the next call arrives, so
// that call's first round finishes without running the handler, and
// returns whether that happened.
func bounceOnce(t *testing.T, k *Kernel, cp capability.Capability) *atomic.Bool {
	var bounced atomic.Bool
	hookOnce(k, hookArrival, cp.ID(), func(o *Object) {
		if err := o.Passivate(); err != nil {
			t.Error(err)
		}
		bounced.Store(true)
	})
	return &bounced
}

// TestBouncedReadKeepsItsRequest: the same, for a read that first meets
// a passivated incarnation — a round that finishes without running the
// handler — and times out in the next, on the incarnation made from the
// record. The first round's outcome does not decide the frame's fate.
func TestBouncedReadKeepsItsRequest(t *testing.T) {
	s := newSys(t, 2)
	release, seen := make(chan struct{}), make(chan []byte, 1)
	lingerType(t, s, AccessRead, release, seen)
	cp, err := s.ks[2].Create("linger", nil)
	if err != nil {
		t.Fatal(err)
	}
	bounced := bounceOnce(t, s.ks[2], cp)
	lingerOut(t, s.ks[2], cp, cp, release, seen)
	if !bounced.Load() {
		t.Error("the read never met a passivated incarnation")
	}
}

// TestTimedOutWriteKeepsItsRequest: a write borrows its request as a read
// does, and one whose invoker gave up keeps it the same way — here after
// a first round that met a passivated incarnation, and whose at-most-once
// slot was freed with it. The handler, released after a later write was
// served, still reads its own request.
func TestTimedOutWriteKeepsItsRequest(t *testing.T) {
	s := newSys(t, 2)
	release, seen := make(chan struct{}), make(chan []byte, 1)
	lingerType(t, s, AccessWrite, release, seen)
	cp, err := s.ks[2].Create("linger", nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.ks[2].Create("linger", nil)
	if err != nil {
		t.Fatal(err)
	}
	bounced := bounceOnce(t, s.ks[2], cp)
	lingerOut(t, s.ks[2], cp, other, release, seen)
	if !bounced.Load() {
		t.Error("the write never met a passivated incarnation")
	}
}

// TestWriteBorrowsItsRequest: a write served for another node borrows
// its request as a read does, and the frame goes back to the pool once
// the reply is sent (in a race build, overwritten with msg.Poison). Its
// reply, "head"'s first 8 bytes of Call.Data, lies in that frame, and
// the at-most-once table keeps it for a retransmission: the table's
// reply does not lie in the frame, and the retransmission, after a later
// request whose frame may take the freed buffer was served, is answered
// with the first reply's bytes.
func TestWriteBorrowsItsRequest(t *testing.T) {
	r := newOnceRig(t)
	env := lend(r.frameData("head", 700, []byte("8 bytes!")))
	frame := env.Frame.B[:cap(env.Frame.B)]
	r.k.serveInvoke(env)
	if rep := r.answers(t, 1, 700)[0]; string(rep.Data) != "8 bytes!" {
		t.Fatalf("reply = %q", rep.Data)
	}
	if want := bytes.Repeat([]byte{msg.Poison}, len(frame)); raceEnabled && !bytes.Equal(frame, want) {
		t.Errorf("a write's request frame still reads %q after its reply was sent; it was not freed", frame[:16])
	}
	if reply := r.recorded(t, 700).Data; aliases(reply, frame) {
		t.Errorf("the table keeps the reply %q inside the request's %d-byte pooled frame", reply, len(frame))
	}
	r.k.serveInvoke(lend(r.frameData("peek", 701, bytes.Repeat([]byte{0xff}, 64))))
	r.answers(t, 1, 701)
	r.k.serveInvoke(lend(r.frameData("head", 700, []byte("8 bytes!")))) // the retransmission
	if rep := r.answers(t, 1, 700)[0]; string(rep.Data) != "8 bytes!" {
		t.Errorf("retransmission answered %q, want the first reply %q", rep.Data, "8 bytes!")
	}
}

// aliases reports whether a starts inside b.
func aliases(a, b []byte) bool {
	if len(a) == 0 {
		return false
	}
	for i := range b {
		if &b[i] == &a[0] {
			return true
		}
	}
	return false
}
