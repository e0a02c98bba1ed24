package kernel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"eden/internal/msg"
	"eden/internal/rights"
)

// TestReturnKeepsTheHandlersSlice pins "Return gives": the slice a
// handler passes to Return is the reply, not a copy of it. On a local
// call the invoker gets that very array; from another node it gets the
// same bytes, encoded from it; and a retransmitted call to an operation
// that is not AccessRead is answered with the same bytes again.
func TestReturnKeepsTheHandlersSlice(t *testing.T) {
	t.Run("a local call's reply is the handler's slice", func(t *testing.T) {
		s := newSys(t, 1)
		var sent []byte
		tm := NewType("giver")
		tm.Op(Operation{Name: "give", Access: AccessRead, Handler: func(c *Call) {
			sent = []byte("the handler's own bytes")
			c.Return(sent)
		}})
		mustRegister(t, s.reg, tm)
		cp, err := s.ks[1].Create("giver", nil)
		if err != nil {
			t.Fatal(err)
		}
		rep := mustInvoke(t, s.ks[1], cp, "give", nil)
		if len(rep.Data) == 0 || &rep.Data[0] != &sent[0] {
			t.Errorf("Reply.Data %q is a copy of the slice the handler returned", rep.Data)
		}
	})

	t.Run("a remote call's reply is what the handler returned", func(t *testing.T) {
		s := newSys(t, 1, 2)
		tm := NewType("giver")
		tm.Op(Operation{Name: "give", Access: AccessWrite, Handler: func(c *Call) {
			c.Return(append([]byte("kept: "), c.Data...))
		}})
		mustRegister(t, s.reg, tm)
		cp, err := s.ks[2].Create("giver", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep := mustInvoke(t, s.ks[1], cp, "give", []byte("request")); string(rep.Data) != "kept: request" {
			t.Errorf("reply = %q", rep.Data)
		}
	})

	t.Run("a replayed reply is the first one's bytes", func(t *testing.T) {
		r := newOnceRig(t)
		env := r.frameData("head", 500, []byte("replayed"))
		r.k.serveInvoke(env)
		r.k.serveInvoke(env)
		reps := r.answers(t, 2, 500)
		if reps[0].Status != msg.StatusOK || string(reps[0].Data) != "replayed" {
			t.Fatalf("first reply = %+v", reps[0])
		}
		if reps[1].Status != msg.StatusOK || !bytes.Equal(reps[1].Data, reps[0].Data) {
			t.Errorf("replay = %q, first = %q", reps[1].Data, reps[0].Data)
		}
	})
}

// TestReturnBuffer pins Call.ReturnBuffer: the bytes it lends are the
// reply, built in place. A read served for another node is written into
// the frame it is sent in; anything the kernel keeps — a state-changing
// call's reply, which the at-most-once table replays, or a local call's
// Reply.Data — is an allocation of its own. A reply that is not the
// lent bytes alone (a Fail, capabilities, a later Return) is encoded as
// before.
func TestReturnBuffer(t *testing.T) {
	t.Run("a replayed reply built in place is the first one's bytes", func(t *testing.T) {
		r := newOnceRig(t)
		env := r.frameData("build", 600, []byte("built"))
		r.k.serveInvoke(env)
		reps := r.answers(t, 1, 600)
		// Another call's reply in between: were the first one's bytes in a
		// pooled frame, this one would be written over them.
		r.k.serveInvoke(r.frameData("build", 601, []byte("other")))
		r.answers(t, 1, 601)
		r.k.serveInvoke(env)
		reps = append(reps, r.answers(t, 1, 600)...)
		want := append(u64(1), "built"...)
		if reps[0].Status != msg.StatusOK || !bytes.Equal(reps[0].Data, want) {
			t.Fatalf("first reply = %v %q, want %q", reps[0].Status, reps[0].Data, want)
		}
		if reps[1].Status != msg.StatusOK || !bytes.Equal(reps[1].Data, reps[0].Data) {
			t.Errorf("replay = %q, first = %q", reps[1].Data, reps[0].Data)
		}
		if n := r.builds.Load(); n != 2 {
			t.Errorf("build executed %d times for two calls", n)
		}
	})

	s := newSys(t, 1, 2)
	tm := NewType("lender")
	tm.Op(Operation{Name: "lend", Access: AccessRead, Handler: func(c *Call) {
		copy(c.ReturnBuffer(len(c.Data)), c.Data)
	}})
	tm.Op(Operation{Name: "lend-fail", Access: AccessRead, Handler: func(c *Call) {
		copy(c.ReturnBuffer(8), "lent")
		c.Fail("refused after lending")
	}})
	tm.Op(Operation{Name: "lend-caps", Access: AccessRead, Handler: func(c *Call) {
		copy(c.ReturnBuffer(4), "caps")
		c.ReturnCaps(c.Self().SelfCapability(rights.Invoke))
	}})
	tm.Op(Operation{Name: "lend-replaced", Access: AccessRead, Handler: func(c *Call) {
		copy(c.ReturnBuffer(8), "lent")
		c.Return([]byte("given"))
	}})
	mustRegister(t, s.reg, tm)
	cp, err := s.ks[2].Create("lender", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []uint32{1, 2} {
		k := s.ks[from]
		where := map[uint32]string{1: "remote", 2: "local"}[from]
		if rep := mustInvoke(t, k, cp, "lend", []byte("filled in place")); string(rep.Data) != "filled in place" {
			t.Errorf("%s lend = %q", where, rep.Data)
		}
		if _, err := k.Invoke(cp, "lend-fail", nil, nil, nil); !errors.Is(err, ErrInvocationFailed) || !strings.Contains(err.Error(), "refused after lending") {
			t.Errorf("%s lend-fail: %v", where, err)
		}
		if rep := mustInvoke(t, k, cp, "lend-caps", nil); string(rep.Data) != "caps" || len(rep.Caps) != 1 || rep.Caps[0].ID() != cp.ID() {
			t.Errorf("%s lend-caps = %q with %d caps", where, rep.Data, len(rep.Caps))
		}
		if rep := mustInvoke(t, k, cp, "lend-replaced", nil); string(rep.Data) != "given" {
			t.Errorf("%s lend-replaced = %q", where, rep.Data)
		}
	}
}
