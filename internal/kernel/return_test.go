package kernel

import (
	"bytes"
	"testing"

	"eden/internal/msg"
)

// TestReturnKeepsTheHandlersSlice pins "Return gives": the slice a
// handler passes to Return is the reply, not a copy of it. On a local
// call the invoker gets that very array; from another node it gets the
// same bytes, encoded from it; and a retransmitted call to an operation
// that is not ReadOnly is answered with the same bytes again.
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
		env := r.frameData("keep", 500, []byte("replayed"))
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
