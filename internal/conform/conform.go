// Package conform checks, by running them, the loans a read operation
// takes. A read served for another node borrows its request frame until
// its reply is sent, and a ReturnBuffer reply is built inside the frame
// it leaves in; both frames are reused once the reply is gone, and a
// race build poisons them the moment they are freed (msg.Poison). Reads
// invokes every AccessRead operation of a package's types from another
// node and holds each reply to the one a local call gives, which borrows
// nothing, so a handler that keeps or hands on what it was lent shows up
// as a wrong reply or as a race report.
package conform

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"eden"
	"eden/internal/capability"
	"eden/internal/kernel"
)

// A Row is one read operation: where to send it, and what to ask.
type Row struct {
	Type, Op string
	// Setup creates an object of Type on home, brings it into a state
	// the read serves (writing from client where it writes, so that
	// writes too take inbound frames), and returns its capability.
	Setup func(home, client *eden.Node) (eden.Capability, error)
	// Requests are sent in turn; none sends one empty request.
	Requests [][]byte
}

// result is one invocation's outcome, compared as a whole.
type result struct {
	data []byte
	caps capability.List
	err  string
}

func (r result) equal(o result) bool {
	return bytes.Equal(r.data, o.data) && slices.Equal(r.caps, o.caps) && r.err == o.err
}

func (r result) String() string {
	if r.err != "" {
		return "error " + r.err
	}
	if len(r.data) > 40 {
		return fmt.Sprintf("data %q… (%d bytes) caps %v", r.data[:40], len(r.data), r.caps)
	}
	return fmt.Sprintf("data %q caps %v", r.data, r.caps)
}

// call is one request of one row, with the local reply it must match.
type call struct {
	name   string
	target eden.Capability
	op     string
	req    []byte
	want   result
	first  result // the first remote reply, held across the later calls
}

// Reads fails t unless rows name every AccessRead operation of the types
// register installs on a system (nil: the types every system starts
// with) and nothing else, and every row's remote replies equal its local
// ones: the first, that first reply again after every row was called
// three more times, and those later ones.
func Reads(t *testing.T, register func(*eden.System) error, rows []Row) {
	t.Helper()
	sys, err := eden.NewSystem(eden.SystemConfig{DefaultTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	before := make(map[string]bool)
	if register != nil {
		for _, name := range sys.Registry().Names() {
			before[name] = true
		}
		if err := register(sys); err != nil {
			t.Fatal(err)
		}
	}
	listed := make(map[[2]string]bool)
	for _, r := range rows {
		listed[[2]string{r.Type, r.Op}] = true
	}
	for _, name := range sys.Registry().Names() {
		tm, err := sys.Registry().Lookup(name)
		if err != nil || before[name] {
			continue
		}
		for op, o := range tm.Operations {
			if o.Access != kernel.AccessRead {
				continue
			}
			if !listed[[2]string{name, op}] {
				t.Errorf("read operation %q of type %q has no row in the conformance table", op, name)
			}
			delete(listed, [2]string{name, op})
		}
	}
	for key := range listed {
		t.Errorf("row %q of type %q names no read operation of the types under test", key[1], key[0])
	}
	if t.Failed() {
		return
	}

	home, err := sys.AddNode("home")
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddNode("client")
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(n *eden.Node, c *call) result {
		rep, err := n.Invoke(c.target, c.op, bytes.Clone(c.req), nil, &eden.InvokeOptions{Timeout: 10 * time.Second})
		if err != nil {
			return result{err: err.Error()}
		}
		return result{data: rep.Data, caps: rep.Caps}
	}
	check := func(c *call, got result, what string) {
		if !got.equal(c.want) {
			t.Errorf("%s: %s %v, local %v", c.name, what, got, c.want)
		}
	}
	var calls []*call
	for _, r := range rows {
		target, err := r.Setup(home, client)
		if err != nil {
			t.Fatalf("%s.%s: setup: %v", r.Type, r.Op, err)
		}
		reqs := r.Requests
		if len(reqs) == 0 {
			reqs = [][]byte{nil}
		}
		for i, req := range reqs {
			c := &call{name: fmt.Sprintf("%s.%s request %d (%q)", r.Type, r.Op, i, req), target: target, op: r.Op, req: req}
			c.first = invoke(client, c)
			c.want = invoke(home, c)
			check(c, c.first, "remote reply")
			calls = append(calls, c)
		}
	}
	for round := 1; round <= 3; round++ {
		for _, c := range calls {
			check(c, invoke(client, c), fmt.Sprintf("round %d: remote reply", round))
		}
	}
	for _, c := range calls {
		check(c, c.first, "after later calls, the first remote reply reads")
		check(c, invoke(home, c), "after later calls, a local call answers")
	}
}
