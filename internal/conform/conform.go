// Package conform checks, by running them, the loans an operation takes.
// Every call served for another node borrows its request frame until its
// reply is sent, and a read's ReturnBuffer reply is built inside the
// frame it leaves in; both frames are reused once the reply is gone, and
// a race build poisons them the moment they are freed (msg.Poison). So
// a handler keeps nothing of Call.Data. Reads invokes every AccessRead
// operation of a package's types from another node and holds each reply
// to the one a local call gives, which borrows nothing. Writes does the
// same for every other operation, on an object written from another node
// and its twin written locally, and holds the two objects' states to
// each other as well. A handler that keeps or hands on what it was lent
// shows up as a wrong reply, a wrong state or a race report.
package conform

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"eden"
	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/segment"
)

// A Row is one operation: where to send it, and what.
type Row struct {
	Type, Op string
	// Setup creates an object of Type on home, brings it into a state
	// the operation serves or changes (writing from client where it
	// writes, so that writes too take inbound frames), and returns its
	// capability. Writes calls it twice: for the object client writes to,
	// and for its twin, which home writes to locally.
	Setup func(home, client *eden.Node) (eden.Capability, error)
	// Caps, if set, makes the capability parameters every request of the
	// row carries, once, so that an object and its twin get the same.
	Caps func(home *eden.Node) (eden.CapabilityList, error)
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

// call is one request of one row.
type call struct {
	name   string
	target eden.Capability
	twin   eden.Capability // for Writes: the object home writes to locally
	op     string
	req    []byte
	caps   eden.CapabilityList
	first  result // the first remote reply, held across the later calls
}

// invoke sends c's request to target from n.
func (c *call) invoke(n *eden.Node, target eden.Capability) result {
	rep, err := n.Invoke(target, c.op, bytes.Clone(c.req), c.caps, &eden.InvokeOptions{Timeout: 10 * time.Second})
	if err != nil {
		return result{err: err.Error()}
	}
	return result{data: rep.Data, caps: rep.Caps}
}

// check fails t unless got, a remote reply, is want, the local one.
func (c *call) check(t *testing.T, got, want result, what string) {
	t.Helper()
	if !got.equal(want) {
		t.Errorf("%s: %s %v, local %v", c.name, what, got, want)
	}
}

// nodes starts a system with the types register installs (nil: the
// types every system starts with) and returns its two nodes, home and
// client. It fails t, and returns nils, unless keys name every operation
// of those types whose access is a read exactly when reads is, and
// nothing else.
func nodes(t *testing.T, register func(*eden.System) error, keys [][2]string, reads bool) (home, client *eden.Node) {
	t.Helper()
	kind := "write"
	if reads {
		kind = "read"
	}
	sys, err := eden.NewSystem(eden.SystemConfig{DefaultTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
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
	for _, key := range keys {
		listed[key] = true
	}
	for _, name := range sys.Registry().Names() {
		tm, err := sys.Registry().Lookup(name)
		if err != nil || before[name] {
			continue
		}
		for op, o := range tm.Operations {
			if (o.Access == kernel.AccessRead) != reads {
				continue
			}
			if !listed[[2]string{name, op}] {
				t.Errorf("%s operation %q of type %q has no row in the conformance table", kind, op, name)
			}
			delete(listed, [2]string{name, op})
		}
	}
	for key := range listed {
		t.Errorf("row %q of type %q names no %s operation of the types under test", key[1], key[0], kind)
	}
	if t.Failed() {
		return nil, nil
	}
	if home, err = sys.AddNode("home"); err == nil {
		client, err = sys.AddNode("client")
	}
	if err != nil {
		t.Fatal(err)
	}
	return home, client
}

// calls sets up every row's object, and its twin for Writes, and returns
// a call for each of its requests.
func calls(t *testing.T, home, client *eden.Node, rows []Row, twins bool) []*call {
	t.Helper()
	var out []*call
	for _, r := range rows {
		target, err := r.Setup(home, client)
		var twin eden.Capability
		if err == nil && twins {
			twin, err = r.Setup(home, client)
		}
		var caps eden.CapabilityList
		if err == nil && r.Caps != nil {
			caps, err = r.Caps(home)
		}
		if err != nil {
			t.Fatalf("%s.%s: setup: %v", r.Type, r.Op, err)
		}
		reqs := r.Requests
		if len(reqs) == 0 {
			reqs = [][]byte{nil}
		}
		for i, req := range reqs {
			name := fmt.Sprintf("%s.%s request %d (%q)", r.Type, r.Op, i, req)
			out = append(out, &call{name: name, target: target, twin: twin, op: r.Op, req: req, caps: caps})
		}
	}
	return out
}

// keys are the rows' type and operation names.
func keys(rows []Row) [][2]string {
	out := make([][2]string, len(rows))
	for i, r := range rows {
		out[i] = [2]string{r.Type, r.Op}
	}
	return out
}

// Reads fails t unless rows name every AccessRead operation of the types
// register installs on a system (nil: the types every system starts
// with) and nothing else, and every row's remote replies equal its local
// ones: the first, that first reply again after every row was called
// three more times, and those later ones.
func Reads(t *testing.T, register func(*eden.System) error, rows []Row) {
	t.Helper()
	home, client := nodes(t, register, keys(rows), true)
	if home == nil {
		return
	}
	cs := calls(t, home, client, rows, false)
	want := make([]result, len(cs))
	for i, c := range cs {
		c.first = c.invoke(client, c.target)
		want[i] = c.invoke(home, c.target)
		c.check(t, c.first, want[i], "remote reply")
	}
	for round := 1; round <= 3; round++ {
		for i, c := range cs {
			c.check(t, c.invoke(client, c.target), want[i], fmt.Sprintf("round %d: remote reply", round))
		}
	}
	for i, c := range cs {
		c.check(t, c.first, want[i], "after later calls, the first remote reply reads")
		c.check(t, c.invoke(home, c.target), want[i], "after later calls, a local call answers")
	}
}

// Writes fails t unless rows name every operation of the types register
// installs on a system (nil: the types every system starts with) that is
// not AccessRead, and nothing else, and every row's object, written from
// another node, answers as its twin written locally does and ends in the
// twin's state: after every row's requests were sent once, and again
// after each was sent three more times, which reuses the first calls'
// frames. The first remote reply must read the same after those calls.
func Writes(t *testing.T, register func(*eden.System) error, rows []Row) {
	t.Helper()
	home, client := nodes(t, register, keys(rows), false)
	if home == nil {
		return
	}
	cs := calls(t, home, client, rows, true)
	want := make([]result, len(cs))
	for i, c := range cs {
		c.first = c.invoke(client, c.target)
		want[i] = c.invoke(home, c.twin)
		c.check(t, c.first, want[i], "remote reply")
	}
	sameStates(t, home, cs, "after one call each")
	for round := 1; round <= 3; round++ {
		for _, c := range cs {
			c.check(t, c.invoke(client, c.target), c.invoke(home, c.twin), fmt.Sprintf("round %d: remote reply", round))
		}
	}
	sameStates(t, home, cs, "after later calls")
	for i, c := range cs {
		c.check(t, c.first, want[i], "after later calls, the first remote reply reads")
	}
}

// sameStates fails t unless each call's object holds its twin's state,
// within a second: a behavior may still be at work on either.
func sameStates(t *testing.T, home *eden.Node, cs []*call, when string) {
	t.Helper()
	for i, c := range cs {
		if i > 0 && cs[i-1].target == c.target {
			continue // a row's later request: its object is already checked
		}
		var got, want string
		for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
			got, want = state(t, home, c.target, -1), state(t, home, c.twin, -1)
			if got == want || time.Now().After(deadline) {
				break
			}
		}
		if got != want {
			t.Errorf("%s, %s: the object written from another node holds %s, its twin written locally %s",
				c.name, when, state(t, home, c.target, 24), state(t, home, c.twin, 24))
		}
	}
}

// state renders target's representation, as home holds it: each
// segment's name, and its data (the first max bytes; all for max < 0) or
// how many capabilities it holds. Which objects those name is no part of
// the state compared: a row's Setup makes the ones its object and the
// twin's refer to, and a handler is lent no capability.
func state(t *testing.T, home *eden.Node, target eden.Capability, max int) string {
	t.Helper()
	o, err := home.Object(target)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	o.View(func(r *segment.Representation) {
		for i, name := range r.Names() {
			if i > 0 {
				b.WriteString(", ")
			}
			if data, err := r.Data(name); err == nil {
				if max >= 0 && len(data) > max {
					data = data[:max]
				}
				fmt.Fprintf(&b, "%s=%q", name, data)
			} else if caps, err := r.Caps(name); err == nil {
				fmt.Fprintf(&b, "%s=%d caps", name, len(caps))
			}
		}
	})
	return "{" + b.String() + "}"
}
