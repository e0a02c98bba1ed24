// Package gateway interfaces foreign (non-Eden) services to the
// system "through an object-like interface", as the paper specifies
// for special-purpose servers: "conventional time-sharing computers,
// high-resolution hard-copy output devices, gateways, and file servers
// are interfaced to the system through node machines", and "Eden users
// can invoke services on foreign machines through an 'object-like'
// interface, but the relationship will not be symmetric."
//
// A gateway type wraps a set of foreign operations — arbitrary Go
// functions standing for device drivers or protocol clients on the
// hosting node — as a normal Eden type: holders of a capability invoke
// the foreign service exactly like any object, with rights checking,
// classes and location transparency; the foreign side holds no
// capabilities and cannot invoke back (the paper's asymmetry).
//
// Gateways are deliberately stateless on the Eden side beyond a small
// statistics representation: the real state lives in the foreign
// service. Gateways therefore never checkpoint foreign state and are
// pinned to their hosting node (a gateway object refuses to move away
// from the hardware it fronts).
package gateway

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/segment"
)

// ForeignOp is one operation of the foreign service: it receives the
// request bytes and returns the response bytes, which become the
// invoker's reply as they are (kernel.Call.Return): the op must not
// modify them, or hand them to anyone else, afterwards. The request is
// the invocation's Call.Data, lent until the op returns: the op keeps
// nothing of it, and copies what it needs later (a foreign service that
// queues the request queues a copy). It may return the request itself,
// or a slice of it. Errors are reported to the invoker as application
// failures.
type ForeignOp func(data []byte) ([]byte, error)

// Spec describes one gateway type.
type Spec struct {
	// TypeName registers the gateway type (e.g. "gateway.lineprinter").
	TypeName string
	// Ops maps operation names to foreign handlers.
	Ops map[string]ForeignOp
	// Serialized, when true, puts every foreign operation in one
	// class with limit 1 — for foreign devices that cannot take
	// concurrent requests (a line printer, a half-duplex link).
	Serialized bool
	// Rights, when non-zero, is required on every capability invoking
	// the gateway's operations (beyond rights.Invoke).
	Rights rights.Set
}

// Register installs a gateway type into the registry. Each invocation
// of a gateway operation calls the foreign handler and counts traffic
// in the object's representation (the only Eden-side state). Handlers
// are plain Go functions and cannot live in a representation, so each
// operation's handler closure holds its own; the registry rejects a
// second type of the same name.
func Register(reg *kernel.Registry, spec Spec) error {
	if spec.TypeName == "" {
		return fmt.Errorf("gateway: empty type name")
	}
	if len(spec.Ops) == 0 {
		return fmt.Errorf("gateway: type %q has no operations", spec.TypeName)
	}

	tm := kernel.NewType(spec.TypeName)
	tm.Init = func(o *kernel.Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("requests", make([]byte, 8))
			return nil
		})
	}
	class := kernel.DefaultClass
	if spec.Serialized {
		class = "foreign"
		tm.Limit("foreign", 1)
	}

	names := make([]string, 0, len(spec.Ops))
	for name := range spec.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		op, typeName := spec.Ops[name], spec.TypeName
		tm.Op(kernel.Operation{
			Name:   name,
			Class:  class,
			Rights: spec.Rights,
			Handler: func(c *kernel.Call) {
				if op == nil {
					c.Fail("gateway: no foreign handler for %q", name)
					return
				}
				out, err := op(c.Data)
				if err != nil {
					c.Fail("gateway %s.%s: %v", typeName, name, err)
					return
				}
				_ = c.Self().Update(func(r *segment.Representation) error {
					b, _ := r.Data("requests")
					binary.BigEndian.PutUint64(b, binary.BigEndian.Uint64(b)+1)
					r.SetData("requests", b)
					return nil
				})
				c.Return(out)
			},
		})
	}
	tm.Op(kernel.Operation{
		Name:   "gateway-stats",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				b, _ := r.Data("requests")
				c.Return(b)
			})
		},
	})
	return reg.Register(tm)
}

// Requests decodes the reply of the "gateway-stats" operation.
func Requests(statsReply []byte) uint64 {
	if len(statsReply) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(statsReply)
}

// LinePrinterSpec is a ready-made gateway for the paper's
// "high-resolution hard-copy output device": a serialized printer that
// appends lines to the supplied sink. It demonstrates the intended
// shape of gateway definitions.
func LinePrinterSpec(typeName string, sink func(line string)) Spec {
	return Spec{
		TypeName:   typeName,
		Serialized: true,
		Ops: map[string]ForeignOp{
			"print": func(data []byte) ([]byte, error) {
				line := strings.TrimRight(string(data), "\n")
				if line == "" {
					return nil, fmt.Errorf("nothing to print")
				}
				sink(line)
				return []byte("ok"), nil
			},
		},
	}
}
