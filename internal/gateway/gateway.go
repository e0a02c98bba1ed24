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
	"sync"

	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/segment"
)

// ForeignOp is one operation of the foreign service: it receives the
// request bytes and returns the response bytes, which become the
// invoker's reply as they are (kernel.Call.Return): the op must not
// modify them, or hand them to anyone else, afterwards. Errors are
// reported to the invoker as application failures.
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

// foreignOpsMu guards the registry of foreign handlers; handlers are
// plain Go functions and cannot live in a representation, so each
// gateway type keeps them here keyed by type name.
var (
	foreignOpsMu sync.RWMutex
	foreignOps   = make(map[string]map[string]ForeignOp)
)

// Register installs a gateway type into the registry. Each invocation
// of a gateway operation calls the foreign handler and counts traffic
// in the object's representation (the only Eden-side state).
func Register(reg *kernel.Registry, spec Spec) error {
	if spec.TypeName == "" {
		return fmt.Errorf("gateway: empty type name")
	}
	if len(spec.Ops) == 0 {
		return fmt.Errorf("gateway: type %q has no operations", spec.TypeName)
	}
	foreignOpsMu.Lock()
	if _, dup := foreignOps[spec.TypeName]; dup {
		foreignOpsMu.Unlock()
		return fmt.Errorf("gateway: type %q already registered", spec.TypeName)
	}
	ops := make(map[string]ForeignOp, len(spec.Ops))
	for name, op := range spec.Ops {
		ops[name] = op
	}
	foreignOps[spec.TypeName] = ops
	foreignOpsMu.Unlock()

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
		name := name
		typeName := spec.TypeName
		tm.Op(kernel.Operation{
			Name:   name,
			Class:  class,
			Rights: spec.Rights,
			Handler: func(c *kernel.Call) {
				foreignOpsMu.RLock()
				op := foreignOps[typeName][name]
				foreignOpsMu.RUnlock()
				if op == nil {
					c.Fail("gateway: foreign handler for %q gone", name)
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
		Name:     "gateway-stats",
		ReadOnly: true,
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

// Unregister removes a gateway type's foreign handlers (tests only;
// type managers themselves are immutable once registered).
func Unregister(typeName string) {
	foreignOpsMu.Lock()
	delete(foreignOps, typeName)
	foreignOpsMu.Unlock()
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
