// Package accesspurity exercises the accesspurity analyzer: handlers
// registered read-only must not mutate or leak the representation;
// shared/write handlers and non-representation locals stay silent.
package accesspurity

import (
	"eden/internal/kernel"
	"eden/internal/segment"
)

// leaked is the escape target: storing the representation pointer here
// lets it outlive the read lock.
var leaked *segment.Representation

func register(tm *kernel.TypeManager) {
	// A read-only handler taking the write path.
	tm.Op(kernel.Operation{
		Name:     "bad-update",
		ReadOnly: true,
		Handler: func(c *kernel.Call) {
			_ = c.Self().Update(func(r *segment.Representation) error { // want "calls (*kernel.Object).Update"
				return nil
			})
		},
	})

	// A read-only handler mutating through the view's representation.
	tm.Op(kernel.Operation{
		Name:   "bad-setdata",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				r.SetData("x", c.Data) // want "calls (*segment.Representation).SetData"
			})
		},
	})

	// A read-only handler leaking the representation out of the lock.
	tm.Op(kernel.Operation{
		Name:   "bad-leak",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				leaked = r // want "stores r in \"leaked\""
			})
		},
	})

	// ReadOnly and AccessWrite contradict; no handler analysis needed.
	tm.Op(kernel.Operation{
		Name:     "confused",
		ReadOnly: true,
		Access:   kernel.AccessWrite, // want "ReadOnly: true but Access: AccessWrite"
		Handler:  func(c *kernel.Call) {},
	})

	// The mutation hides one call deep in a package-local helper.
	tm.Op(kernel.Operation{
		Name:   "bad-helper",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			drain(c) // want "calls drain"
		},
	})

	// A nominally-read handler that checkpoints. Replica serving makes
	// this declaration load-bearing across the mesh: an AccessRead op
	// is eligible to run on a checksite's frozen checkpoint shadow,
	// where a checkpoint would snapshot stale state over the wire. The
	// kernel's replica gate refuses it at runtime; the analyzer refuses
	// it at review time.
	tm.Op(kernel.Operation{
		Name:   "bad-checkpointing-read",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			_ = c.Self().Checkpoint() // want "calls (*kernel.Object).Checkpoint"
		},
	})

	// A named (not literal) handler is resolved and summarized.
	tm.Op(kernel.Operation{
		Name:    "bad-named",
		Access:  kernel.AccessRead,
		Handler: impureNamed,
	})

	// AccessShared (the zero value): the monitor machinery sanctions
	// mutation, nothing fires.
	tm.Op(kernel.Operation{
		Name: "shared-ok",
		Handler: func(c *kernel.Call) {
			_ = c.Self().Update(func(r *segment.Representation) error { return nil })
		},
	})

	// A declared writer writes; nothing fires.
	tm.Op(kernel.Operation{
		Name:   "write-ok",
		Access: kernel.AccessWrite,
		Handler: func(c *kernel.Call) {
			_ = c.Self().Update(func(r *segment.Representation) error { return nil })
		},
	})

	// A scratch representation local to the handler is not the object's
	// representation; mutating it is fine.
	tm.Op(kernel.Operation{
		Name:     "local-ok",
		ReadOnly: true,
		Handler: func(c *kernel.Call) {
			var scratch segment.Representation
			scratch.SetData("tmp", c.Data)
			c.Return(nil)
		},
	})

	// A genuinely pure read: copies out under the view, replies after.
	tm.Op(kernel.Operation{
		Name:     "read-ok",
		ReadOnly: true,
		Handler: func(c *kernel.Call) {
			var out []byte
			c.Self().View(func(r *segment.Representation) {
				b, _ := r.Data("x")
				out = append(out, b...)
			})
			c.Return(out)
		},
	})

	// Copying into a buffer the handler sized is a pure read: the
	// buffer is the handler's, not the representation's.
	tm.Op(kernel.Operation{
		Name:     "copydata-ok",
		ReadOnly: true,
		Handler: func(c *kernel.Call) {
			var out []byte
			c.Self().View(func(r *segment.Representation) {
				n, _ := r.CopyData(nil, "x")
				out = make([]byte, n)
				_, _ = r.CopyData(out, "x")
			})
			c.Return(out)
		},
	})

	// Representation methods absent from the pure table fail closed:
	// moving the clean mark is a mutation even from under a view.
	tm.Op(kernel.Operation{
		Name:     "bad-markclean",
		ReadOnly: true,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				r.MarkClean(r.Stamp()) // want "calls (*segment.Representation).MarkClean"
			})
		},
	})

	// A reasoned suppression absorbs the finding.
	tm.Op(kernel.Operation{
		Name:     "suppressed",
		ReadOnly: true,
		Handler: func(c *kernel.Call) {
			//edenvet:ignore accesspurity fixture: pins that a reasoned suppression absorbs the finding
			_ = c.Self().Update(func(r *segment.Representation) error { return nil })
		},
	})
}

// drain takes the write path one call below its registration.
func drain(c *kernel.Call) {
	_ = c.Self().Update(func(r *segment.Representation) error { return nil })
}

// impureNamed mutates from a named handler function.
func impureNamed(c *kernel.Call) {
	c.Self().View(func(r *segment.Representation) {
		r.Delete("seg") // want "calls (*segment.Representation).Delete"
	})
}
