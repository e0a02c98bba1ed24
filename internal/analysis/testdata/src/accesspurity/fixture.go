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

// kept and requests are where a read's borrowed request must not go.
var (
	kept     []byte
	requests = make(chan []byte, 1)
)

func register(tm *kernel.TypeManager) {
	// A read-only handler taking the write path.
	tm.Op(kernel.Operation{
		Name:   "bad-update",
		Access: kernel.AccessRead,
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
		Name:   "local-ok",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			var scratch segment.Representation
			scratch.SetData("tmp", c.Data)
			c.Return(nil)
		},
	})

	// A genuinely pure read: copies out under the view, replies after.
	tm.Op(kernel.Operation{
		Name:   "read-ok",
		Access: kernel.AccessRead,
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
		Name:   "copydata-ok",
		Access: kernel.AccessRead,
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
		Name:   "bad-markclean",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				r.MarkClean(r.Stamp()) // want "calls (*segment.Representation).MarkClean"
			})
		},
	})

	// A read served for another node borrows its request: Call.Data must
	// not outlive the handler.
	tm.Op(kernel.Operation{
		Name:   "bad-keep-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			kept = c.Data[8:] // want "stores c.Data[8:] in \"kept\", which outlives the call; a read served for another node borrows its request"
		},
	})

	tm.Op(kernel.Operation{
		Name:   "bad-send-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			data := c.Data
			requests <- data // want "sends data on a channel"
		},
	})

	tm.Op(kernel.Operation{
		Name:   "bad-go-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			go func() {
				_ = c.Data // want "c.Data captured by a goroutine; a read served for another node borrows its request"
			}()
		},
	})

	tm.Op(kernel.Operation{
		Name:   "bad-subprocess-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			<-c.Subprocess(func() {
				_ = len(c.Data) // want "captures c.Data in a Subprocess"
			})
		},
	})

	tm.Op(kernel.Operation{
		Name:   "bad-behavior-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			data := c.Data
			c.Self().SpawnBehavior(func(stop <-chan struct{}) {
				<-stop
				_ = data[0] // want "captures data in a behavior"
			})
		},
	})

	tm.Op(kernel.Operation{
		Name:   "bad-async-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Kernel().InvokeAsync(c.Self().SelfCapability(0), "x", c.Data, nil, nil) // want "passes c.Data to InvokeAsync"
		},
	})

	// A synchronous invocation of an object on this node gets the bytes
	// uncopied as its Call.Data: a write may keep them, and any call may
	// run on past its timeout.
	tm.Op(kernel.Operation{
		Name:   "bad-invoke-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			_, _ = c.Kernel().Invoke(c.Self().SelfCapability(0), "x", c.Data, nil, nil) // want "passes c.Data to Invoke,"
		},
	})

	tm.Op(kernel.Operation{
		Name:   "bad-self-invoke-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			_, _ = c.Self().Invoke(c.Self().SelfCapability(0), "x", c.Data[1:], nil, nil) // want "passes c.Data[1:] to Invoke,"
		},
	})

	tm.Op(kernel.Operation{
		Name:   "bad-helper-request",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			remember(c) // want "calls remember, which stores c.Data in \"kept\""
		},
	})

	// What a borrowed request allows: reading it, writing it, copying
	// it out, handing it to a helper that does these or a copy of it to
	// an invocation, and returning it (the reply is encoded before the
	// frame is freed).
	tm.Op(kernel.Operation{
		Name:   "request-ok",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			own := append([]byte(nil), c.Data...)
			kept = own
			c.Data[0] = 1
			sum(c.Data)
			_, _ = c.Kernel().Invoke(c.Self().SelfCapability(0), "x", own, nil, nil)
			c.Return(c.Data)
		},
	})

	// A writer's request is not borrowed: it may keep it.
	tm.Op(kernel.Operation{
		Name:   "write-keeps-request",
		Access: kernel.AccessWrite,
		Handler: func(c *kernel.Call) {
			kept = c.Data
		},
	})

	// A reasoned suppression absorbs the finding.
	tm.Op(kernel.Operation{
		Name:   "suppressed",
		Access: kernel.AccessRead,
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

// remember keeps its call's request.
func remember(c *kernel.Call) {
	kept = c.Data
}

// sum reads what it is given, and keeps nothing of it.
func sum(b []byte) (n int) {
	for _, x := range b {
		n += int(x)
	}
	return n
}

// impureNamed mutates from a named handler function.
func impureNamed(c *kernel.Call) {
	c.Self().View(func(r *segment.Representation) {
		r.Delete("seg") // want "calls (*segment.Representation).Delete"
	})
}
