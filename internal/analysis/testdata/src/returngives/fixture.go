// Package returngives exercises the returngives analyzer: a slice given
// to Call.Return is the reply itself, so the handler must not write it
// afterwards, and must not give away package-level state.
package returngives

import (
	"encoding/binary"

	"eden/internal/kernel"
	"eden/internal/segment"
)

// shared is one buffer every call would see.
var shared = make([]byte, 8)

// table holds one buffer per slot, all package-level.
var table [4][]byte

// held and cache are package-level places a lent buffer must not reach.
var (
	held  struct{ keep []byte }
	cache = map[string][]byte{}
)

func register(tm *kernel.TypeManager) {
	tm.Op(kernel.Operation{Name: "index-after", Handler: func(c *kernel.Call) {
		b := make([]byte, 8)
		c.Return(b)
		b[0] = 1 // want "writes b[0] after giving it to Return"
	}})

	tm.Op(kernel.Operation{Name: "copy-after", Handler: func(c *kernel.Call) {
		b := make([]byte, 8)
		c.Return(b[:4])
		copy(b, c.Data) // want "copies into b after giving it to Return"
	}})

	tm.Op(kernel.Operation{Name: "append-after", Handler: func(c *kernel.Call) {
		b := make([]byte, 8)
		c.Return(b)
		b = append(b[:0], c.Data...) // want "appends onto b[:0]"
		_ = b
	}})

	tm.Op(kernel.Operation{Name: "put-after", Handler: func(c *kernel.Call) {
		var out [8]byte
		c.Return(out[:])
		binary.BigEndian.PutUint64(out[:], 7) // want "PutUint64 writes out[:]"
	}})

	tm.Op(kernel.Operation{Name: "array-after", Handler: func(c *kernel.Call) {
		var out [8]byte
		c.Return(out[:])
		out = [8]byte{1} // want "overwrites out"
	}})

	tm.Op(kernel.Operation{Name: "alias-after", Handler: func(c *kernel.Call) {
		var out [8]byte
		view := out[2:]
		c.Return(out[:])
		view[0] = 1 // want "writes view[0]"
	}})

	tm.Op(kernel.Operation{Name: "data-after", Handler: func(c *kernel.Call) {
		c.Return(c.Data)
		c.Data[0]++ // want "writes c.Data[0]"
	}})

	tm.Op(kernel.Operation{Name: "view-after", Handler: func(c *kernel.Call) {
		var v []byte
		c.Self().View(func(r *segment.Representation) {
			v, _ = r.Data("v")
			c.Return(v)
			return
		})
		v[0] = 1 // want "writes v[0]"
	}})

	tm.Op(kernel.Operation{Name: "package-level", Handler: func(c *kernel.Call) {
		c.Return(shared) // want "gives package-level shared to Return"
	}})

	tm.Op(kernel.Operation{Name: "package-level-element", Handler: func(c *kernel.Call) {
		c.Return(table[1][:2]) // want "gives package-level table to Return"
	}})

	tm.Op(kernel.Operation{Name: "slice-of-package-level", Handler: func(c *kernel.Call) {
		b := shared[:4]
		c.Return(b) // want "gives b, a slice of package-level shared"
	}})

	tm.Op(kernel.Operation{Name: "named", Handler: named})
	tm.Op(kernel.Operation{Name: "named-lends", Handler: namedLends})

	// A buffer ReturnBuffer lends must not outlive the handler.
	var last []byte
	tm.Op(kernel.Operation{Name: "lent-field", Handler: func(c *kernel.Call) {
		out := c.ReturnBuffer(8)
		held.keep = out // want "stores out in held.keep, which outlives the call: a buffer ReturnBuffer lent"
	}})

	tm.Op(kernel.Operation{Name: "lent-map", Handler: func(c *kernel.Call) {
		out := c.ReturnBuffer(16)
		cache[c.Operation] = out[8:] // want "stores out[8:] in cache[c.Operation]"
	}})

	tm.Op(kernel.Operation{Name: "lent-enclosing", Handler: func(c *kernel.Call) {
		view := c.ReturnBuffer(8)[2:]
		last = view // want "stores view in \"last\""
	}})
	tm.Op(kernel.Operation{Name: "last", Handler: func(c *kernel.Call) { c.Return(append([]byte(nil), last...)) }})

	ch := make(chan []byte, 1)
	tm.Op(kernel.Operation{Name: "lent-send", Handler: func(c *kernel.Call) {
		out := c.ReturnBuffer(8)
		ch <- out // want "sends out on a channel"
	}})

	tm.Op(kernel.Operation{Name: "lent-send-direct", Handler: func(c *kernel.Call) {
		ch <- c.ReturnBuffer(8) // want "sends c.ReturnBuffer(8) on a channel"
	}})

	tm.Op(kernel.Operation{Name: "lent-subprocess", Handler: func(c *kernel.Call) {
		out := c.ReturnBuffer(8)
		<-c.Subprocess(func() {
			out[0] = 1 // want "captures out in a Subprocess"
			out[1] = 2
		})
	}})

	tm.Op(kernel.Operation{Name: "lent-behavior", Handler: func(c *kernel.Call) {
		var out []byte
		c.Self().View(func(r *segment.Representation) {
			out = c.ReturnBuffer(8)
		})
		c.Self().SpawnBehavior(func(stop <-chan struct{}) {
			<-stop
			out[0] = 1 // want "captures out in a behavior"
		})
	}})

	tm.Op(kernel.Operation{Name: "lent-go", Handler: func(c *kernel.Call) {
		view := c.ReturnBuffer(8)[4:]
		go func() {
			_ = view // want "view captured by a goroutine"
		}()
	}})

	// A helper is judged by what it does with the buffer it is handed.
	tm.Op(kernel.Operation{Name: "lent-helper-subprocess", Handler: func(c *kernel.Call) {
		out := c.ReturnBuffer(8)
		repair(c, out) // want "calls repair, which captures reply in a Subprocess"
	}})

	tm.Op(kernel.Operation{Name: "lent-helper-store", Handler: func(c *kernel.Call) {
		keep(c.ReturnBuffer(8)[2:]) // want "calls keep, which stores b in held.keep"
	}})

	tm.Op(kernel.Operation{Name: "lent-async", Handler: func(c *kernel.Call) {
		out := c.ReturnBuffer(8)
		c.Kernel().InvokeAsync(c.Self().SelfCapability(0), "x", out, nil, nil) // want "passes out to InvokeAsync"
	}})

	tm.Op(kernel.Operation{Name: "lent-invoke", Handler: func(c *kernel.Call) {
		out := c.ReturnBuffer(8)
		_, _ = c.Kernel().Invoke(c.Self().SelfCapability(0), "x", out[:4], nil, nil) // want "passes out[:4] to Invoke,"
	}})

	tm.Op(kernel.Operation{Name: "lent-helper-fills", Handler: func(c *kernel.Call) {
		fill(c.ReturnBuffer(8))
	}})

	// What a lent buffer allows: filling it, inside callbacks too.
	tm.Op(kernel.Operation{Name: "lent-filled", Handler: func(c *kernel.Call) {
		var out []byte
		c.Self().View(func(r *segment.Representation) {
			out = c.ReturnBuffer(8 + len(c.Data))
			binary.BigEndian.PutUint64(out, 7)
			copy(out[8:], c.Data)
		})
		out[0] = 1
	}})

	tm.Op(kernel.Operation{Name: "lent-subprocess-elsewhere", Handler: func(c *kernel.Call) {
		out := c.ReturnBuffer(8)
		data := c.Data
		<-c.Subprocess(func() { ch <- data })
		out[0] = 1
	}})

	// What the rule allows.
	tm.Op(kernel.Operation{Name: "local-array", Handler: func(c *kernel.Call) {
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], 7)
		c.Return(out[:])
	}})

	tm.Op(kernel.Operation{Name: "request", Handler: func(c *kernel.Call) {
		c.Return(c.Data)
	}})

	tm.Op(kernel.Operation{Name: "fresh-append", Handler: func(c *kernel.Call) {
		c.Return(append([]byte(nil), shared...))
	}})

	tm.Op(kernel.Operation{Name: "built-then-given", Handler: func(c *kernel.Call) {
		b := make([]byte, 0, 16)
		b = append(b, c.Data...)
		b[0] = 1
		c.Return(b)
	}})

	tm.Op(kernel.Operation{Name: "rebound", Handler: func(c *kernel.Call) {
		b := make([]byte, 8)
		c.Return(b)
		b = make([]byte, 8)
		b[0] = 1
	}})

	tm.Op(kernel.Operation{Name: "early-exit", Handler: func(c *kernel.Call) {
		b := make([]byte, 8)
		if len(c.Data) == 0 {
			c.Return(b)
			return
		}
		b[0] = c.Data[0]
		c.Return(b)
	}})

	tm.Op(kernel.Operation{Name: "other-slice", Handler: func(c *kernel.Call) {
		a, b := make([]byte, 8), make([]byte, 8)
		c.Return(a)
		b[0] = 1
	}})
}

// named is a handler declared as a function; the same rule holds.
func named(c *kernel.Call) {
	out := make([]byte, 8)
	c.Return(out)
	copy(out[4:], "late") // want "copies into out[4:]"
}

// namedLends is a declared handler that hands what ReturnBuffer lent it
// to a helper, from inside a View callback.
func namedLends(c *kernel.Call) {
	c.Self().View(func(r *segment.Representation) {
		out := c.ReturnBuffer(8)
		repair(c, out) // want "calls repair, which captures reply in a Subprocess"
	})
}

// repair hands reply to a Subprocess, which may run after the handler
// that lent it has returned.
func repair(c *kernel.Call, reply []byte) {
	c.Subprocess(func() {
		_ = reply[0]
	})
}

// keep stores what it is given where it outlives the call.
func keep(b []byte) {
	held.keep = b
}

// fill writes what it is given, and keeps nothing of it.
func fill(b []byte) {
	binary.BigEndian.PutUint64(b, 7)
	b[0] = 1
}

// notAHandler takes no *kernel.Call: it owns its buffers.
func notAHandler() []byte {
	b := make([]byte, 8)
	b[0] = 1
	return b
}
