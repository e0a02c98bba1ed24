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

// notAHandler takes no *kernel.Call: it owns its buffers.
func notAHandler() []byte {
	b := make([]byte, 8)
	b[0] = 1
	return b
}
