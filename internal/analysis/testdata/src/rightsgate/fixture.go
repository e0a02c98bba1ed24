// Package kernel exercises the rightsgate analyzer: a function that
// hands an invocation to a Handler, or queues it at an object's
// scheduler, must reach a rights check first.
// The package is named kernel because the analyzer only audits the
// kernel's coordinator code.
package kernel

// Handler runs one invocation.
type Handler func(int)

// Set is a rights bit-set.
type Set uint32

// Has reports whether every bit of r is present.
func (s Set) Has(r Set) bool { return s&r == r }

type operation struct {
	h Handler
}

// dispatchChecked verifies rights on the way to the handler and does
// not fire.
func dispatchChecked(have, need Set, op operation) {
	if !have.Has(need) {
		return
	}
	op.h(1)
}

func dispatchUnchecked(op operation) {
	op.h(2) // want "without a preceding rights check"
}

// Object is an active object; arrive queues a call at its scheduler.
type Object struct{ q []int }

func (o *Object) arrive(c int) { o.q = append(o.q, c) }

// arriveChecked verifies rights before queueing and does not fire.
func arriveChecked(have, need Set, o *Object) {
	if !have.Has(need) {
		return
	}
	o.arrive(3)
}

func arriveUnchecked(o *Object) {
	o.arrive(4) // want "queues a call at the object's scheduler without a preceding rights check"
}
