//go:build race

package msg

// bufferState marks a freed buffer, so that a second Free is caught.
type bufferState struct{ free bool }

// freed checks that b was not freed before and overwrites all of its
// capacity with Poison: a reader that kept a slice of a freed buffer
// then reads bytes that are plainly not its own, at once, instead of
// another frame's bytes some time later.
func (b *Buffer) freed() {
	if b.free {
		panic("msg: buffer freed twice")
	}
	b.free = true
	all := b.B[:cap(b.B)]
	if len(all) == 0 {
		return
	}
	all[0] = Poison
	for n := 1; n < len(all); n *= 2 {
		copy(all[n:], all[:n]) // one instrumented copy per doubling, not one store per byte
	}
}

// reused marks a buffer taken from a pool as live again.
func (b *Buffer) reused() { b.free = false }
