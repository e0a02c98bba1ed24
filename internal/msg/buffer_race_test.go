//go:build race

package msg

import (
	"bytes"
	"testing"
)

// TestFreePoisons: in a race build a freed buffer reads msg.Poison, all
// of its capacity, so a reader that kept its bytes sees that at once.
func TestFreePoisons(t *testing.T) {
	for _, n := range []int{64, 4 << 10, 64 << 10, maxPooledBuffer + 1} {
		b := borrow(n)
		b.B = append(b.B, bytes.Repeat([]byte("x"), n)...)
		kept := b.B
		b.Free()
		if want := bytes.Repeat([]byte{Poison}, cap(kept)); !bytes.Equal(kept[:cap(kept)], want) {
			t.Errorf("a freed %d-byte buffer still holds what was written to it", n)
		}
	}
}

// TestFreeTwicePanics: in a race build a second Free of one buffer
// panics, pooled or not; a buffer taken from a pool again is live.
func TestFreeTwicePanics(t *testing.T) {
	for _, n := range []int{64, maxPooledBuffer + 1} {
		b := borrow(n)
		b.Free()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %d-byte buffer freed twice did not panic", n)
				}
			}()
			b.Free()
		}()
	}
	for range 8 {
		FrameBuffer(100).Free() // whatever the pool hands out again may be freed again
	}
}
