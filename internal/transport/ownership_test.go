package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"eden/internal/msg"
)

// TestSendBorrowsPayload is the ownership rule on every delivery path of
// both transports: Send borrows env.Payload only until it returns, and
// the handler owns what it is given. The sender encodes every frame into
// one pooled buffer, overwrites it the moment Send returns and frees it;
// the receiver keeps the payloads it was handed and reads them only
// after the last Send. Any path that passes the sender's slice through
// by reference delivers the overwritten bytes.
func TestSendBorrowsPayload(t *testing.T) {
	const frames = 64
	for _, tc := range []struct {
		name string
		// wire returns the sending transport, the destination to send to and
		// the collectors that must each receive every frame.
		wire func(t *testing.T) (Transport, uint32, []*collector)
	}{
		{"mesh/peer", func(t *testing.T) (Transport, uint32, []*collector) {
			_, a, _, _, cb := meshPair(t)
			return a, 2, []*collector{cb}
		}},
		{"mesh/peer-delayed", func(t *testing.T) (Transport, uint32, []*collector) {
			m, a, _, _, cb := meshPair(t)
			m.SetLatency(func(_, _ uint32) time.Duration { return time.Millisecond })
			return a, 2, []*collector{cb}
		}},
		{"mesh/loopback", func(t *testing.T) (Transport, uint32, []*collector) {
			_, a, _, ca, _ := meshPair(t)
			return a, 1, []*collector{ca}
		}},
		{"mesh/broadcast", func(t *testing.T) (Transport, uint32, []*collector) {
			m, a, _, _, cb := meshPair(t)
			c, err := m.Attach(3)
			if err != nil {
				t.Fatal(err)
			}
			cc := newCollector()
			c.SetHandler(cc.handle)
			return a, msg.Broadcast, []*collector{cb, cc}
		}},
		{"tcp/peer", func(t *testing.T) (Transport, uint32, []*collector) {
			a, _, _, cb := tcpPair(t)
			return a, 2, []*collector{cb}
		}},
		{"tcp/loopback", func(t *testing.T) (Transport, uint32, []*collector) {
			a, _, ca, _ := tcpPair(t)
			return a, 1, []*collector{ca}
		}},
		{"tcp/broadcast", func(t *testing.T) (Transport, uint32, []*collector) {
			a, _, _, cb := tcpPair(t)
			return a, msg.Broadcast, []*collector{cb}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, to, receivers := tc.wire(t)
			body := func(i int) string { return fmt.Sprintf("frame %03d of the borrowed payload", i) }
			for i := 0; i < frames; i++ {
				b := msg.GetBuffer()
				b.B = append(b.B, body(i)...)
				if err := tr.Send(msg.Envelope{Kind: msg.KindInvokeReq, To: to, Corr: uint64(i), Payload: b.B}); err != nil {
					t.Fatal(err)
				}
				for j := range b.B {
					b.B[j] = 'X'
				}
				b.Free()
			}
			for _, c := range receivers {
				seen := make(map[uint64]bool)
				for _, env := range c.wait(t, frames, 5*time.Second) {
					if got, want := string(env.Payload), body(int(env.Corr)); got != want {
						t.Fatalf("frame %d arrived as %q, want %q", env.Corr, got, want)
					}
					seen[env.Corr] = true
				}
				if len(seen) != frames {
					t.Errorf("received %d distinct frames of %d", len(seen), frames)
				}
			}
		})
	}
}

// TestReadLoopBelievesOnlyWhatArrived: a length prefix is a claim, and a
// reader that allocates the claimed size before a body byte arrives
// hands any connection a 64 MiB allocation per four bytes sent. The
// reader starts at readChunk and grows as the body comes in.
func TestReadLoopBelievesOnlyWhatArrived(t *testing.T) {
	a, err := NewTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	before := allocated()
	// The largest frame the reader accepts, and then nothing.
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, maxFrame)); err != nil {
		t.Fatal(err)
	}
	// The reader has seen the prefix once its first chunk shows up in the
	// allocation total.
	deadline := time.Now().Add(5 * time.Second)
	for allocated()-before < readChunk {
		if time.Now().After(deadline) {
			t.Fatal("the reader never allocated a frame buffer")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // anything more it was going to allocate, it has by now
	if grew := allocated() - before; grew > 4*readChunk {
		t.Errorf("a %d MiB length prefix with no body made the node allocate %d MiB", maxFrame>>20, grew>>20)
	}
}
