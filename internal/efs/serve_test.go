package efs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"eden/internal/kernel"
	"eden/internal/msg"
	"eden/internal/transport"
)

// replyTap is a node's transport with its inbound handler exposed and
// its invocation replies checked instead of sent: a test hands the node
// a request frame as a transport would and waits for the reply, with
// nothing but the serve on the path.
type replyTap struct {
	transport.Transport
	h     transport.Handler
	reply chan int // each reply's data length; -1 for a reply that is not OK
}

func (r *replyTap) SetHandler(h transport.Handler) {
	r.h = h
	r.Transport.SetHandler(h)
}

func (r *replyTap) Send(env msg.Envelope) error {
	if env.Kind != msg.KindInvokeRep {
		return r.Transport.Send(env)
	}
	n := -1
	if rep, err := msg.DecodeInvokeRep(env.Payload); err == nil && rep.Status == msg.StatusOK {
		n = len(rep.Data)
	}
	r.reply <- n
	return nil
}

// tappedSys is nodes 1 and 2 with node 2's transport tapped: serve
// hands node 2 a request frame, a new call each time, and returns its
// reply's data length.
func tappedSys(t *testing.T) (map[uint32]*kernel.Kernel, func(req []byte) int) {
	tap := &replyTap{reply: make(chan int, 1)}
	ks := testSysWith(t, 2*time.Second, func(tr transport.Transport) transport.Transport {
		if tr.Node() != 2 {
			return tr
		}
		tap.Transport = tr
		return tap
	}, 1, 2)
	var corr uint64
	return ks, func(req []byte) int {
		frame := msg.FrameBuffer(len(req))
		copy(frame.B, req)
		corr++
		tap.h(msg.Envelope{Kind: msg.KindInvokeReq, From: 1, To: 2, Corr: corr, Payload: frame.B, Frame: frame})
		return <-tap.reply
	}
}

// TestServedReadAllocCeiling pins what serving a read of a 1 KiB
// version for another node allocates on the serving node: nothing. The
// request arrives in a pooled frame, as a transport lends it
// (Envelope.Frame), which the kernel frees once the reply is sent, and
// opRead writes the reply into the pooled frame it is sent in
// (Call.ReturnBuffer). It was 2 while opRead built an exact-size reply
// that serveInvoke then encoded, and 1 while the request frame was an
// allocation the handler owned.
func TestServedReadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; the call frame is reallocated at random")
	}
	const ceiling = 0
	ks, serve := tappedSys(t)
	c := NewClient(ks[2], Optimistic)
	f, err := c.CreateFile()
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	if err := tx.Write(f, 0, bytes.Repeat([]byte("v"), 1<<10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	req := msg.InvokeReq{Target: f, Operation: "read", TimeoutNanos: int64(2 * time.Second)}.Encode(nil)
	read := func() {
		if n := serve(req); n != 8+1<<10 {
			t.Fatalf("served read replied %d bytes of data, want %d", n, 8+1<<10)
		}
	}
	read() // the processor and the pools are warm
	if got := testing.AllocsPerRun(1000, read); got > ceiling {
		t.Errorf("serving a 1 KiB read for another node: %.1f allocs, ceiling %d", got, ceiling)
	}
}

// TestServedCommitAllocCeiling pins what serving an optimistic one-file
// commit (commit-one) of 64 B for another node allocates on the serving
// node: 3 objects — the new version's copy of the content (SetData), the
// meta segment's, and the 8-byte reply. The request arrives in a pooled
// frame, which the kernel frees once the reply is sent; the handler
// borrows the content from it, as a read borrows its request. It was 4
// while a write got its own copy of its request data. The checkpoint
// lends its encoding to the store, the version's name is shared (made
// before the count, as the first file at that version makes it), and
// the representation's segment table and the store's log grow by
// doubling, which AllocsPerRun's truncated mean does not count.
func TestServedCommitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; the call frame is reallocated at random")
	}
	const ceiling = 3
	ks, serve := tappedSys(t)
	f, err := NewClient(ks[2], Optimistic).CreateFile()
	if err != nil {
		t.Fatal(err)
	}
	// proposal: tidLen(4) = 0, no tid | base(8) | content
	prop := append(make([]byte, 12, 12+64), bytes.Repeat([]byte("c"), 64)...)
	req := make([]byte, 0, 256)
	var base uint64
	commit := func() {
		binary.BigEndian.PutUint64(prop[4:], base)
		req = msg.InvokeReq{Target: f, Operation: "commit-one", Data: prop, TimeoutNanos: int64(2 * time.Second)}.Encode(req[:0])
		if n := serve(req); n != 8 {
			t.Fatalf("served commit-one of version %d replied %d bytes of data, want 8", base+1, n)
		}
		base++
	}
	commit() // the processor and the pools are warm
	for v := uint64(0); v < 256; v += versionBlock {
		newVerSeg(v) // and the shared version names made, once per process
	}
	got := testing.AllocsPerRun(200, commit)
	t.Logf("%.0f allocs per served commit-one", got)
	if got > ceiling {
		t.Errorf("serving a 64-byte commit-one for another node: %.1f allocs, ceiling %d", got, ceiling)
	}
}

// TestMeshServedReadAllocCeiling pins a remote read of a 1 KiB version
// over the in-process mesh, both nodes counted: 1 object, the mesh's
// copy of the reply, which the invoker's Reply.Data and the value Read
// returns lie in. The mesh copies the request into a pooled frame, which
// the serving kernel frees once the reply is sent; it was 2 while that
// copy was an allocation the handler owned. AllocsPerRun truncates its
// mean, so the pools' refills after a collection do not count.
func TestMeshServedReadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; the call frame is reallocated at random")
	}
	const ceiling = 1
	ks := testSys(t, 1, 2)
	home := NewClient(ks[2], Optimistic)
	f, err := home.CreateFile()
	if err != nil {
		t.Fatal(err)
	}
	tx := home.Begin()
	if err := tx.Write(f, 0, bytes.Repeat([]byte("v"), 1<<10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c := NewClient(ks[1], Optimistic)
	read := func() {
		if got, _, err := c.Read(f); err != nil || len(got) != 1<<10 {
			t.Fatalf("read %d bytes: %v", len(got), err)
		}
	}
	read() // the processors and the pools are warm
	if got := testing.AllocsPerRun(1000, read); got > ceiling {
		t.Errorf("a remote 1 KiB read over the mesh: %.1f allocs, ceiling %d", got, ceiling)
	}
}

// TestConcurrentRemoteReadsGetTheirOwnBytes: readers on one node read
// files homed on another at once, each committing new versions of its
// own file between reads, so the serving node writes many replies into
// pooled frames and frees them while others are in flight. Every read
// returns exactly the version its reader committed last, of its own
// file. Files of 64 B to 64 KiB reach both buffer classes and the
// unpooled frame beyond them.
func TestConcurrentRemoteReadsGetTheirOwnBytes(t *testing.T) {
	ks := testSys(t, 1, 2)
	home := NewClient(ks[2], Optimistic)
	c := NewClient(ks[1], Optimistic)
	sizes := []int{64, 1 << 10, 4 << 10, 5 << 10, 64 << 10, 70 << 10}
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, len(sizes))
	for g, size := range sizes {
		f, err := home.CreateFile()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			value := make([]byte, size)
			for ver := uint64(1); ver <= rounds; ver++ {
				for i := range value {
					value[i] = byte(g*31 + int(ver)*7 + i)
				}
				binary.BigEndian.PutUint64(value, uint64(g)<<32|ver)
				tx := c.Begin()
				if err := tx.Write(f, ver-1, value); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				for range 3 {
					got, v, err := c.Read(f)
					if err != nil {
						errs <- err
						return
					}
					if v != ver || !bytes.Equal(got, value) {
						errs <- fmt.Errorf("reader %d: read version %d (%d bytes), want its own version %d (%d bytes)", g, v, len(got), ver, len(value))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
