package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/msg"
	"eden/internal/telemetry"
)

// collector gathers frames delivered to a handler.
type collector struct {
	mu     sync.Mutex
	frames []msg.Envelope
	notify chan struct{}
}

func newCollector() *collector {
	return &collector{notify: make(chan struct{}, 1024)}
}

func (c *collector) handle(env msg.Envelope) {
	c.mu.Lock()
	c.frames = append(c.frames, env)
	c.mu.Unlock()
	c.notify <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) []msg.Envelope {
	t.Helper()
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		if len(c.frames) >= n {
			out := append([]msg.Envelope(nil), c.frames...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-deadline:
			c.mu.Lock()
			got := len(c.frames)
			c.mu.Unlock()
			t.Fatalf("timed out waiting for %d frames, have %d", n, got)
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func meshPair(t *testing.T) (*Mesh, *Endpoint, *Endpoint, *collector, *collector) {
	t.Helper()
	m := NewMesh(1)
	t.Cleanup(func() { m.Close() })
	a, err := m.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := newCollector(), newCollector()
	a.SetHandler(ca.handle)
	b.SetHandler(cb.handle)
	return m, a, b, ca, cb
}

func TestMeshUnicast(t *testing.T) {
	_, a, _, _, cb := meshPair(t)
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2, Corr: 77, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, time.Second)
	if got[0].From != 1 || got[0].Corr != 77 || string(got[0].Payload) != "hi" {
		t.Errorf("frame = %+v", got[0])
	}
}

func TestMeshLoopback(t *testing.T) {
	_, a, _, ca, _ := meshPair(t)
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 1}); err != nil {
		t.Fatal(err)
	}
	got := ca.wait(t, 1, time.Second)
	if got[0].From != 1 || got[0].To != 1 {
		t.Errorf("loopback frame = %+v", got[0])
	}
}

func TestMeshBroadcast(t *testing.T) {
	m, a, _, ca, cb := meshPair(t)
	c3raw, err := m.Attach(3)
	if err != nil {
		t.Fatal(err)
	}
	c3 := newCollector()
	c3raw.SetHandler(c3.handle)
	if err := a.Send(msg.Envelope{Kind: msg.KindLocateReq, To: msg.Broadcast}); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, time.Second)
	c3.wait(t, 1, time.Second)
	time.Sleep(10 * time.Millisecond)
	if ca.count() != 0 {
		t.Error("broadcast echoed back to sender")
	}
}

func TestMeshOrderPreservedZeroLatency(t *testing.T) {
	_, a, _, _, cb := meshPair(t)
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2, Corr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := cb.wait(t, n, 2*time.Second)
	for i, env := range got {
		if env.Corr != uint64(i) {
			t.Fatalf("frame %d has corr %d: reordering on a zero-latency link", i, env.Corr)
		}
	}
}

func TestMeshLatency(t *testing.T) {
	m, a, _, _, cb := meshPair(t)
	const lat = 30 * time.Millisecond
	m.SetLatency(func(from, to uint32) time.Duration { return lat })
	start := time.Now()
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2}); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("delivered after %v, want ≥ %v", elapsed, lat)
	}
}

func TestMeshLossDropsEverything(t *testing.T) {
	m, a, _, _, cb := meshPair(t)
	m.SetLoss(1.0)
	for i := 0; i < 20; i++ {
		_ = a.Send(msg.Envelope{Kind: msg.KindHello, To: 2})
	}
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 0 {
		t.Errorf("delivered %d frames at loss=1", cb.count())
	}
	if m.Stats().Dropped != 20 {
		t.Errorf("Dropped = %d, want 20", m.Stats().Dropped)
	}
}

func TestMeshPartitionAndHeal(t *testing.T) {
	m, a, _, _, cb := meshPair(t)
	m.Partition(1, 2)
	_ = a.Send(msg.Envelope{Kind: msg.KindHello, To: 2})
	time.Sleep(10 * time.Millisecond)
	if cb.count() != 0 {
		t.Error("frame crossed a partition")
	}
	m.Heal(1, 2)
	_ = a.Send(msg.Envelope{Kind: msg.KindHello, To: 2})
	cb.wait(t, 1, time.Second)
}

func TestMeshDetachSimulatesCrash(t *testing.T) {
	m, a, b, _, cb := meshPair(t)
	m.Detach(2)
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2}); err != nil {
		t.Fatalf("send to crashed node must not error (datagram semantics): %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if cb.count() != 0 {
		t.Error("crashed node received a frame")
	}
	if err := b.Send(msg.Envelope{Kind: msg.KindHello, To: 1}); err == nil {
		t.Error("send from a detached endpoint succeeded")
	}
	peers := a.Peers()
	if len(peers) != 0 {
		t.Errorf("Peers after crash = %v", peers)
	}
}

func TestMeshStats(t *testing.T) {
	m, a, _, _, cb := meshPair(t)
	_ = a.Send(msg.Envelope{Kind: msg.KindHello, To: 2, Payload: make([]byte, 100)})
	cb.wait(t, 1, time.Second)
	st := m.Stats()
	if st.Frames != 1 || st.Bytes != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMeshDuplicateAttach(t *testing.T) {
	m := NewMesh(1)
	defer m.Close()
	if _, err := m.Attach(5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(5); err == nil {
		t.Error("duplicate attach succeeded")
	}
	if _, err := m.Attach(msg.Broadcast); err == nil {
		t.Error("attach with broadcast number succeeded")
	}
}

func TestMeshCloseIdempotent(t *testing.T) {
	m := NewMesh(1)
	ep, _ := m.Attach(1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(2); err == nil {
		t.Error("attach after close succeeded")
	}
	if err := ep.Send(msg.Envelope{To: 1}); err == nil {
		t.Error("send after close succeeded")
	}
}

func TestMeshConcurrentSenders(t *testing.T) {
	m := NewMesh(1)
	defer m.Close()
	dst, _ := m.Attach(100)
	var received atomic.Int64
	dst.SetHandler(func(msg.Envelope) { received.Add(1) })
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := m.Attach(uint32(s + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = ep.Send(msg.Envelope{Kind: msg.KindHello, To: 100})
			}
		}(ep)
	}
	wg.Wait()
	deadline := time.After(2 * time.Second)
	for received.Load() < senders*per {
		select {
		case <-deadline:
			t.Fatalf("received %d of %d", received.Load(), senders*per)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// ---- TCP transport ----

func tcpPair(t *testing.T) (*TCP, *TCP, *collector, *collector) {
	t.Helper()
	a, err := NewTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	ca, cb := newCollector(), newCollector()
	a.SetHandler(ca.handle)
	b.SetHandler(cb.handle)
	return a, b, ca, cb
}

func TestTCPUnicast(t *testing.T) {
	a, _, _, cb := tcpPair(t)
	if err := a.Send(msg.Envelope{Kind: msg.KindInvokeReq, To: 2, Corr: 9, Payload: []byte("req")}); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 2*time.Second)
	if got[0].From != 1 || got[0].Corr != 9 || string(got[0].Payload) != "req" {
		t.Errorf("frame = %+v", got[0])
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b, ca, cb := tcpPair(t)
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2}); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, 2*time.Second)
	if err := b.Send(msg.Envelope{Kind: msg.KindHello, To: 1}); err != nil {
		t.Fatal(err)
	}
	ca.wait(t, 1, 2*time.Second)
}

func TestTCPLargePayload(t *testing.T) {
	a, _, _, cb := tcpPair(t)
	big := make([]byte, 3<<20+7) // the reader's buffer grows twice past readChunk on the way in
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Send(msg.Envelope{Kind: msg.KindShip, To: 2, Payload: big}); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 5*time.Second)
	if len(got[0].Payload) != len(big) {
		t.Fatalf("payload length = %d", len(got[0].Payload))
	}
	for i := 0; i < len(big); i += 4097 {
		if got[0].Payload[i] != big[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestTCPManyFramesInOrder(t *testing.T) {
	a, _, _, cb := tcpPair(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2, Corr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := cb.wait(t, n, 5*time.Second)
	for i := range got {
		if got[i].Corr != uint64(i) {
			t.Fatalf("frame %d has corr %d: TCP stream reordered", i, got[i].Corr)
		}
	}
}

func TestTCPBroadcast(t *testing.T) {
	a, b, _, cb := tcpPair(t)
	c, err := NewTCP(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc := newCollector()
	c.SetHandler(cc.handle)
	a.AddPeer(3, c.Addr())
	_ = b
	if err := a.Send(msg.Envelope{Kind: msg.KindLocateReq, To: msg.Broadcast}); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, 2*time.Second)
	cc.wait(t, 1, 2*time.Second)
}

func TestTCPNoRoute(t *testing.T) {
	a, _, _, _ := tcpPair(t)
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 42}); err == nil {
		t.Error("send to unknown peer succeeded")
	}
}

func TestTCPLoopback(t *testing.T) {
	a, _, ca, _ := tcpPair(t)
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 1}); err != nil {
		t.Fatal(err)
	}
	ca.wait(t, 1, time.Second)
}

func TestTCPSendAfterClose(t *testing.T) {
	a, _, _, _ := tcpPair(t)
	a.Close()
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2}); err == nil {
		t.Error("send after close succeeded")
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestTCPConcurrentSendersNoInterleave(t *testing.T) {
	a, _, _, cb := tcpPair(t)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payload := make([]byte, 3000)
			for i := range payload {
				payload[i] = byte(s)
			}
			for i := 0; i < per; i++ {
				if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2, Payload: payload}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	got := cb.wait(t, senders*per, 5*time.Second)
	for i, env := range got {
		first := env.Payload[0]
		for j, c := range env.Payload {
			if c != first {
				t.Fatalf("frame %d interleaved at byte %d", i, j)
			}
		}
	}
}

// TestTCPQueueOverflowAccounting wedges a peer's writer (the remote
// end accepts but never reads, so a flush eventually blocks in the
// kernel's socket buffer) and verifies the backpressure policy: a
// unicast send on the full queue blocks out its enqueue deadline, then
// fails with ErrQueueFull — and every such drop is visible in
// telemetry.
func TestTCPQueueOverflowAccounting(t *testing.T) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	go func() {
		for {
			conn, err := sink.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accepted, never read
		}
	}()

	a, err := NewTCPWithConfig(1, "127.0.0.1:0", Config{
		QueueDepth:     2,
		EnqueueTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	a.AddPeer(2, sink.Addr().String())
	reg := telemetry.New()
	a.SetTelemetry(reg)

	payload := make([]byte, 64<<10)
	var overflow error
	for i := 0; i < 500; i++ {
		if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2, Payload: payload}); err != nil {
			overflow = err
			break
		}
	}
	if !errors.Is(overflow, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull after wedging the writer, got %v", overflow)
	}
	snap := reg.Snapshot()
	if snap.Counters[metricQueueDrops] < 1 {
		t.Errorf("queue drops = %d, want >= 1", snap.Counters[metricQueueDrops])
	}
	if snap.Counters[metricDropped] < 1 {
		t.Errorf("dropped = %d, want >= 1", snap.Counters[metricDropped])
	}
	drops := snap.Counters[metricQueueDrops]

	// Broadcast copies follow datagram semantics on the same full
	// queue: no error, immediate drop, counter bumped.
	if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: msg.Broadcast, Payload: payload}); err != nil {
		t.Fatalf("broadcast on full queue returned %v, want nil", err)
	}
	snap = reg.Snapshot()
	if snap.Counters[metricQueueDrops] != drops+1 {
		t.Errorf("broadcast drop not counted: queue drops = %d, want %d", snap.Counters[metricQueueDrops], drops+1)
	}
}

// TestTCPBatchHistogram verifies the writer's coalescing telemetry:
// every delivered frame is accounted to exactly one flush batch, so
// the batch histogram's sum equals the frame count.
func TestTCPBatchHistogram(t *testing.T) {
	a, _, _, cb := tcpPair(t)
	reg := telemetry.New()
	a.SetTelemetry(reg)
	const n = 60
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				if err := a.Send(msg.Envelope{Kind: msg.KindHello, To: 2, Payload: []byte("x")}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cb.wait(t, n, 5*time.Second)
	// flush records a batch only once its Write has returned, and the
	// receiver may hold every frame before that: wait, boundedly, for the
	// last batch's sample.
	var snap telemetry.Snapshot
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		snap = reg.Snapshot()
		if snap.Counters[metricSendFrames] >= n || time.Now().After(deadline) {
			break
		}
	}
	h, ok := snap.Histograms[metricBatchFrames]
	if !ok || h.Count < 1 {
		t.Fatalf("batch histogram empty: %+v", h)
	}
	if h.SumNanos != n {
		t.Errorf("batch histogram sum = %d frames, want %d", h.SumNanos, n)
	}
	if h.Count > n {
		t.Errorf("batch count %d exceeds frames sent %d", h.Count, n)
	}
	if snap.Counters[metricSendFrames] != n {
		t.Errorf("send frames = %d, want %d", snap.Counters[metricSendFrames], n)
	}
}
