package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/msg"
	"eden/internal/telemetry"
)

// TCP is a Transport that carries frames over TCP connections, one
// connection per peer, dialed lazily. It lets a real multi-process
// Eden system run across machines: each node process listens on one
// address and is told its peers' addresses (cmd/edennode wires this
// up).
//
// Sending is pipelined: Send encodes the frame into a pooled buffer
// (the one copy of the caller's payload, which it is then done with)
// and enqueues it on the peer's bounded queue; a per-peer writer
// goroutine drains the queue and flushes every pending frame in one
// net.Buffers writev, so N concurrent invokers cost ~one syscall per
// flush instead of one per frame. The writer owns the outbound
// connection outright — no write lock exists — and dials with a
// bounded timeout plus jittered exponential backoff, so a dead peer
// neither stalls senders nor triggers dial storms. The tuning is the
// package's Default* constants.
//
// Framing: each frame on a connection is a 4-byte big-endian length
// followed by that many bytes of msg.EncodeEnvelope output.
type TCP struct {
	node uint32
	ln   net.Listener
	done chan struct{}

	// A peer's queue depth and a unicast's enqueue bound: the defaults,
	// which a test in this package may lower before the first AddPeer.
	queueDepth     int
	enqueueTimeout time.Duration

	mu       sync.Mutex
	peers    map[uint32]*tcpPeer
	accepted map[net.Conn]struct{}
	closed   bool

	hmu     sync.RWMutex
	handler Handler

	tel atomic.Pointer[transportTel]

	wg sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// maxFrame bounds a single frame (envelope + payload) on the wire; a
// peer announcing more is treated as corrupt and disconnected.
const maxFrame = 64 << 20

// readChunk bounds what a length prefix alone can make a reader
// allocate: a frame's buffer starts no larger than this and grows only
// as body bytes arrive.
const readChunk = 1 << 20

// maxBatchFrames bounds one writev flush, so a deep queue cannot grow
// the iovec without bound; the remainder goes in the next flush.
const maxBatchFrames = 128

// ErrQueueFull reports a unicast frame dropped because the peer's send
// queue stayed full past the enqueue deadline.
var ErrQueueFull = errors.New("transport: send queue full")

// tcpPeer is one registered peer: its address, its bounded send queue,
// and the outbound connection its writer goroutine owns. addr, conn
// and the backoff fields are guarded by the transport's mu; the queue
// is owned by the channel.
type tcpPeer struct {
	node uint32
	addr string
	q    chan outFrame

	conn      net.Conn      // established outbound connection, nil when down
	backoff   time.Duration // current redial backoff, 0 after a success
	downUntil time.Time     // no dial attempts before this instant
}

// outFrame is one encoded frame in flight through a send queue. The
// buffer holds the 4-byte length prefix plus the envelope; payload
// carries the envelope's payload size for byte accounting after the
// envelope itself is no longer in hand.
type outFrame struct {
	buf     *msg.Buffer
	payload int
}

// NewTCP starts a TCP transport for the given node, listening on addr
// (e.g. "127.0.0.1:0"). The chosen address is available via Addr.
func NewTCP(node uint32, addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := &TCP{
		node:           node,
		ln:             ln,
		done:           make(chan struct{}),
		queueDepth:     DefaultQueueDepth,
		enqueueTimeout: DefaultEnqueueTimeout,
		peers:          make(map[uint32]*tcpPeer),
		accepted:       make(map[net.Conn]struct{}),
	}
	t.tel.Store(&transportTel{})
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// SetTelemetry routes the transport's traffic counters (send/recv
// frames and bytes, batch sizes, flush latency, queue depth and drops,
// send errors, redials) into reg. Safe to call while traffic flows;
// nil disables.
func (t *TCP) SetTelemetry(reg *telemetry.Registry) {
	t.tel.Store(newTransportTel(reg))
}

// Addr returns the transport's listening address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Node returns the local node number.
func (t *TCP) Node() uint32 { return t.node }

// SetHandler installs the inbound frame handler.
func (t *TCP) SetHandler(h Handler) {
	t.hmu.Lock()
	t.handler = h
	t.hmu.Unlock()
}

// AddPeer registers the address of a peer node and starts its writer.
// Re-adding a known peer updates the address (picked up on the next
// dial).
func (t *TCP) AddPeer(node uint32, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if p, ok := t.peers[node]; ok {
		p.addr = addr
		return
	}
	p := &tcpPeer{node: node, addr: addr, q: make(chan outFrame, t.queueDepth)}
	t.peers[node] = p
	t.wg.Add(1)
	go t.writeLoop(p)
}

// Peers lists the registered peer node numbers.
func (t *TCP) Peers() []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint32, 0, len(t.peers))
	for n := range t.peers {
		out = append(out, n)
	}
	return out
}

// Send queues one frame for transmission. Unicast sends block for up
// to DefaultEnqueueTimeout when the peer's queue is full, then fail
// with ErrQueueFull; broadcast copies are dropped instantly on a full
// queue (both drops are counted in telemetry). A nil return means
// queued, not delivered — datagram semantics, like the Mesh.
func (t *TCP) Send(env msg.Envelope) error {
	env.From = t.node
	if env.To == msg.Broadcast {
		for _, p := range t.peerList() {
			unicast := env
			unicast.To = p.node
			_ = t.enqueue(p, unicast, false) // best effort per peer
		}
		return nil
	}
	if env.To == t.node {
		t.dispatch(owned(env))
		return nil
	}
	p, err := t.peer(env.To)
	if err != nil {
		t.tel.Load().sendErrors.Inc()
		return fmt.Errorf("transport: send to node %d: %w", env.To, err)
	}
	return t.enqueue(p, env, true)
}

// peer resolves a registered peer, reporting closed/no-route.
func (t *TCP) peer(node uint32) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	p, ok := t.peers[node]
	if !ok {
		// Bare sentinel: Send wraps with the node number, so adding it
		// here too would print it twice.
		return nil, ErrNoRoute
	}
	return p, nil
}

// peerList snapshots the registered peers for broadcast fan-out.
func (t *TCP) peerList() []*tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		out = append(out, p)
	}
	return out
}

// wireFrame is an envelope as it goes on the wire: length prefix, then
// the envelope.
type wireFrame struct{ env msg.Envelope }

// Size is the frame's length, prefix included.
func (f wireFrame) Size() int { return 4 + f.env.Size() }

// Encode appends the frame to dst.
func (f wireFrame) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.env.Size()))
	return msg.EncodeEnvelope(dst, f.env)
}

// encodeFrame renders env into a pooled buffer of the smallest class
// that holds the whole frame.
func encodeFrame(env msg.Envelope) outFrame {
	return outFrame{buf: msg.Encode(wireFrame{env}), payload: len(env.Payload)}
}

// enqueue puts one frame on the peer's queue, applying the
// backpressure policy: block with deadline for unicast, drop instantly
// for broadcast copies.
func (t *TCP) enqueue(p *tcpPeer, env msg.Envelope, block bool) error {
	f := encodeFrame(env)
	tel := t.tel.Load()
	select {
	case p.q <- f:
		tel.queueDepth.Add(1)
		return nil
	default:
	}
	if !block {
		f.buf.Free()
		tel.queueDrops.Inc()
		tel.dropped.Inc()
		return nil
	}
	deadline := time.NewTimer(t.enqueueTimeout)
	defer deadline.Stop()
	select {
	case p.q <- f:
		tel.queueDepth.Add(1)
		return nil
	case <-deadline.C:
		f.buf.Free()
		tel.queueDrops.Inc()
		tel.dropped.Inc()
		return fmt.Errorf("transport: send to node %d: %w", p.node, ErrQueueFull)
	case <-t.done:
		f.buf.Free()
		return fmt.Errorf("transport: send to node %d: %w", p.node, ErrClosed)
	}
}

// writeLoop is a peer's writer goroutine: it waits for the first
// queued frame, drains whatever else is already pending, and flushes
// the whole batch in one writev. Frame order within the queue is
// preserved; the connection has exactly one writer, so frames never
// interleave without any lock.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	frames := make([]outFrame, 0, maxBatchFrames)
	var iov net.Buffers // flush's iovec, kept from one flush to the next
	for {
		select {
		case f := <-p.q:
			frames = append(frames[:0], f)
		case <-t.done:
			return
		}
		// The channel handoff schedules this goroutine the moment the
		// first frame lands, before concurrent senders get to enqueue
		// theirs. Yielding once lets every runnable sender deposit its
		// frame behind the first, so the drain below collects a real
		// batch and the whole volley leaves in one writev — instead of
		// one syscall per frame.
		runtime.Gosched()
	coalesce:
		for len(frames) < maxBatchFrames {
			select {
			case f := <-p.q:
				frames = append(frames, f)
			default:
				break coalesce
			}
		}
		t.flush(p, frames, &iov)
		for i := range frames {
			frames[i].buf.Free()
			frames[i] = outFrame{}
		}
	}
}

// flush writes one coalesced batch to the peer, dialing if necessary.
// Failures follow datagram semantics: the batch is dropped, counted,
// and the connection (if any) torn down for the next flush to redial.
// A batch of one — the common case unless many invokers send at once —
// is a plain Write; a larger one is a writev through iov, the writer's
// one iovec, handed back empty and holding no frame.
func (t *TCP) flush(p *tcpPeer, frames []outFrame, iov *net.Buffers) {
	tel := t.tel.Load()
	tel.queueDepth.Add(-int64(len(frames)))
	conn, err := t.peerConn(p)
	if err != nil {
		tel.sendErrors.Add(int64(len(frames)))
		return
	}
	payload := 0
	for _, f := range frames {
		payload += f.payload
	}
	start := tel.flushLatency.Start()
	if len(frames) == 1 {
		_, err = conn.Write(frames[0].buf.B)
	} else {
		for _, f := range frames {
			*iov = append(*iov, f.buf.B)
		}
		all := *iov // WriteTo consumes the slice it is called on
		_, err = iov.WriteTo(conn)
		clear(all) // a failed write leaves its unsent frames behind
		*iov = all[:0]
	}
	tel.flushLatency.ObserveSince(start)
	if err != nil {
		t.dropConn(p, conn)
		tel.sendErrors.Add(int64(len(frames)))
		return
	}
	tel.batchFrames.ObserveNanos(int64(len(frames)))
	tel.sendFrames.Add(int64(len(frames)))
	tel.sendBytes.Add(int64(payload))
}

// peerConn returns the peer's established connection, dialing (with a
// bounded timeout) if none exists. After a failed dial the peer is
// marked down for a jittered, exponentially growing interval, during
// which flushes fail fast instead of re-dialing — a dead peer costs
// each batch one clock read, not one connect timeout.
func (t *TCP) peerConn(p *tcpPeer) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if p.conn != nil {
		c := p.conn
		t.mu.Unlock()
		return c, nil
	}
	if until := p.downUntil; time.Now().Before(until) {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: node %d down, redial after %s: %w",
			p.node, time.Until(until).Round(time.Millisecond), ErrNoRoute)
	}
	addr := p.addr
	t.mu.Unlock()

	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		t.mu.Lock()
		if p.backoff <= 0 {
			p.backoff = DefaultRedialBackoff
		} else if p.backoff *= 2; p.backoff > DefaultRedialBackoffMax {
			p.backoff = DefaultRedialBackoffMax
		}
		// Jitter in [backoff/2, backoff): concurrent nodes redialing a
		// rebooted peer spread out instead of thundering together.
		wait := p.backoff/2 + time.Duration(rand.Int63n(int64(p.backoff/2)+1))
		p.downUntil = time.Now().Add(wait)
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	p.conn = conn
	p.backoff = 0
	p.downUntil = time.Time{}
	t.mu.Unlock()
	t.tel.Load().reconnects.Inc()
	return conn, nil
}

// dropConn discards a dead outbound connection; the next flush
// redials.
func (t *TCP) dropConn(p *tcpPeer, conn net.Conn) {
	t.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	t.mu.Unlock()
	conn.Close()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return // corrupt peer
		}
		frame, buf, err := readBody(r, int(n))
		if err != nil {
			return
		}
		// The envelope's payload aliases frame, and frame is this
		// delivery's alone: the handler owns it, or borrows it from the
		// pool when buf is one.
		env, rest, err := msg.DecodeEnvelope(frame)
		if err != nil || len(rest) != 0 {
			return // corrupt peer
		}
		env.Frame = buf
		tel := t.tel.Load()
		tel.recvFrames.Inc()
		tel.recvBytes.Add(int64(len(env.Payload)))
		t.dispatch(env)
	}
}

// readBody reads an n-byte frame body. An invocation request that fits
// msg's size classes is read into a pooled buffer, returned with it; any
// other frame is readFrame's. The kind is the body's second byte (after
// the version), peeked before any buffer is taken, and only for a body
// that fits one; a pooled buffer is no larger than readFrame's first
// chunk.
func readBody(r *bufio.Reader, n int) ([]byte, *msg.Buffer, error) {
	if n >= 2 && n <= msg.MaxFrameBuffer {
		head, err := r.Peek(2)
		if err != nil {
			return nil, nil, err
		}
		if msg.Kind(head[1]) == msg.KindInvokeReq {
			b := msg.FrameBuffer(n)
			if _, err := io.ReadFull(r, b.B); err != nil {
				b.Free()
				return nil, nil, err
			}
			return b.B, b, nil
		}
	}
	frame, err := readFrame(r, n)
	return frame, nil, err
}

// readFrame reads an n-byte frame body. A peer is believed about n only
// as far as it has sent: the buffer starts at no more than readChunk and
// doubles as it fills, so a header claiming 64 MiB followed by nothing
// costs readChunk, while every frame up to readChunk — any invocation
// short of a bulk transfer — is still one allocation.
func readFrame(r io.Reader, n int) ([]byte, error) {
	frame := make([]byte, min(n, readChunk))
	have := 0
	for {
		if _, err := io.ReadFull(r, frame[have:]); err != nil {
			return nil, err
		}
		if have = len(frame); have == n {
			return frame, nil
		}
		grown := make([]byte, min(n, 2*have))
		copy(grown, frame)
		frame = grown
	}
}

func (t *TCP) dispatch(env msg.Envelope) {
	t.hmu.RLock()
	h := t.handler
	t.hmu.RUnlock()
	if h != nil {
		h(env)
	}
}

// Close stops the listener, the writers and all connections. Frames
// still queued are discarded (datagram semantics).
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	conns := make([]net.Conn, 0, len(t.peers)+len(t.accepted))
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
		if p.conn != nil {
			conns = append(conns, p.conn)
			p.conn = nil
		}
	}
	// Accepted connections must be closed too, or their read loops
	// would keep Close waiting until the remote side hangs up.
	for c := range t.accepted {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	// Writers are gone; recycle whatever they never flushed.
	for _, p := range peers {
		for drained := false; !drained; {
			select {
			case f := <-p.q:
				f.buf.Free()
			default:
				drained = true
			}
		}
	}
	return err
}
