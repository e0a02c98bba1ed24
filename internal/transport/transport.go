// Package transport carries kernel-to-kernel frames between Eden
// nodes.
//
// Two implementations are provided behind one interface: an in-process
// Mesh, used by the tests and the benchmark, which supports
// injectable latency, loss, partitions and per-link traffic counters;
// and a TCP transport (tcp.go) for running a real multi-process Eden
// over the network. Both carry msg.Envelope frames and support the
// broadcast destination, mirroring the Ethernet's natural broadcast
// capability that Eden's location protocol exploits.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/msg"
	"eden/internal/telemetry"
)

// Pipeline tuning, the same for every transport: deep enough queues that
// bursts of invocation traffic coalesce, bounded enough that a dead peer
// cannot absorb unbounded memory or stall a sender forever. A unicast
// send whose queue is full blocks for up to DefaultEnqueueTimeout, then
// drops the frame with an error and a counter; TCP drops a broadcast
// copy that meets a full queue at once, counted but errorless.
const (
	// DefaultQueueDepth is the per-peer send-queue (TCP) / inbox (Mesh)
	// depth in frames.
	DefaultQueueDepth = 256
	// DefaultEnqueueTimeout bounds how long a unicast send blocks on a
	// full queue before the frame is dropped.
	DefaultEnqueueTimeout = time.Second
	// DefaultDialTimeout bounds one TCP dial attempt, so a black-holed
	// peer address cannot stall the writer indefinitely.
	DefaultDialTimeout = 2 * time.Second
	// DefaultRedialBackoff is the pause after a first failed dial; it
	// doubles (with jitter) per consecutive failure up to
	// DefaultRedialBackoffMax.
	DefaultRedialBackoff = 50 * time.Millisecond
	// DefaultRedialBackoffMax caps the redial backoff.
	DefaultRedialBackoffMax = 2 * time.Second
)

// Handler receives inbound frames. Handlers run on transport
// goroutines and must not block for long; kernels hand frames off to
// their own dispatch machinery. No sender or other receiver can reach
// env.Payload, so anything decoded from it may alias it. When env.Frame
// is nil the payload is one allocation made for this delivery, which the
// handler owns outright. An invocation request that fits msg's size
// classes arrives instead in a pooled buffer of its own, env.Frame: the
// handler may free it once nothing reads the payload any more — the
// kernel does so once the reply is sent, since every call served for
// another node borrows its request until its handler returns — or
// leave it to the collector.
type Handler func(env msg.Envelope)

// Transport is the kernel's view of the network.
type Transport interface {
	// Node returns the local node number.
	Node() uint32
	// Send transmits one frame to env.To (or all peers when env.To is
	// msg.Broadcast). Datagram semantics: a returned nil does not
	// guarantee delivery; higher layers use timeouts and retries. Send
	// borrows env.Payload: it does not retain the slice once it has
	// returned, so the caller may overwrite or recycle it at once.
	Send(env msg.Envelope) error
	// SetHandler installs the inbound frame handler. It must be
	// called before any traffic arrives.
	SetHandler(h Handler)
	// Peers lists the currently reachable peer node numbers.
	Peers() []uint32
	// Close shuts the transport down.
	Close() error
}

// Errors reported by transports.
var (
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrNoRoute reports a destination that is not attached.
	ErrNoRoute = errors.New("transport: no route to node")
	// ErrDuplicateNode reports attaching the same node number twice.
	ErrDuplicateNode = errors.New("transport: node number already attached")
)

// Stats counts traffic through a Mesh. All fields are cumulative.
type Stats struct {
	// Frames counts frames accepted for delivery.
	Frames int64
	// Bytes counts their payload bytes.
	Bytes int64
	// Dropped counts frames lost to injected loss, partitions or
	// detached destinations.
	Dropped int64
}

// Mesh is an in-process network connecting any number of Endpoints.
// The zero value is not usable; create with NewMesh.
type Mesh struct {
	mu       sync.Mutex
	eps      map[uint32]*Endpoint
	latency  func(from, to uint32) time.Duration
	loss     float64
	parts    map[[2]uint32]bool
	rng      *rand.Rand
	closed   bool
	frames   atomic.Int64
	bytes    atomic.Int64
	dropped  atomic.Int64
	inflight sync.WaitGroup
	tel      atomic.Pointer[transportTel]
}

// NewMesh returns an empty mesh with zero latency, no loss and default
// queue tuning, deterministic under the given seed. Each endpoint's
// inbox holds DefaultQueueDepth frames, and delivery blocks on a full
// inbox for up to DefaultEnqueueTimeout before the frame is dropped
// (with a counter) — the same backpressure policy the TCP transport
// applies to its send queues.
func NewMesh(seed int64) *Mesh {
	m := &Mesh{
		eps:   make(map[uint32]*Endpoint),
		parts: make(map[[2]uint32]bool),
		rng:   rand.New(rand.NewSource(seed)),
	}
	m.tel.Store(&transportTel{})
	return m
}

// SetTelemetry routes the mesh's traffic counters (send/recv frames
// and bytes, drops, inbox queue depth) into reg. Safe to call while
// traffic flows; nil disables.
func (m *Mesh) SetTelemetry(reg *telemetry.Registry) {
	m.tel.Store(newTransportTel(reg))
}

// SetLatency installs a per-link latency function. A nil function
// restores immediate delivery. Frames on a link are delivered in send
// order only when the function is constant per link.
func (m *Mesh) SetLatency(f func(from, to uint32) time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latency = f
}

// SetLoss sets the independent per-frame loss probability in [0,1].
func (m *Mesh) SetLoss(p float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	m.loss = p
}

func linkKey(a, b uint32) [2]uint32 {
	if a > b {
		a, b = b, a
	}
	return [2]uint32{a, b}
}

// Partition severs the link between nodes a and b in both directions.
func (m *Mesh) Partition(a, b uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.parts[linkKey(a, b)] = true
}

// Heal restores the link between nodes a and b.
func (m *Mesh) Heal(a, b uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.parts, linkKey(a, b))
}

// Stats returns cumulative traffic counters.
func (m *Mesh) Stats() Stats {
	return Stats{
		Frames:  m.frames.Load(),
		Bytes:   m.bytes.Load(),
		Dropped: m.dropped.Load(),
	}
}

// Attach creates an endpoint for the given node number.
func (m *Mesh) Attach(node uint32) (*Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if node == msg.Broadcast {
		return nil, fmt.Errorf("transport: node number %#x is reserved for broadcast", node)
	}
	if _, dup := m.eps[node]; dup {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateNode, node)
	}
	ep := &Endpoint{mesh: m, node: node, inbox: make(chan msg.Envelope, DefaultQueueDepth), done: make(chan struct{})}
	m.eps[node] = ep
	go ep.pump()
	return ep, nil
}

// Detach removes a node from the mesh, simulating a machine crash:
// frames in flight to it are dropped silently.
func (m *Mesh) Detach(node uint32) {
	m.mu.Lock()
	ep := m.eps[node]
	delete(m.eps, node)
	m.mu.Unlock()
	if ep != nil {
		ep.closeOnce.Do(func() { close(ep.done) })
	}
}

// Close shuts down the mesh and all endpoints.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	eps := make([]*Endpoint, 0, len(m.eps))
	for _, ep := range m.eps {
		eps = append(eps, ep)
	}
	m.eps = make(map[uint32]*Endpoint)
	m.mu.Unlock()
	for _, ep := range eps {
		ep.closeOnce.Do(func() { close(ep.done) })
	}
	m.inflight.Wait()
	return nil
}

// owned returns env with a private copy of its payload: what a
// delivery that stays inside the process must make, because the sender
// takes its slice back when Send returns. An invocation request's copy
// is a pooled buffer, env.Frame, as TCP's reader would lend it; any
// other payload's is an allocation the handler owns.
func owned(env msg.Envelope) msg.Envelope {
	env.Frame = nil
	if env.Kind == msg.KindInvokeReq {
		if b := msg.FrameBuffer(len(env.Payload)); b != nil {
			copy(b.B, env.Payload)
			env.Payload, env.Frame = b.B, b
			return env
		}
	}
	env.Payload = append([]byte(nil), env.Payload...)
	return env
}

// route delivers env to a single destination endpoint, applying loss,
// partitions and latency. Caller holds no locks.
func (m *Mesh) route(from uint32, env msg.Envelope) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.parts[linkKey(from, env.To)] || (m.loss > 0 && m.rng.Float64() < m.loss) {
		m.mu.Unlock()
		m.dropped.Add(1)
		m.tel.Load().dropped.Inc()
		return
	}
	ep, ok := m.eps[env.To]
	var delay time.Duration
	if ok && m.latency != nil {
		delay = m.latency(from, env.To)
	}
	m.mu.Unlock()
	if !ok {
		m.dropped.Add(1)
		m.tel.Load().dropped.Inc()
		return
	}
	m.frames.Add(1)
	m.bytes.Add(int64(len(env.Payload)))
	tel := m.tel.Load()
	tel.sendFrames.Inc()
	tel.sendBytes.Add(int64(len(env.Payload)))
	mine := owned(env) // a new variable: the closure below then captures a value, and only when it is made
	if delay <= 0 {
		ep.deliver(mine)
		return
	}
	m.inflight.Add(1)
	time.AfterFunc(delay, func() {
		defer m.inflight.Done()
		ep.deliver(mine)
	})
}

// Endpoint is one node's attachment to a Mesh.
type Endpoint struct {
	mesh      *Mesh
	node      uint32
	inbox     chan msg.Envelope
	done      chan struct{}
	closeOnce sync.Once

	hmu     sync.RWMutex
	handler Handler
}

var _ Transport = (*Endpoint)(nil)

// Node returns the endpoint's node number.
func (e *Endpoint) Node() uint32 { return e.node }

// SetHandler installs the inbound frame handler.
func (e *Endpoint) SetHandler(h Handler) {
	e.hmu.Lock()
	e.handler = h
	e.hmu.Unlock()
}

// Peers lists the other nodes currently attached to the mesh.
func (e *Endpoint) Peers() []uint32 {
	e.mesh.mu.Lock()
	defer e.mesh.mu.Unlock()
	out := make([]uint32, 0, len(e.mesh.eps)-1)
	for n := range e.mesh.eps {
		if n != e.node {
			out = append(out, n)
		}
	}
	return out
}

// Send transmits one frame. Broadcast frames go to every other
// attached node (not back to the sender), like an Ethernet broadcast.
func (e *Endpoint) Send(env msg.Envelope) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	env.From = e.node
	if env.To == msg.Broadcast {
		for _, peer := range e.Peers() {
			unicast := env
			unicast.To = peer
			e.mesh.route(e.node, unicast)
		}
		return nil
	}
	if env.To == e.node {
		// Loopback: deliver locally without touching the mesh.
		e.deliver(owned(env))
		return nil
	}
	e.mesh.route(e.node, env)
	return nil
}

// deliver queues a frame for the handler: block with deadline on a
// full inbox, then drop with a counter — so a wedged handler degrades
// to datagram loss instead of stalling every sender in the mesh.
func (e *Endpoint) deliver(env msg.Envelope) {
	tel := e.mesh.tel.Load()
	select {
	case e.inbox <- env:
		tel.queueDepth.Add(1)
		return
	case <-e.done:
		return
	default:
	}
	deadline := time.NewTimer(DefaultEnqueueTimeout)
	defer deadline.Stop()
	select {
	case e.inbox <- env:
		tel.queueDepth.Add(1)
	case <-e.done:
	case <-deadline.C:
		e.mesh.dropped.Add(1)
		tel.dropped.Inc()
		tel.queueDrops.Inc()
	}
}

// pump dispatches inbound frames to the handler in arrival order.
func (e *Endpoint) pump() {
	for {
		select {
		case env := <-e.inbox:
			tel := e.mesh.tel.Load()
			tel.queueDepth.Add(-1)
			tel.recvFrames.Inc()
			tel.recvBytes.Add(int64(len(env.Payload)))
			e.hmu.RLock()
			h := e.handler
			e.hmu.RUnlock()
			if h != nil {
				h(env)
			}
		case <-e.done:
			return
		}
	}
}

// Close detaches the endpoint from the mesh.
func (e *Endpoint) Close() error {
	e.mesh.Detach(e.node)
	return nil
}
