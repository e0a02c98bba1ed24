package kernel

// Asynchronous invocation as a kernel primitive: "asynchronous
// invocation also will be possible ... through a separate kernel
// primitive". Instead of the old goroutine-per-call wrapper, every
// async invocation enters a bounded per-node dispatcher — an
// admission-controlled pending-invocation table drained by a fixed
// worker pool. Submissions past the table's capacity are shed at the
// door with StatusTimeout semantics (kernel.async.shed), exactly like
// the per-object admission queues and the transport's send queues:
// the dispatcher rejects early rather than growing without bound.
//
// Completion is delivered two ways, per the paper's promise/port
// model: every submission resolves a Pending (a promise the caller
// may wait on, or ignore for fire-and-forget), and InvokeAsyncPort
// additionally posts an encoded AsyncCompletion to one of the
// caller's message ports, so an object can multiplex many outstanding
// invocations through the same port its behaviors already receive on.

import (
	"errors"
	"fmt"
	"time"

	"eden/internal/capability"
	"eden/internal/msg"
	"eden/internal/rights"
	"eden/internal/telemetry"
)

// DefaultAsyncPending is the per-node cap on queued async invocations
// when Config.AsyncPending is zero.
const DefaultAsyncPending = 1024

// DefaultAsyncWorkers is the async dispatcher's worker-pool size when
// Config.AsyncWorkers is zero.
const DefaultAsyncWorkers = 16

// Pending is an asynchronous invocation in flight. The result is
// sticky: Wait may be called any number of times, from any number of
// goroutines, and always returns the same outcome. The promise is also
// the invocation's entry in the dispatcher's table, so a submission
// costs this one allocation and its done channel.
type Pending struct {
	done chan struct{}
	rep  Reply
	err  error

	req          msg.InvokeReq
	allowReplica bool
	// deadline is fixed at submission: time spent queued in the table
	// counts against the caller's budget, so a saturated dispatcher
	// surfaces as timeouts rather than invisible latency.
	deadline time.Time
	trace    uint64
	sp       telemetry.Span
	enq      time.Time // queue-wait sample start (zero with telemetry off)
	port     *Port     // optional port-based completion delivery
	portID   uint64    // completion id carried to the port
}

// Wait blocks until the invocation completes and returns its outcome.
// The outcome is sticky: repeated calls return it again immediately.
func (p *Pending) Wait() (Reply, error) {
	<-p.done
	return p.rep, p.err
}

// Done returns a channel closed when the invocation has completed,
// for callers multiplexing several pending invocations in a select.
func (p *Pending) Done() <-chan struct{} { return p.done }

// InvokeAsync starts an invocation without suspending the caller; the
// returned Pending collects the reply. The invocation runs through
// the node's bounded async dispatcher: if the pending-invocation
// table is full the submission is shed immediately and the Pending
// resolves with ErrTimeout (counted under kernel.async.shed).
// Ignoring the Pending gives fire-and-forget.
func (k *Kernel) InvokeAsync(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions) *Pending {
	p, _ := k.submitAsync(target, operation, data, caps, opts, nil, 0)
	return p
}

// InvokeAsyncPort starts an invocation whose completion is delivered
// to the given message port as an encoded AsyncCompletion carrying
// the returned id — the paper's port-based completion: the object
// keeps working and receives results through the same port machinery
// its behaviors use. The Reply's capability results do not fit a
// port's byte payload and are dropped; use InvokeAsync where the
// callee returns capabilities. A submission the dispatcher sheds (or
// a capability rejected up front) is reported synchronously as an
// error, and nothing is ever posted to the port for it.
func (k *Kernel) InvokeAsyncPort(target capability.Capability, operation string, data []byte, caps capability.List, port *Port, opts *InvokeOptions) (uint64, error) {
	if port == nil {
		return 0, fmt.Errorf("kernel: InvokeAsyncPort requires a completion port")
	}
	id := k.asyncID.Add(1)
	if _, err := k.submitAsync(target, operation, data, caps, opts, port, id); err != nil {
		return 0, err
	}
	return id, nil
}

// submitAsync validates one async invocation and admits it to the
// pending-invocation table. Rejections resolve the Pending and are
// also returned (port-based callers get the synchronous error;
// promise-based callers read it from the Pending).
func (k *Kernel) submitAsync(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions, port *Port, portID uint64) (*Pending, error) {
	var o InvokeOptions
	if opts != nil {
		o = *opts
	}
	if o.Timeout <= 0 {
		o.Timeout = k.cfg.DefaultTimeout
	}
	// The span opens at submission and closes at completion, so queue
	// wait inside the dispatcher is visible in the trace.
	trace := k.tel.reg.NextTraceID(k.cfg.Node)
	p := &Pending{
		done: make(chan struct{}),
		req: msg.InvokeReq{
			Target:       target,
			Operation:    operation,
			Data:         data,
			Caps:         caps,
			TimeoutNanos: int64(o.Timeout),
		},
		allowReplica: o.AllowReplica,
		deadline:     time.Now().Add(o.Timeout),
		trace:        trace,
		sp:           k.tel.reg.StartSpan("invoke.async", trace, k.cfg.Node),
		enq:          k.tel.now(),
		port:         port,
		portID:       portID,
	}
	switch {
	case target.IsNull():
		return p, k.resolve(p, Reply{}, fmt.Errorf("%w: null capability", ErrNoSuchObject))
	case !target.Has(rights.Invoke):
		return p, k.resolve(p, Reply{}, fmt.Errorf("%w: capability lacks invoke right", ErrRights))
	}
	// Admission under asyncMu so a submission cannot slip into the
	// table after Close has drained it (the entry would never resolve).
	k.asyncMu.Lock()
	if k.asyncClosed {
		k.asyncMu.Unlock()
		return p, k.resolve(p, Reply{}, fmt.Errorf("%w: async dispatcher stopped", ErrClosed))
	}
	select {
	case k.asyncQ <- p:
		k.asyncMu.Unlock()
	default:
		k.asyncMu.Unlock()
		k.tel.asyncShed.Inc()
		return p, k.resolve(p, Reply{}, fmt.Errorf("%w: async dispatcher at capacity (%d pending)", ErrTimeout, cap(k.asyncQ)))
	}
	k.tel.asyncPending.Add(1)
	k.asyncOnce.Do(k.startAsyncWorkers)
	return p, nil
}

// startAsyncWorkers launches the dispatcher's worker pool, lazily on
// the first submission so the many kernels tests construct pay
// nothing for the primitive they never use.
func (k *Kernel) startAsyncWorkers() {
	for i := 0; i < k.cfg.AsyncWorkers; i++ {
		go func() {
			for {
				select {
				case <-k.asyncStop:
					return
				case p := <-k.asyncQ:
					k.runAsync(p)
				}
			}
		}()
	}
}

// runAsync executes one table entry on a dispatcher worker.
func (k *Kernel) runAsync(p *Pending) {
	k.tel.asyncQueueWait.ObserveSince(p.enq)
	if time.Now().After(p.deadline) {
		// The deadline expired while the entry sat in the table; shed
		// it like the per-object admission queues shed expired calls.
		k.tel.asyncShed.Inc()
		k.finishAsync(p, Reply{}, ErrTimeout)
		return
	}
	rep, err := k.invoke(p.req, p.allowReplica, p.deadline, p.trace)
	k.finishAsync(p, rep, err)
}

// finishAsync takes one entry out of the table: promise first, then the
// optional port delivery.
func (k *Kernel) finishAsync(p *Pending, rep Reply, err error) {
	k.tel.asyncPending.Add(-1)
	_ = k.resolve(p, rep, err)
	if p.port != nil {
		k.deliverCompletion(p.port, p.portID, rep, err)
	}
}

// resolve completes the promise and closes its span; every submission
// reaches it exactly once, admitted to the table or not. It returns err.
// The request is let go, so that a Pending its caller keeps does not pin
// the parameters.
func (k *Kernel) resolve(p *Pending, rep Reply, err error) error {
	if err != nil && errors.Is(err, ErrTimeout) {
		k.tel.timeouts.Inc()
	}
	p.req = msg.InvokeReq{}
	p.rep, p.err = rep, err
	close(p.done)
	p.sp.End(spanStatus(err))
	return err
}

// deliverCompletion posts one encoded AsyncCompletion. A full port
// briefly blocks the worker (counted under kernel.async.port.full)
// rather than dropping the completion — "resolve or fail crisply"
// forbids silent loss — and the port's down channel bounds the block
// by the receiving object's lifetime.
func (k *Kernel) deliverCompletion(port *Port, id uint64, rep Reply, err error) {
	payload := encodeAsyncCompletion(id, rep, err)
	if port.TrySend(payload) {
		return
	}
	k.tel.asyncPortFull.Inc()
	_ = port.Send(payload)
}

// drainAsync stops the dispatcher at Close: no further submissions
// are admitted, workers exit, and every entry still queued resolves
// with ErrClosed so no Pending is left dangling across a shutdown.
func (k *Kernel) drainAsync() {
	k.asyncMu.Lock()
	if k.asyncClosed {
		k.asyncMu.Unlock()
		return
	}
	k.asyncClosed = true
	close(k.asyncStop)
	var stranded []*Pending
	for {
		select {
		case p := <-k.asyncQ:
			stranded = append(stranded, p)
			continue
		default:
		}
		break
	}
	k.asyncMu.Unlock()
	for _, p := range stranded {
		k.finishAsync(p, Reply{}, fmt.Errorf("%w: node closed", ErrClosed))
	}
}

// AsyncCompletion is the decoded form of a port-delivered async
// completion: the id InvokeAsyncPort returned, the invocation's
// outcome as a caller-side error (nil on success), and the reply
// data.
type AsyncCompletion struct {
	// ID matches the value InvokeAsyncPort returned for the
	// submission this completion resolves.
	ID uint64
	// Err is the invocation outcome, nil on success. It is rebuilt
	// from the wire status, so errors.Is against the kernel sentinels
	// (ErrTimeout, ErrCrashed, ...) works across the port.
	Err error
	// Data carries the reply's data results (or the failure detail).
	Data []byte
}

// encodeAsyncCompletion lays out id(8) | status(1) | data.
func encodeAsyncCompletion(id uint64, rep Reply, err error) []byte {
	data := rep.Data
	if err != nil {
		data = []byte(err.Error())
	}
	out := make([]byte, 9+len(data))
	out[0] = byte(id >> 56)
	out[1] = byte(id >> 48)
	out[2] = byte(id >> 40)
	out[3] = byte(id >> 32)
	out[4] = byte(id >> 24)
	out[5] = byte(id >> 16)
	out[6] = byte(id >> 8)
	out[7] = byte(id)
	out[8] = byte(statusFromErr(err))
	copy(out[9:], data)
	return out
}

// DecodeAsyncCompletion parses a message received from a completion
// port back into the submission id, outcome, and reply data.
func DecodeAsyncCompletion(m []byte) (AsyncCompletion, error) {
	if len(m) < 9 {
		return AsyncCompletion{}, fmt.Errorf("kernel: async completion too short (%d bytes)", len(m))
	}
	id := uint64(m[0])<<56 | uint64(m[1])<<48 | uint64(m[2])<<40 | uint64(m[3])<<32 |
		uint64(m[4])<<24 | uint64(m[5])<<16 | uint64(m[6])<<8 | uint64(m[7])
	st := msg.Status(m[8])
	data := append([]byte(nil), m[9:]...)
	ac := AsyncCompletion{ID: id, Data: data}
	if st != msg.StatusOK {
		ac.Err = errFromStatus(st, data)
	}
	return ac, nil
}

// statusFromErr maps a caller-side invocation error back to its wire
// status — the inverse of errFromStatus, used when a completion
// crosses a port as bytes.
func statusFromErr(err error) msg.Status {
	switch {
	case err == nil:
		return msg.StatusOK
	case errors.Is(err, ErrTimeout):
		return msg.StatusTimeout
	case errors.Is(err, ErrNoSuchObject), errors.Is(err, ErrNoSuchType):
		return msg.StatusNoSuchObject
	case errors.Is(err, ErrNoSuchOperation):
		return msg.StatusNoSuchOperation
	case errors.Is(err, ErrRights):
		return msg.StatusRights
	case errors.Is(err, ErrCrashed), errors.Is(err, ErrClosed):
		return msg.StatusCrashed
	case errors.Is(err, ErrFrozen):
		return msg.StatusFrozen
	default:
		return msg.StatusError
	}
}
