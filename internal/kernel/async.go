package kernel

// Asynchronous invocation as a kernel primitive: "asynchronous
// invocation also will be possible ... through a separate kernel
// primitive". An async invocation runs on the processor of a pooled
// call frame (frame.go), the same processors that run processes and
// served requests, so it competes for them with every other invocation
// on the node rather than waiting for a pool of its own. Submissions
// past the node's in-flight cap are shed at the door with
// StatusTimeout semantics (kernel.async.shed), exactly like the
// per-object admission queues and the transport's send queues: the
// node rejects early rather than growing without bound.
//
// Every submission resolves a Pending: a promise the caller may wait
// on, select on, or ignore for fire-and-forget. An object that wants
// completions on one of its message ports waits on the Pending from a
// behavior and sends what it needs to the port.

import (
	"errors"
	"fmt"
	"time"

	"eden/internal/capability"
	"eden/internal/msg"
	"eden/internal/telemetry"
)

// asyncCap is the per-node cap on async invocations in flight.
const asyncCap = 1024

// Pending is an asynchronous invocation in flight. The result is
// sticky: Wait may be called any number of times, from any number of
// goroutines, and always returns the same outcome. The frame that runs
// the invocation carries the promise, so a submission costs this one
// allocation and its done channel.
type Pending struct {
	done chan struct{}
	rep  Reply
	err  error

	req          msg.InvokeReq
	allowReplica bool
	// deadline is fixed at submission: time spent before the invocation
	// reaches a processor counts against the caller's budget.
	deadline time.Time
	trace    uint64
	sp       telemetry.Span
	enq      time.Time // hand-off sample start (zero with telemetry off)
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
// returned Pending collects the reply. The invocation runs on one of
// the node's processors; if the node already has its cap of async
// invocations in flight, the submission is shed immediately and the
// Pending resolves with ErrTimeout (counted under kernel.async.shed).
// Ignoring the Pending gives fire-and-forget.
func (k *Kernel) InvokeAsync(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions) *Pending {
	o, err := k.invocation(target, opts)
	// The span opens at submission and closes at completion, so the
	// hand-off to a processor is visible in the trace.
	trace := k.tel.reg.NextTraceID(k.cfg.Node)
	p := &Pending{
		done:         make(chan struct{}),
		req:          msg.InvokeReq{Target: target, Operation: operation, Data: data, Caps: caps},
		allowReplica: o.AllowReplica,
		deadline:     time.Now().Add(o.Timeout),
		trace:        trace,
		sp:           k.tel.reg.StartSpan("invoke.async", trace, k.cfg.Node),
		enq:          k.tel.now(),
	}
	if err != nil {
		k.complete(p, Reply{}, err)
		return p
	}
	if k.asyncInFlight.Add(1) > asyncCap {
		k.asyncInFlight.Add(-1)
		k.tel.asyncShed.Inc()
		k.complete(p, Reply{}, fmt.Errorf("%w: %d async invocations in flight", ErrTimeout, asyncCap))
		return p
	}
	c := k.getFrame()
	c.async = p
	c.start()
	return p
}

// runAsync runs the async invocation the frame carries. The frame goes
// back to the pool only when the invocation returns, for the reason
// serveRequest gives: the invocation draws its own frames from the pool.
// A closed node answers the invocation with ErrClosed, so every Pending
// resolves here.
func (c *callCtx) runAsync() {
	k, p := c.k, c.async
	k.tel.asyncQueueWait.ObserveSince(p.enq)
	rep, err := k.invoke(p.req, p.allowReplica, p.deadline, p.trace)
	c.recycle()
	k.asyncInFlight.Add(-1)
	k.complete(p, rep, err)
}

// complete completes the promise and closes its span; every submission
// reaches it exactly once, run or not. The request is let go, so that a
// Pending its caller keeps does not pin the parameters.
func (k *Kernel) complete(p *Pending, rep Reply, err error) {
	if err != nil && errors.Is(err, ErrTimeout) {
		k.tel.timeouts.Inc()
	}
	p.req = msg.InvokeReq{}
	p.rep, p.err = rep, err
	close(p.done)
	p.sp.End(spanStatus(err))
}
