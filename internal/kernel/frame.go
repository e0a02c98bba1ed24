package kernel

import (
	"runtime"
	"sync/atomic"
	"time"

	"eden/internal/capability"
	"eden/internal/msg"
	"eden/internal/rights"
)

// callCtx is one invocation's call frame: the request as the scheduler
// sees it, the handler's Call, the slot its reply comes back through and
// the timer its invoker waits against. Frames are pooled per kernel, so
// an uncontended invocation allocates none of them.
//
// A frame submitted to an object has two owners. The invoker owns it
// until it stops waiting — reply or deadline. The object side owns it
// from the moment it is queued until it is disposed of exactly once:
// shed, answered at teardown, or run as a process to completion. Each
// drops its share with release, and the last one out drains the reply
// slot and returns the frame to the pool — so a process that finishes
// after its invoker timed out still has a frame to reply into, and that
// late reply cannot surface in the frame's next use.
//
// A frame waiting for a remote reply (roundTrip) has one owner, the
// invoker; k.pend is how the reply finds it. A frame carrying an inbound
// request (handleFrame) or an async invocation (InvokeAsync) has one
// owner at a time: its submitter until it starts the frame's processor,
// the serve or the invocation after, which recycles the frame when it
// returns.
type callCtx struct {
	name string   // the operation as invoked
	op   *boundOp // what name resolved to; set by validate
	// seq is the call's arrival order at the object: admission is FIFO
	// within a class queue, and across classes the older head goes first.
	seq uint64
	// next threads the class queue the call waits in (classState): the
	// call behind it, or the head when it is the tail. nil once the call
	// has left the queue. Guarded by o.sched.
	next *callCtx
	data []byte
	caps capability.List
	rts  rights.Set
	// deadline is the caller's absolute time limit; admission sheds the
	// call instead of dispatching a process once it has passed.
	deadline time.Time
	// vproc marks a call holding one of the node's virtual processors.
	// The object side gives it back (finish): a handler that outlives its
	// invoker's deadline still occupies the processor it runs on.
	vproc bool
	// inPlace marks a call from another node to an AccessRead operation,
	// whose handler may write its reply into the frame it leaves in
	// (Call.ReturnBuffer).
	inPlace bool

	o    *Object // the incarnation the call was submitted to
	call Call    // the handler's context; valid until the handler returns

	k     *Kernel      // the kernel whose pool the frame belongs to; fixed at creation
	env   msg.Envelope // the inbound request, for serveRequest
	async *Pending     // the async invocation, for runAsync

	reply chan msg.InvokeRep // capacity 1: the outcome, delivered at most once per use
	// timer is created on the frame's first wait and afterwards only
	// Reset, and only when the invoker is about to block.
	timer *time.Timer
	// proc is the frame's processor, started by the first work the
	// frame carries (start).
	proc *procHandle

	owners atomic.Int32
}

// getFrame takes a frame from the kernel's pool, or makes one.
func (k *Kernel) getFrame() *callCtx {
	if c, ok := k.frames.Get().(*callCtx); ok {
		return c
	}
	return &callCtx{k: k, reply: make(chan msg.InvokeRep, 1)}
}

// release drops one owner's share; the last owner recycles the frame.
func (c *callCtx) release() {
	if c.owners.Add(-1) == 0 {
		c.recycle()
	}
}

// recycle returns a frame nobody else references to the pool, emptied:
// a reply that arrived after its invoker gave up goes no further, and
// nothing the call carried stays reachable.
func (c *callCtx) recycle() {
	select {
	case <-c.reply:
	default:
	}
	c.name, c.op, c.next, c.data, c.caps, c.o = "", nil, nil, nil, nil, nil
	c.vproc, c.inPlace = false, false
	c.call = Call{}
	c.env, c.async = msg.Envelope{}, nil
	c.k.frames.Put(c)
}

// serveRequest serves the inbound invocation request the frame carries.
// The frame goes back to the pool only when the serve returns: the
// serve's own dispatch takes a frame from the pool, and were it this
// one, it would hand its process to the processor that is running the
// serve and waiting for that process's reply.
func (c *callCtx) serveRequest() {
	c.k.serveInvoke(c.env)
	c.recycle()
}

// exec runs the work the frame was started with: its process when it was
// submitted to an object, else the async invocation or the inbound
// request it carries.
func (c *callCtx) exec() {
	switch {
	case c.o != nil:
		c.runProcess()
	case c.async != nil:
		c.runAsync()
	default:
		c.serveRequest()
	}
}

// A processor is the goroutine a frame's work runs on — a process
// (runProcess), an async invocation (runAsync) or the serve of an
// inbound request (serveRequest) — and it outlives the work: between
// uses it parks on its channel with the stack it has grown, where a
// goroutine started per process would begin at the smallest stack and
// copy it as the handler grew it. A frame
// starts its processor with its first such work and keeps it while the
// frame lives, so the pool that reuses a frame on the CPU that freed it
// reuses its processor there too, and no lock is shared between callers.
//
// The goroutine holds the processor but never the frame or its handle.
// A frame the pool drops is garbage together with its handle, whose
// finalizer stops the processor; Close stops every processor of its
// node (the registry k.procs).
type processor struct {
	work chan *callCtx // capacity 1: the frame handed over; nil means stop
	// state counts the work handed to the processor and not yet finished,
	// procStopped added once the processor has been told to stop: it
	// exits when the count falls to zero with the bit set, and a start
	// that sees the bit runs its work elsewhere.
	state atomic.Int32
}

const procStopped = 1 << 30

// procHandle is the frame's hold on its processor. Only the frame
// references it, so it becomes garbage exactly when the frame does.
type procHandle struct{ p *processor }

// start runs the frame's work on the frame's processor, first guessing
// that the processor is parked with nothing to run. Nothing here waits:
// a frame is handed to its processor at most once per use, so the
// channel has room.
func (c *callCtx) start() {
	if h := c.proc; h != nil {
		p := h.p
		for s := int32(0); s&procStopped == 0; s = p.state.Load() {
			if p.state.CompareAndSwap(s, s+1) {
				p.work <- c
				return
			}
		}
	}
	c.k.startProcessor(c)
}

// startProcessor gives the frame a processor and hands it the frame's
// work. On a closed node, whose processors have been stopped, the work
// runs on a goroutine of its own.
func (k *Kernel) startProcessor(c *callCtx) {
	k.procMu.Lock()
	if k.procs == nil {
		k.procMu.Unlock()
		go c.exec()
		return
	}
	p := &processor{work: make(chan *callCtx, 1)}
	p.state.Store(1) // before Close can see it: the work below is the processor's
	k.procs[p] = struct{}{}
	k.procMu.Unlock()
	c.proc = &procHandle{p}
	runtime.SetFinalizer(c.proc, func(h *procHandle) { h.p.stop() })
	p.work <- c
	go k.runProcessor(p)
}

// runProcessor is a processor's goroutine: it runs each frame handed to
// it, until it is told to stop and has nothing left to run. Work that
// ends the goroutine instead of returning (runtime.Goexit) does not end
// the processor: a new goroutine takes its channel over.
func (k *Kernel) runProcessor(p *processor) {
	var c *callCtx // the work being run, nil between runs
	defer func() {
		if c != nil && p.state.Add(-1) != procStopped {
			go k.runProcessor(p)
			return
		}
		k.procMu.Lock()
		delete(k.procs, p)
		k.procMu.Unlock()
	}()
	for {
		if c = <-p.work; c == nil {
			return
		}
		c.exec()
		c = nil
		if p.state.Add(-1) == procStopped {
			return
		}
	}
}

// stop tells the processor to exit once it has finished the work it was
// handed. A parked processor is woken to exit; a busy one sees the bit
// when its count falls to zero.
func (p *processor) stop() {
	for s := p.state.Load(); s&procStopped == 0; s = p.state.Load() {
		if p.state.CompareAndSwap(s, s|procStopped) {
			if s == 0 {
				p.work <- nil
			}
			return
		}
	}
}

// stopProcessors stops every processor of the node; a start after it
// runs its work on a goroutine of its own.
func (k *Kernel) stopProcessors() {
	k.procMu.Lock()
	for p := range k.procs {
		p.stop()
	}
	k.procs = nil
	k.procMu.Unlock()
}

// finish is the object side's one disposal of a submitted call: give
// back the virtual processor, deliver the outcome, drop the share.
func (c *callCtx) finish(rep msg.InvokeRep) {
	if c.vproc {
		<-c.o.k.vprocs
	}
	select {
	case c.reply <- rep:
	default: // one finish per submission and a drained slot: cannot happen
	}
	c.release()
}

// await returns the frame's reply, waiting up to d for it; false means
// the time ran out. The timer is touched only when the reply is not
// already there.
func (c *callCtx) await(d time.Duration) (msg.InvokeRep, bool) {
	select {
	case rep := <-c.reply:
		return rep, true
	default:
	}
	if d <= 0 {
		return msg.InvokeRep{}, false
	}
	c.arm(d)
	select {
	case rep := <-c.reply:
		c.disarm()
		return rep, true
	case <-c.timer.C:
		return msg.InvokeRep{}, false
	}
}

// arm starts the frame's timer; the invoker must either receive from
// timer.C or disarm before the frame's next wait.
func (c *callCtx) arm(d time.Duration) {
	if c.timer == nil {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
}

// disarm stops an armed timer whose channel was not received from. A
// timer that fired in the meantime has left a tick behind, which the
// next wait must not mistake for its own. Stop can report such a timer
// before the runtime has put the tick in the channel; that tick cannot
// be waited for, so the timer is abandoned with it and the frame's next
// wait makes a new one.
func (c *callCtx) disarm() {
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
			c.timer = nil
		}
	}
}
