package kernel

import (
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/capability"
	"eden/internal/msg"
	"eden/internal/rights"
)

// callCtx is one invocation's call frame: the request as the scheduler
// sees it, the handler's Call, the slot its reply comes back through and
// the timer its invoker waits against. Frames are pooled, so an
// uncontended invocation allocates none of them.
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
// request to its serve goroutine (handleFrame) has one owner at a time:
// the transport's goroutine until `go c.serve()`, that goroutine after.
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
	// queued tracks the admission-queue depth gauge: set when the call
	// joins a class queue, cleared (exactly once, by whichever path takes
	// it out) when it leaves. Guarded by o.sched until teardown's drain
	// has taken the call out of the schedule.
	queued bool
	// vproc marks a call holding one of the node's virtual processors.
	// The object side gives it back (finish): a handler that outlives its
	// invoker's deadline still occupies the processor it runs on.
	vproc bool

	o    *Object // the incarnation the call was submitted to
	call Call    // the handler's context; valid until the handler returns

	k   *Kernel      // the serving kernel, for serve
	env msg.Envelope // the inbound request, for serve

	reply chan msg.InvokeRep // capacity 1: the outcome, delivered at most once per use
	// timer is created on the frame's first wait and afterwards only
	// Reset, and only when the invoker is about to block.
	timer *time.Timer
	// run and serve are c.runProcess and c.serveRequest, bound once so
	// that `go c.run()` and `go c.serve()` allocate nothing.
	run, serve func()

	owners atomic.Int32
}

// framePool has no New: runProcess recycles into the pool, and a New
// naming runProcess would be an initialization cycle.
var framePool sync.Pool

func getFrame() *callCtx {
	if c, ok := framePool.Get().(*callCtx); ok {
		return c
	}
	c := &callCtx{reply: make(chan msg.InvokeRep, 1)}
	c.run, c.serve = c.runProcess, c.serveRequest
	return c
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
	c.queued, c.vproc = false, false
	c.call = Call{}
	c.k, c.env = nil, msg.Envelope{}
	framePool.Put(c)
}

// serveRequest is the goroutine an inbound invocation request is served
// on. The frame only carried the request here: it goes back to the pool
// before the serve, whose dispatch takes one of its own.
func (c *callCtx) serveRequest() {
	k, env := c.k, c.env
	c.recycle()
	k.serveInvoke(env)
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
