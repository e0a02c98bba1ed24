package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/edenid"
	"eden/internal/kernel"
	"eden/internal/msg"
	"eden/internal/store"
	"eden/internal/transport"
)

// Tracing here is done entirely from outside the program: the tracer
// wraps the two interfaces kernel.New takes (transport.Transport and
// store.Store) and the handlers of the types the benchmark registers,
// and the load generator brackets its own ops and its efs commits.
// Nothing in internal/ knows it is being traced.
//
// A span belongs to a client op and names the span that caused it. A
// wrapper cannot see which op it is working for — no identifier of the
// benchmark's crosses the kernel — so it looks the op up by the object
// the frame, record or handler is about. Two ops that are open on the
// same object at the same instant can swap a child span; both are ops
// on that object, and the per-layer sums are unaffected.

// Span names, which are also the rows of the printed breakdown.
const (
	spanOp      = "op" // self time: rights gate, locate, dispatch, codec, wire and wake-ups, lumped
	spanCommit  = "efs.commit"
	spanHandler = "handler"
	spanSend    = "transport.send"
	spanPut     = "store.put"
	spanGet     = "store.get"
)

// Capture limits for the layer probes, and how many ops' spans the
// trace file keeps.
const (
	maxEnvelopes = 4096
	maxRecords   = 1024
	maxKeptOps   = 4096
)

type span struct {
	Op     int    `json:"op"`     // index of the client op in the stream
	ID     int    `json:"id"`     // position among the op's spans; 0 is the op itself
	Parent int    `json:"parent"` // -1 for the op
	Name   string `json:"name"`
	Node   uint32 `json:"node"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// opTrace collects one client op's spans.
type opTrace struct {
	mu      sync.Mutex
	object  edenid.ID
	write   bool
	spans   []span
	client  int  // innermost open span on the client's side: the op, or its efs.commit
	handler int  // open handler span, -1 if none
	done    bool // the op ended; later spans are dropped
}

// layerSum is the folded self time of all spans of one name.
type layerSum struct {
	count int64
	self  int64 // ns
}

type tracer struct {
	t0 time.Time
	on atomic.Bool // wrappers record only while the traced window runs

	mu       sync.Mutex
	byObject map[edenid.ID]*opTrace
	byCorr   map[uint64]*opTrace // invocation correlation id -> op, to place the reply frame
	faulting map[uint32]*opTrace // node -> op whose Get ran there last; it owns the evictions that follow
	layers   map[string]*layerSum
	ops      int64
	opNanos  int64 // sum of op spans; equals the sum of all self times
	kept     []span
	keptOps  int

	writeOps      int64
	writeHandlers int64 // handler spans under write ops: the invocations a write tx costs

	frames, wireBytes, sendNanos     atomic.Int64
	puts, gets, putBytes, storeNanos atomic.Int64

	capMu     sync.Mutex
	putLat    []uint32
	getLat    []uint32
	commitLat []uint32 // durations of the efs.commit spans
	envs      []msg.Envelope
	recs      []store.Record
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		byObject: make(map[edenid.ID]*opTrace),
		byCorr:   make(map[uint64]*opTrace),
		faulting: make(map[uint32]*opTrace),
		layers:   make(map[string]*layerSum),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens the span of client op i on the given object.
func (t *tracer) begin(i int, write bool, obj edenid.ID) *opTrace {
	ot := &opTrace{object: obj, write: write, handler: -1, spans: make([]span, 1, 8)}
	ot.spans[0] = span{Op: i, Parent: -1, Name: spanOp, Node: 1, Start: t.now()}
	t.mu.Lock()
	t.byObject[obj] = ot
	t.mu.Unlock()
	return ot
}

// end closes the op and folds its spans into the per-layer sums.
func (t *tracer) end(ot *opTrace) {
	ot.mu.Lock()
	ot.spans[0].End = t.now()
	ot.done = true
	ot.mu.Unlock()

	self := selfTimes(ot.spans)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byObject[ot.object] == ot {
		delete(t.byObject, ot.object)
	}
	t.ops++
	t.opNanos += ot.spans[0].End - ot.spans[0].Start
	if ot.write {
		t.writeOps++
	}
	for i, s := range ot.spans {
		l := t.layers[s.Name]
		if l == nil {
			l = &layerSum{}
			t.layers[s.Name] = l
		}
		l.count++
		l.self += self[i]
		if ot.write && s.Name == spanHandler {
			t.writeHandlers++
		}
	}
	if t.keptOps < maxKeptOps {
		t.keptOps++
		t.kept = append(t.kept, ot.spans...)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// its children cover. A child is clipped to its parent, and where two
// children of one span overlap the overlap is the earlier one's, so the
// self times of an op's spans add up to the op span exactly.
func selfTimes(spans []span) []int64 {
	type interval struct{ a, b int64 }
	eff := make([]interval, len(spans))
	self := make([]int64, len(spans))
	eff[0] = interval{spans[0].Start, spans[0].End}
	kids := make([]int, 0, len(spans))
	for p := range spans { // a parent always precedes its children
		kids = kids[:0]
		for k := p + 1; k < len(spans); k++ {
			if spans[k].Parent == p {
				kids = append(kids, k)
			}
		}
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		cursor, covered := eff[p].a, int64(0)
		for _, k := range kids {
			a, b := max(spans[k].Start, cursor), min(spans[k].End, eff[p].b)
			if b < a {
				b = a
			}
			eff[k] = interval{a, b}
			covered += b - a
			cursor = b
		}
		self[p] = eff[p].b - eff[p].a - covered
	}
	return self
}

// enter opens the efs.commit span, nested on the client's side of the
// op; leave closes it.
func (t *tracer) enter(ot *opTrace) int {
	ot.mu.Lock()
	defer ot.mu.Unlock()
	ot.client = ot.open(spanCommit, 1, t.now())
	return ot.client
}

// open appends a span that is still running, under the innermost
// client-side span. The caller holds ot.mu.
func (ot *opTrace) open(name string, node uint32, start int64) int {
	id := len(ot.spans)
	ot.spans = append(ot.spans, span{Op: ot.spans[0].Op, ID: id, Parent: ot.client, Name: name, Node: node, Start: start})
	return id
}

func (t *tracer) leave(ot *opTrace, id int) {
	ot.mu.Lock()
	s := &ot.spans[id]
	s.End = t.now()
	ot.client = s.Parent
	d := s.End - s.Start
	ot.mu.Unlock()
	t.capMu.Lock()
	t.commitLat = append(t.commitLat, uint32(d))
	t.capMu.Unlock()
}

// attach records a finished child span under the op (nil: no op): under its open
// handler when the work ran inside one (a checkpoint's Put), else under
// the innermost client-side span.
func (ot *opTrace) attach(name string, node uint32, start, end int64, inHandler bool) {
	if ot == nil {
		return
	}
	ot.mu.Lock()
	defer ot.mu.Unlock()
	if !ot.done {
		parent := ot.client
		if inHandler && ot.handler >= 0 {
			parent = ot.handler
		}
		ot.spans = append(ot.spans, span{Op: ot.spans[0].Op, ID: len(ot.spans), Parent: parent, Name: name, Node: node, Start: start, End: end})
	}
	// Otherwise it is work no open op can own — eviction that recharge
	// started in the background, a frame for an op that already timed
	// out — and only the wrappers' counters have it.
}

func (t *tracer) opFor(obj edenid.ID) *opTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byObject[obj]
}

// traceHandlers wraps every handler of every registered type in a span.
func traceHandlers(reg *kernel.Registry, t *tracer) {
	for _, name := range reg.Names() {
		tm, _ := reg.Lookup(name)
		for _, op := range tm.Operations {
			h := op.Handler
			op.Handler = func(c *kernel.Call) {
				if !t.on.Load() {
					h(c)
					return
				}
				start := t.now()
				ot, id := t.opFor(c.Self().ID()), -1
				if ot != nil {
					ot.mu.Lock()
					if !ot.done {
						id = ot.open(spanHandler, c.Self().Node(), start)
						ot.handler = id
					}
					ot.mu.Unlock()
				}
				h(c)
				if id < 0 {
					return // a handler no open op owns
				}
				ot.mu.Lock()
				if !ot.done {
					ot.spans[id].End = t.now()
					ot.handler = -1
				}
				ot.mu.Unlock()
			}
		}
	}
}

// tracedTransport times Send and counts what crosses it.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

// wireOverhead is the TCP transport's length prefix plus the envelope
// header that precede every payload.
const wireOverhead = 4 + 30

func (tt *tracedTransport) Send(env msg.Envelope) error {
	t := tt.t
	if !t.on.Load() {
		return tt.Transport.Send(env)
	}
	start := t.now()
	err := tt.Transport.Send(env)
	end := t.now()

	fanout := int64(1)
	if env.To == msg.Broadcast {
		fanout = int64(len(tt.Peers()))
	}
	t.frames.Add(fanout)
	t.wireBytes.Add(fanout * int64(wireOverhead+len(env.Payload)))
	t.sendNanos.Add(end - start)

	t.capMu.Lock()
	if len(t.envs) < maxEnvelopes {
		env.From = tt.Node()
		env.Payload = append([]byte(nil), env.Payload...) // the caller may reuse its buffer
		t.envs = append(t.envs, env)
	}
	t.capMu.Unlock()

	var ot *opTrace
	switch env.Kind {
	case msg.KindInvokeReq, msg.KindLocateReq, msg.KindLocateRep:
		// All three payloads begin with the object's name.
		if id, _, derr := edenid.Decode(env.Payload); derr == nil {
			ot = t.opFor(id)
		}
		if env.Kind == msg.KindInvokeReq && ot != nil {
			t.mu.Lock()
			t.byCorr[env.Corr] = ot
			t.mu.Unlock()
		}
	case msg.KindInvokeRep:
		t.mu.Lock()
		ot = t.byCorr[env.Corr]
		delete(t.byCorr, env.Corr)
		t.mu.Unlock()
	}
	ot.attach(spanSend, tt.Node(), start, end, false)
	return err
}

// tracedStore times Put and Get and counts what they move. The other
// Store methods pass through the embedded interface.
type tracedStore struct {
	store.Store
	t    *tracer
	node uint32
}

func (ts *tracedStore) Put(rec store.Record) error {
	t := ts.t
	if !t.on.Load() {
		return ts.Store.Put(rec)
	}
	start := t.now()
	err := ts.Store.Put(rec)
	end := t.now()
	t.puts.Add(1)
	t.putBytes.Add(int64(len(rec.Rep)))
	t.storeNanos.Add(end - start)
	t.capMu.Lock()
	t.putLat = append(t.putLat, uint32(end-start))
	if len(t.recs) < maxRecords {
		t.recs = append(t.recs, rec) // the kernel encodes a fresh Rep per checkpoint
	}
	t.capMu.Unlock()

	ot := t.opFor(rec.Object)
	if ot == nil {
		// Not the object any op is on: an eviction victim, checkpointed
		// to make room for the op that last faulted on this node.
		t.mu.Lock()
		ot = t.faulting[ts.node]
		t.mu.Unlock()
	}
	ot.attach(spanPut, ts.node, start, end, true)
	return err
}

func (ts *tracedStore) Get(id edenid.ID) (store.Record, error) {
	t := ts.t
	if !t.on.Load() {
		return ts.Store.Get(id)
	}
	start := t.now()
	rec, err := ts.Store.Get(id)
	end := t.now()
	t.gets.Add(1)
	t.storeNanos.Add(end - start)
	t.capMu.Lock()
	t.getLat = append(t.getLat, uint32(end-start))
	t.capMu.Unlock()

	ot := t.opFor(id)
	if ot != nil {
		t.mu.Lock()
		t.faulting[ts.node] = ot
		t.mu.Unlock()
	}
	ot.attach(spanGet, ts.node, start, end, true)
	return rec, err
}

// writeTrace writes the kept spans to path.
func (t *tracer) writeTrace(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Ops      int    `json:"ops"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.keptOps, t.kept})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
