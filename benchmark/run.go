package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"eden/internal/efs"
	"eden/internal/kernel"
)

// Shape of a run, the same for every workload:
//
//	set-up (timed) → warm-up, 5 % of the ops, discarded → measured
//	window of a fixed number of ops → output check → more set-ups (timed)
//
// The end-to-end run does this with bare kernels. The traced run does
// it with a quarter of the ops, twice: once bare, as the reference, and
// once with every wrapper recording and Config.Telemetry on.

const (
	// setup_s is the median of an end-to-end run's set-ups: at least three
	// and at least setupShare of the window's nominal length, at most
	// maxSetups; but two are enough once setupBudget has gone into them.
	maxSetups   = 200
	setupShare  = 0.2
	setupBudget = 10 * time.Second

	warmShare   = 0.05 // warm-up ops as a share of the measured ops
	tracedShare = 0.25 // traced-run ops as a share of the end-to-end run's
	segments    = 100  // equal parts of the window that rates and percentiles are medians over
	conflictTry = 3    // retries of a write transaction that lost to a conflict; a fourth loss is a failed op
	failedOp    = ^uint32(0)
)

// Error classes of the tally. A conflict is counted only once its
// retries are used up.
const (
	errConflict = iota
	errCrashed
	errTimeout
	errOther
	errWrong
	errClasses
)

var errClassNames = [errClasses]string{"conflict", "crashed", "timeout", "other", "wrong-value"}

var errWrongValue = errors.New("benchmark: wrong value")

func classify(err error) int {
	switch {
	case errors.Is(err, errWrongValue):
		return errWrong
	case errors.Is(err, efs.ErrConflict):
		return errConflict
	case errors.Is(err, kernel.ErrCrashed):
		return errCrashed
	case errors.Is(err, kernel.ErrTimeout):
		return errTimeout
	}
	return errOther
}

// client is one load generator: a closed loop that issues its share of
// the op stream on node 1 and checks what comes back.
type client struct {
	c      *cluster
	w      *workload
	seed   uint64
	writer uint32
	k      *kernel.Kernel
	fs     *efs.Client
	tr     *tracer
	opts   *kernel.InvokeOptions

	seen   []uint64 // per key: highest seq this client has observed
	acked  []uint32 // per key: this client's acknowledged writes
	unsure []uint32 // per key: writes that failed in a way that may still have applied
	errs   [errClasses]int
	buf    []byte // request of the synchronous op in flight
	slots  [inflight]slot

	txAttempts, txConflicts int
}

// slot is one outstanding asynchronous invocation.
type slot struct {
	p     *kernel.Pending
	i     int
	o     op
	start time.Time
	buf   []byte
	ot    *opTrace
}

func newClients(c *cluster, seed uint64, tr *tracer) []*client {
	cs := make([]*client, generators)
	for n := range cs {
		g := &client{
			c: c, w: c.w, seed: seed, writer: uint32(n + 1), k: c.kernels[0], tr: tr,
			fs:     efs.NewClient(c.kernels[0], efs.Optimistic),
			opts:   &kernel.InvokeOptions{Timeout: invokeTimeout},
			seen:   make([]uint64, c.w.keys),
			acked:  make([]uint32, c.w.keys),
			unsure: make([]uint32, c.w.keys),
			buf:    make([]byte, maxBody),
		}
		if c.w.async {
			for s := range g.slots {
				g.slots[s].buf = make([]byte, maxBody)
			}
		}
		cs[n] = g
	}
	return cs
}

// tracing reports whether this op belongs to a traced window.
func (g *client) tracing() bool { return g.tr != nil && g.tr.on.Load() }

// observe checks a value read for key: the CRC holds, it is that key's,
// and its seq is not older than one this client has already seen.
func (g *client) observe(key int, v []byte) error {
	k, _, seq, ok := openValue(v)
	if !ok || int(k) != key || seq < g.seen[key] {
		return errWrongValue
	}
	g.seen[key] = seq
	return nil
}

// request builds op o's request (or new value) in buf.
func (g *client) request(buf []byte, o op, seq uint64) []byte {
	v := buf[:o.size]
	g.c.fillBody(v, o.salt)
	sealValue(v, uint32(o.key), g.writer, seq)
	return v
}

// wrote notes the outcome of a write of key: its new seq when it was
// acknowledged, else whether it may have applied all the same.
func (g *client) wrote(key int, seq uint64, err error, mayHaveApplied bool) {
	switch {
	case err == nil:
		g.acked[key]++
		g.seen[key] = max(g.seen[key], seq)
	case mayHaveApplied:
		g.unsure[key]++
	}
}

// do issues one synchronous op and checks its result.
func (g *client) do(i int, o op) error {
	cp := g.c.caps[o.key]
	var ot *opTrace
	if g.tracing() {
		ot = g.tr.begin(i, o.write, cp.ID())
	}
	var err error
	switch {
	case g.w.efs && o.write:
		err = g.kvWrite(o, ot)
	case g.w.efs:
		var data []byte
		if data, _, err = g.fs.Read(cp); err == nil {
			err = g.observe(o.key, data)
		}
	case o.write:
		var rep kernel.Reply
		rep, err = g.k.Invoke(cp, "put", g.request(g.buf, o, 0), nil, g.opts)
		g.cellWrote(o.key, rep, err)
	default:
		var rep kernel.Reply
		if rep, err = g.k.Invoke(cp, "get", nil, nil, g.opts); err == nil {
			err = g.observe(o.key, rep.Data)
		}
	}
	if ot != nil {
		g.tr.end(ot)
	}
	return err
}

func (g *client) cellWrote(key int, rep kernel.Reply, err error) {
	var seq uint64
	if err == nil && len(rep.Data) == 8 {
		seq = binary.BigEndian.Uint64(rep.Data)
	}
	// A put that errs may have run: a timeout only stops the waiting.
	g.wrote(key, seq, err, true)
}

// kvWrite is one EFS write transaction, begin to final acknowledgement:
// read the latest version, write its successor on top of it, commit;
// start over when the commit loses to a concurrent writer. Read then
// Write is what Tx.WriteLatest does, spelt out so that the new value's
// seq can be the old value's plus one.
func (g *client) kvWrite(o op, ot *opTrace) error {
	cp := g.c.caps[o.key]
	for try := 0; ; try++ {
		tx := g.fs.Begin()
		old, ver, err := tx.Read(cp)
		if err == nil {
			err = g.observe(o.key, old)
		}
		if err != nil {
			return err
		}
		_, _, seq, _ := openValue(old)
		if err := tx.Write(cp, ver, g.request(g.buf, o, seq+1)); err != nil {
			return err
		}
		var commit int
		if ot != nil {
			commit = g.tr.enter(ot)
		}
		err = tx.Commit()
		if ot != nil {
			g.tr.leave(ot, commit)
		}
		g.txAttempts++
		lost := errors.Is(err, efs.ErrConflict) // refused at prepare: certainly not applied
		if lost {
			g.txConflicts++
			if try < conflictTry {
				continue
			}
		}
		g.wrote(o.key, seq+1, err, !lost)
		return err
	}
}

// submit starts op i asynchronously in slot s.
func (g *client) submit(s *slot, i int, o op) {
	s.i, s.o = i, o
	name := "echo"
	if o.write {
		name = "put"
	}
	cp := g.c.caps[o.key]
	req := g.request(s.buf, o, 0)
	s.ot = nil
	if g.tracing() {
		s.ot = g.tr.begin(i, o.write, cp.ID())
	}
	s.start = time.Now()
	s.p = g.k.InvokeAsync(cp, name, req, nil, g.opts)
}

// finish collects slot s's resolved invocation and checks it: an echo
// must return the request byte for byte.
func (g *client) finish(s *slot) error {
	rep, err := s.p.Wait()
	if s.ot != nil {
		g.tr.end(s.ot)
	}
	s.p = nil
	if s.o.write {
		g.cellWrote(s.o.key, rep, err)
	} else if err == nil && !bytes.Equal(rep.Data, s.buf[:s.o.size]) {
		err = errWrongValue
	}
	return err
}

// recorder receives the per-op results of the measured window.
type recorder struct {
	lo     int       // index of the window's first op
	lat    []uint32  // ns per op; failedOp marks an op that failed
	start  time.Time // window start
	segOps int
	segAt  []int64         // ns since start when each segment's first op was drawn
	segCPU []time.Duration // process CPU time at that moment
}

func (r *recorder) drawn(i int, at time.Time) {
	if n := i - r.lo; n%r.segOps == 0 {
		r.segAt[n/r.segOps] = int64(at.Sub(r.start))
		r.segCPU[n/r.segOps] = cpuTime()
	}
}

func (g *client) note(r *recorder, i int, d time.Duration, err error) {
	if err != nil {
		g.errs[classify(err)]++
	}
	if r == nil {
		return
	}
	switch {
	case err != nil:
		r.lat[i-r.lo] = failedOp
	case d >= time.Duration(failedOp):
		r.lat[i-r.lo] = failedOp - 1
	default:
		r.lat[i-r.lo] = uint32(d)
	}
}

// runSync is the synchronous closed loop. One clock read per op: an
// op's latency runs from the previous op's completion to its own, so it
// includes the ~0.1 µs the generator takes to draw and check.
func (g *client) runSync(lo, hi int, r *recorder) {
	prev := time.Now()
	for i := lo; i < hi; i += generators {
		if r != nil {
			r.drawn(i, prev)
		}
		err := g.do(i, g.w.op(g.seed, i))
		now := time.Now()
		g.note(r, i, now.Sub(prev), err)
		prev = now
	}
}

// runAsync keeps `inflight` invocations outstanding: whenever one
// resolves, its slot is checked and refilled. Latency is submit to
// resolved, as seen by the generator.
func (g *client) runAsync(lo, hi int, r *recorder) {
	next := lo
	fill := func(s *slot) {
		i := next
		if i >= hi {
			return
		}
		next += generators
		if r != nil {
			r.drawn(i, time.Now())
		}
		g.submit(s, i, g.w.op(g.seed, i))
	}
	for s := range g.slots {
		fill(&g.slots[s])
	}
	for {
		s := g.waitAny()
		if s == nil {
			return
		}
		i, start := s.i, s.start
		err := g.finish(s)
		g.note(r, i, time.Since(start), err)
		fill(s)
	}
}

// waitAny blocks until one outstanding slot resolves and returns it, or
// nil when none is outstanding. An empty slot's channel is nil and never
// ready.
func (g *client) waitAny() *slot {
	var ch [inflight]<-chan struct{}
	busy := false
	for s := range g.slots {
		if p := g.slots[s].p; p != nil {
			ch[s], busy = p.Done(), true
		}
	}
	if !busy {
		return nil
	}
	n := 0
	select {
	case <-ch[0]:
		n = 0
	case <-ch[1]:
		n = 1
	case <-ch[2]:
		n = 2
	case <-ch[3]:
		n = 3
	case <-ch[4]:
		n = 4
	case <-ch[5]:
		n = 5
	case <-ch[6]:
		n = 6
	case <-ch[7]:
		n = 7
	}
	return &g.slots[n]
}

// drive runs ops [lo, hi) through the generators, op i through
// generator i%generators, and waits for them. lo is a multiple of
// generators.
func drive(clients []*client, lo, hi int, r *recorder) {
	var wg sync.WaitGroup
	for n, g := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.w.async {
				g.runAsync(lo+n, hi, r)
			} else {
				g.runSync(lo+n, hi, r)
			}
		}()
	}
	wg.Wait()
}

// window is what was measured around the measured ops.
type window struct {
	rec      *recorder
	wall     time.Duration
	mallocs  uint64
	liveHeap uint64 // HeapAlloc after a forced GC at window end, less the recorder's own buffer
	errs     [errClasses]int
	failed   int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure warms the cluster up with ops [0, warm) and measures ops
// [warm, warm+n). tr, when set, records only during the window; atStart,
// when set, runs right before it.
func measure(clients []*client, n int, tr *tracer, atStart func()) *window {
	warm := int(warmShare*float64(n)) / generators * generators
	drive(clients, 0, warm, nil)
	for _, g := range clients {
		g.errs = [errClasses]int{} // warm-up failures are discarded with the warm-up
	}

	r := &recorder{lo: warm, lat: make([]uint32, n), segOps: n / segments,
		segAt: make([]int64, segments+1), segCPU: make([]time.Duration, segments+1)}
	var ms runtime.MemStats
	runtime.GC()
	if atStart != nil {
		atStart()
	}
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	if tr != nil {
		tr.on.Store(true)
	}
	r.start = time.Now()

	drive(clients, warm, warm+n, r)

	w := &window{rec: r, wall: time.Since(r.start)}
	r.segAt[segments], r.segCPU[segments] = int64(w.wall), cpuTime()
	if tr != nil {
		tr.on.Store(false)
	}
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	w.liveHeap = ms.HeapAlloc - min(ms.HeapAlloc, uint64(4*len(r.lat)))
	for _, g := range clients {
		for c, k := range g.errs {
			w.errs[c] += k
			w.failed += k
		}
	}
	return w
}

// verify reads back every key that was written and checks that its seq
// counts the acknowledged writes: one more per acknowledged write, and
// at most one more per write of unknown outcome. It returns the number
// of keys that fail and the longest version history met.
func verify(clients []*client) (wrong int, history uint64) {
	g := clients[0]
	for key := range g.acked {
		var acked, unsure uint64
		for _, c := range clients {
			acked += uint64(c.acked[key])
			unsure += uint64(c.unsure[key])
		}
		if acked+unsure == 0 {
			continue
		}
		var v []byte
		var err error
		if g.w.efs {
			var ver uint64
			v, ver, err = g.fs.Read(g.c.caps[key])
			history = max(history, ver)
		} else {
			var rep kernel.Reply
			rep, err = g.k.Invoke(g.c.caps[key], "get", nil, nil, g.opts)
			v = rep.Data
		}
		k, _, seq, ok := openValue(v)
		if err != nil || !ok || int(k) != key || seq < 1+acked || seq > 1+acked+unsure {
			wrong++
		}
	}
	return wrong, history
}

// result is one run's outcome, as printed and as written to -out.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Ops       int               `json:"ops"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    map[string]int    `json:"errors"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"` // sample count behind each percentile
	// The bare run's median set-up as the clock showed it, and how slow
	// the machine was then; setup_s is the first over the second.
	SetupWall  float64        `json:"setup_wall_s,omitempty"`
	SpeedIndex float64        `json:"speed_index,omitempty"`
	Breakdown  []breakdownRow `json:"breakdown,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{v, d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

func newResult(w *workload, seed uint64, seconds float64, n int) *result {
	return &result{Workload: w.name, Seed: seed, Seconds: seconds, Ops: n,
		Errors: make(map[string]int), Metrics: make(map[string]metric), Samples: make(map[string]int)}
}

// tally folds the window's failures and the end-of-run check into the
// result.
func (r *result) tally(w *window, wrongKeys int) {
	r.Attempted = len(w.rec.lat)
	r.Failed = w.failed + wrongKeys
	for c, k := range w.errs {
		r.Errors[errClassNames[c]] = k
	}
	r.Errors["lost-update"] = wrongKeys
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// endToEnd is the bare run behind the end-to-end metrics.
func endToEnd(w *workload, seed uint64, seconds float64, outDir string) (*result, error) {
	n := w.opsFor(seconds) / segments * segments
	p, err := prepare(w, seed, outDir)
	if err != nil {
		return nil, err
	}
	defer p.remove()
	// Every set-up is followed by a tenth of its length of speed samples
	// (speed.go).
	var machine speed
	setup := func() (*cluster, time.Duration, error) {
		runtime.GC()
		start := time.Now()
		c, err := newCluster(w, seed, nil, p)
		d := time.Since(start)
		machine.sample(d / 10)
		return c, d, err
	}
	c, spent, err := setup()
	if err != nil {
		return nil, err
	}
	clients := newClients(c, seed, nil)
	win := measure(clients, n, nil, nil)
	wrong, _ := verify(clients)
	c.close()

	// The other set-ups come after the window, so that what they leave
	// for the collector cannot disturb it; on file stores they restart on
	// the directories the run left. A cheap set-up is a noisy one and is
	// repeated more often.
	times := []float64{spent.Seconds()}
	floor := time.Duration(setupShare * seconds * float64(time.Second))
	for len(times) < maxSetups && (len(times) < 3 || spent < floor) && (len(times) < 2 || spent < setupBudget) {
		c, d, err := setup()
		if err != nil {
			return nil, err
		}
		c.close()
		spent += d
		times = append(times, d.Seconds())
	}

	r := newResult(w, seed, seconds, n)
	r.tally(win, wrong)
	e := func(name string, v float64) { r.set(endToEndDefs, name, v) }
	r.SetupWall, r.SpeedIndex = median(times), machine.index()
	e("setup_s", r.SetupWall/r.SpeedIndex)
	win.timings(r, w, seed)
	r.set(perLayerDefs, "fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)))
	e("allocs_per_op", float64(win.mallocs)/float64(n))
	e("live_heap_mb", float64(win.liveHeap)/(1<<20))
	return r, nil
}

// timings sets the result's six timing metrics from this window.
func (w *window) timings(r *result, wl *workload, seed uint64) {
	t := func(name string, v float64) { r.set(timingDefs, name, v) }
	t("ops_per_s", w.opsPerSecond())
	t("cpu_us_per_op", w.cpuPerOp())
	reads, writes := w.latencies(wl, seed)
	for _, q := range []struct {
		name    string
		samples []uint32
		q       float64
	}{
		{"read_p50_us", reads, 0.50}, {"read_p99_us", reads, 0.99},
		{"write_p50_us", writes, 0.50}, {"write_p95_us", writes, 0.95},
	} {
		if len(q.samples) == 0 {
			continue // kv-paged writes nothing
		}
		t(q.name, steadyQuantile(q.samples, q.q)/1e3)
		r.Samples[q.name] = len(q.samples)
	}
}

// opsPerSecond is the median over the window's segments of correct ops
// completed per second.
func (w *window) opsPerSecond() float64 {
	r := w.rec
	rates := make([]float64, 0, segments)
	for s := 0; s < segments; s++ {
		ok := 0
		for _, d := range r.lat[s*r.segOps : (s+1)*r.segOps] {
			if d != failedOp {
				ok++
			}
		}
		if dt := r.segAt[s+1] - r.segAt[s]; dt > 0 {
			rates = append(rates, float64(ok)/(float64(dt)/1e9))
		}
	}
	return median(rates)
}

// cpuPerOp is the median over the window's segments of process CPU time
// (user+sys, getrusage) per op, in µs.
func (w *window) cpuPerOp() float64 {
	r := w.rec
	per := make([]float64, segments)
	for s := range per {
		per[s] = us(r.segCPU[s+1]-r.segCPU[s]) / float64(r.segOps)
	}
	return median(per)
}

// latencies splits the window's successful ops into reads and writes,
// in op order. Which op was which is recomputed from the seed.
func (w *window) latencies(wl *workload, seed uint64) (reads, writes []uint32) {
	for n, d := range w.rec.lat {
		switch {
		case d == failedOp:
		case wl.op(seed, w.rec.lo+n).write:
			writes = append(writes, d)
		default:
			reads = append(reads, d)
		}
	}
	return reads, writes
}

func (r *result) print() {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%s %s %.6g %s", r.Workload, d.name, m.Value, m.Unit)
			if n, ok := r.Samples[d.name]; ok {
				line += fmt.Sprintf(" (n=%d)", n)
			}
			fmt.Println(line)
		}
	}
	if r.SpeedIndex > 0 {
		fmt.Printf("%s set-up took %.6g s by the clock, on a machine at %.4g of its nominal time per unit of work\n", r.Workload, r.SetupWall, r.SpeedIndex)
	}
	fmt.Printf("%s attempted %d failed %d", r.Workload, r.Attempted, r.Failed)
	for _, name := range append(errClassNames[:], "lost-update") {
		fmt.Printf(" %s=%d", name, r.Errors[name])
	}
	fmt.Println()
	if len(r.Breakdown) > 0 {
		fmt.Printf("%s breakdown of the client op (self time, traced run):\n", r.Workload)
		for _, b := range r.Breakdown {
			fmt.Printf("%s   %-15s %10.3f us/op %6.2f %%  (%d spans)\n", r.Workload, b.Span, b.SelfUs, 100*b.Share, b.Count)
		}
	}
}
