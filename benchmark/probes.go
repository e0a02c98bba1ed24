package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/efs"
	"eden/internal/kernel"
	"eden/internal/msg"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/transport"
)

// The layer probes replay what the traced run's wrappers captured —
// the real envelopes, the real checkpoint records, the real names —
// through each layer's exported functions, on one goroutine, and report
// time and allocations per call. A workload that sent no frame or wrote
// no record has nothing to replay, and its probes of those layers report
// zero (perLayer starts every metric at zero): the layer did nothing
// there. Every probe makes a fixed number of calls. A probe that cannot
// run says why on standard error and leaves its metrics at zero.

// timeCalls runs f n times and returns ns and allocations per call.
func timeCalls(n int, f func(i int)) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(d) / float64(n), float64(ms.Mallocs-m0) / float64(n)
}

// probe runs every layer probe after the traced window of ops
// [lo, lo+n) on cluster c.
func probe(p func(string, float64), w *workload, seed uint64, c *cluster, tr *tracer, lo, n int, outDir string) {
	probeRights(p, c)
	probeMsg(p, tr.envs)
	probeSegment(p, tr.recs)
	probeLocator(p, w, seed, c, lo, n)
	for _, pr := range []struct {
		name string
		run  func() error
	}{
		{"floor", func() error { return probeFloor(p, seed) }},
		{"tcp", func() error { return probeTCP(p, tr.envs) }},
		{"file store", func() error { return probeFileStore(p, tr.recs, c.dirs, outDir) }},
		{"lifecycle", func() error { return probeLifecycle(p, tr.recs) }},
	} {
		if err := pr.run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s probe: %v\n", w.name, pr.name, err)
		}
	}
}

var sink atomic.Int64

// probeRights times the rights gate on the run's own capabilities.
func probeRights(p func(string, float64), c *cluster) {
	const n = 1 << 24
	held := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if c.caps[i%len(c.caps)].Has(rights.Invoke) {
			held++
		}
	}
	p("rights.check_ns", float64(time.Since(start))/n)
	sink.Add(int64(held))
}

// probeFloor measures what a local invocation costs when the handler
// does nothing: one kernel, one object, one caller.
func probeFloor(p func(string, float64), seed uint64) error {
	c, err := newCluster(&workload{name: "floor", nodes: 1, keys: 1, value: 256}, seed, nil, nil)
	if err != nil {
		return err
	}
	defer c.close()
	k, opts := c.kernels[0], &kernel.InvokeOptions{Timeout: invokeTimeout}
	call := func(int) {
		if _, cerr := k.Invoke(c.caps[0], "nop", nil, nil, opts); cerr != nil {
			err = cerr
		}
	}
	timeCalls(20_000, call) // warm the object's process and the allocator
	ns, allocs := timeCalls(200_000, call)
	if err != nil {
		return err
	}
	p("kernel.invoke_floor_ns", ns)
	p("kernel.invoke_floor_allocs", allocs)
	return nil
}

// probeMsg re-encodes and re-decodes the captured frames the way the
// kernel and the TCP transport do: typed payload, then envelope into a
// pooled buffer.
func probeMsg(p func(string, float64), envs []msg.Envelope) {
	if len(envs) == 0 {
		return
	}
	type frame struct {
		env  msg.Envelope
		req  msg.InvokeReq
		rep  msg.InvokeRep
		wire []byte
	}
	frames := make([]frame, len(envs))
	var bytes int
	for i, e := range envs {
		f := frame{env: e, wire: msg.EncodeEnvelope(nil, e)}
		switch e.Kind {
		case msg.KindInvokeReq:
			f.req, _ = msg.DecodeInvokeReq(e.Payload)
		case msg.KindInvokeRep:
			f.rep, _ = msg.DecodeInvokeRep(e.Payload)
		}
		frames[i] = f
		bytes += len(f.wire)
	}
	const calls = 40_000
	ns, allocs := timeCalls(calls, func(i int) {
		f := &frames[i%len(frames)]
		e := f.env
		switch e.Kind {
		case msg.KindInvokeReq:
			e.Payload = f.req.Encode(nil)
		case msg.KindInvokeRep:
			e.Payload = f.rep.Encode(nil)
		}
		b := msg.GetBuffer()
		b.B = msg.EncodeEnvelope(b.B, e)
		b.Free()
	})
	p("msg.encode_ns", ns)
	p("msg.encode_allocs", allocs)
	ns, allocs = timeCalls(calls, func(i int) {
		e, _, err := msg.DecodeEnvelope(frames[i%len(frames)].wire)
		if err != nil {
			return
		}
		switch e.Kind {
		case msg.KindInvokeReq:
			_, _ = msg.DecodeInvokeReq(e.Payload)
		case msg.KindInvokeRep:
			_, _ = msg.DecodeInvokeRep(e.Payload)
		}
	})
	p("msg.decode_ns", ns)
	p("msg.decode_allocs", allocs)
	p("msg.bytes_per_frame", float64(bytes)/float64(len(frames)))
}

// probeTCP measures the floor under a remote invocation: two bare
// transport.TCP endpoints on loopback, the second echoing every frame,
// carrying the captured frames one at a time (round-trip time) and
// sixteen at a time (frames per second, both directions counted).
func probeTCP(p func(string, float64), envs []msg.Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	a, err := transport.NewTCP(1, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCP(2, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	b.SetHandler(func(e msg.Envelope) {
		e.To = 1
		_ = b.Send(e)
	})
	back := make(chan struct{}, 64) // holds every echo of the deepest stream (16) without blocking the read loop
	a.SetHandler(func(msg.Envelope) { back <- struct{}{} })
	send := func(i int) {
		e := envs[i%len(envs)]
		e.To = 2
		_ = a.Send(e)
	}
	wait := func() bool {
		select {
		case <-back:
			return true
		case <-time.After(invokeTimeout):
			return false
		}
	}
	stream := func(n, depth int) (time.Duration, error) {
		start := time.Now()
		sent := 0
		for ; sent < depth; sent++ {
			send(sent)
		}
		for got := 0; got < n; got++ {
			if !wait() {
				return 0, fmt.Errorf("echo %d of %d did not come back within %v", got, n, invokeTimeout)
			}
			if sent < n {
				send(sent)
				sent++
			}
		}
		return time.Since(start), nil
	}
	if _, err := stream(500, 1); err != nil { // connect both ways first
		return err
	}
	const pings, streamed = 4_000, 40_000
	d, err := stream(pings, 1)
	if err != nil {
		return err
	}
	p("transport.tcp_rtt_us", us(d)/pings)
	if d, err = stream(streamed, 16); err != nil {
		return err
	}
	p("transport.tcp_frames_per_s", 2*streamed/d.Seconds())
	return nil
}

// probeSegment decodes and re-encodes the captured representations.
func probeSegment(p func(string, float64), recs []store.Record) {
	if len(recs) == 0 {
		return
	}
	reps := make([]*segment.Representation, len(recs))
	var kb float64
	for i, rec := range recs {
		reps[i], _, _ = segment.Decode(rec.Rep)
		kb += float64(len(rec.Rep)) / 1024
	}
	rounds := 8_000/len(recs) + 1
	calls := rounds * len(recs)
	ns, _ := timeCalls(calls, func(i int) { _, _, _ = segment.Decode(recs[i%len(recs)].Rep) })
	p("segment.decode_ns_per_kb", ns*float64(calls)/(kb*float64(rounds)))
	ns, allocs := timeCalls(calls, func(i int) {
		if r := reps[i%len(reps)]; r != nil {
			sink.Add(int64(len(r.Encode(nil))))
		}
	})
	p("segment.encode_ns_per_kb", ns*float64(calls)/(kb*float64(rounds)))
	p("segment.encode_allocs", allocs)
}

// probeFileStore puts and gets the captured records on a fresh
// store.File, fsync policy untouched, and times the restart scan
// (NewFile, List, ListIntents) of a home node's directory as the run
// left it; a memory workload left none, and scans the fresh one.
func probeFileStore(p func(string, float64), recs []store.Record, dirs []string, outDir string) error {
	if len(recs) == 0 {
		return nil
	}
	if err := os.MkdirAll(storesDir(outDir), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(storesDir(outDir), "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := store.NewFile(dir)
	if err != nil {
		return err
	}
	recs = recs[:min(len(recs), 256)]
	// Captured in order, so each object's versions only rise.
	ns, _ := timeCalls(len(recs), func(i int) {
		if perr := f.Put(recs[i]); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}
	p("store.file_put_us", ns/1e3)
	ns, _ = timeCalls(len(recs), func(i int) {
		if _, gerr := f.Get(recs[i].Object); gerr != nil {
			err = gerr
		}
	})
	if err != nil {
		return err
	}
	p("store.file_get_us", ns/1e3)

	if len(dirs) > 0 {
		dir = dirs[len(dirs)-1]
	}
	start := time.Now()
	if f, err = store.NewFile(dir); err != nil {
		return err
	}
	ids, err := f.List()
	if err != nil {
		return err
	}
	its, err := f.ListIntents()
	if err != nil {
		return err
	}
	p("store.open_ms", float64(time.Since(start))/1e6)
	sink.Add(int64(len(ids) + len(its)))
	return nil
}

// probeLifecycle checkpoints and reincarnates an object built from the
// captured record of median size, on a memory store: each round invokes
// the passive object (reincarnation), checkpoints it, and passivates it.
func probeLifecycle(p func(string, float64), recs []store.Record) error {
	if len(recs) == 0 {
		return nil
	}
	bySize := append([]store.Record(nil), recs...)
	sort.Slice(bySize, func(i, j int) bool { return len(bySize[i].Rep) < len(bySize[j].Rep) })
	rec := bySize[len(bySize)/2]
	rec.Backup, rec.Home = false, 0

	reg := kernel.NewRegistry()
	if err := registerCell(reg); err != nil {
		return err
	}
	if err := efs.RegisterType(reg); err != nil {
		return err
	}
	st := store.NewMemory()
	if err := st.Put(rec); err != nil {
		return err
	}
	tcp, err := transport.NewTCP(1, "127.0.0.1:0")
	if err != nil {
		return err
	}
	k := kernel.New(kernel.DefaultConfig(1, "probe"), tcp, reg, st)
	defer k.Close()
	cp := capability.New(rec.Object, rights.All)
	opName, arg := "get", []byte(nil)
	if rec.TypeName == efs.TypeName {
		opName, arg = "read", make([]byte, 8)
	}
	opts := &kernel.InvokeOptions{Timeout: invokeTimeout}
	const rounds = 2_000
	var reincarnate, checkpoint time.Duration
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, err := k.Invoke(cp, opName, arg, nil, opts); err != nil {
			return err
		}
		t1 := time.Now()
		obj, err := k.Object(rec.Object)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if err := obj.Checkpoint(); err != nil {
			return err
		}
		checkpoint += time.Since(t2)
		reincarnate += t1.Sub(t0)
		if err := obj.Passivate(); err != nil {
			return err
		}
	}
	p("lifecycle.checkpoint_us", us(checkpoint)/rounds)
	p("lifecycle.reincarnate_us", us(reincarnate)/rounds)
	return nil
}

// probeLocator times Lookup on the names node 1 learnt during the
// window of ops [lo, lo+n): those of the keys it invoked. A first,
// untimed pass looks each one up, so that a name the locator has since
// dropped is learnt again, or left out if no node answers for it.
func probeLocator(p func(string, float64), w *workload, seed uint64, c *cluster, lo, n int) {
	if w.nodes == 1 {
		return
	}
	loc := c.kernels[0].Locator()
	seen := make(map[int]bool)
	var ids []edenid.ID
	for i := lo; i < lo+min(n, maxEnvelopes); i++ {
		key := w.op(seed, i).key
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, err := loc.Lookup(c.caps[key].ID(), time.Second); err == nil {
			ids = append(ids, c.caps[key].ID())
		}
	}
	if len(ids) == 0 {
		return
	}
	ns, _ := timeCalls(100_000, func(i int) { _, _ = loc.Lookup(ids[i%len(ids)], time.Second) })
	p("locator.lookup_warm_ns", ns)
}
