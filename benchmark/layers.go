package main

import (
	"path/filepath"
	"sort"

	"eden/internal/kernel"
	"eden/internal/locator"
	"eden/internal/telemetry"
)

// breakdownRow is one line of the traced run's breakdown of the client
// op: the self time of all spans of one name. The shares add up to one.
type breakdownRow struct {
	Span   string  `json:"span"`
	Count  int64   `json:"count"`
	SelfUs float64 `json:"self_us_per_op"`
	Share  float64 `json:"share"`
}

// counters is everything the program itself counts, summed over the
// cluster's nodes; the per-layer metrics are differences of two of them
// taken around the window.
type counters struct {
	k   kernel.Stats
	loc locator.Stats
	tel telemetry.Snapshot
}

func readCounters(c *cluster) counters {
	var n counters
	for _, k := range c.kernels {
		s, l := k.Stats(), k.Locator().Stats()
		n.k.LocalInvokes += s.LocalInvokes
		n.k.RemoteInvokes += s.RemoteInvokes
		n.k.ServedInvokes += s.ServedInvokes
		n.k.Reincarnations += s.Reincarnations
		n.k.Evictions += s.Evictions
		n.k.Checkpoints += s.Checkpoints
		n.k.CheckpointBytes += s.CheckpointBytes
		n.loc.Hits += l.Hits
		n.loc.Misses += l.Misses
		n.loc.Broadcasts += l.Broadcasts
	}
	n.tel = c.tel.Snapshot()
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer is the traced run behind the per-layer metrics: a bare
// reference run and a traced run of the same ops, then the layer probes
// on what the traced run captured.
func perLayer(w *workload, seed uint64, seconds float64, outDir string) (*result, error) {
	n := max(int(tracedShare*float64(w.opsFor(seconds)))/segments, 1) * segments

	refDirs, err := prepare(w, seed, outDir)
	if err != nil {
		return nil, err
	}
	defer refDirs.remove()
	ref, err := newCluster(w, seed, nil, refDirs)
	if err != nil {
		return nil, err
	}
	bare := measure(newClients(ref, seed, nil), n, nil, nil)
	ref.close()

	dirs, err := prepare(w, seed, outDir) // the reference run has written to its own
	if err != nil {
		return nil, err
	}
	defer dirs.remove()
	tr := newTracer()
	c, err := newCluster(w, seed, tr, dirs)
	if err != nil {
		return nil, err
	}
	defer c.close()
	clients := newClients(c, seed, tr)
	var before counters
	win := measure(clients, n, tr, func() { before = readCounters(c) })
	after := readCounters(c)
	wrong, history := verify(clients)

	r := newResult(w, seed, seconds, n)
	r.tally(win, wrong)
	for _, d := range perLayerDefs {
		r.Metrics[d.name] = metric{0, d.unit} // a layer the workload never enters reports zero
	}
	p := func(name string, v float64) { r.set(perLayerDefs, name, v) }
	ops := float64(n)
	perOp := func(v int64) float64 { return float64(v) / ops }
	hist := func(name string) telemetry.HistogramSnapshot {
		return after.tel.Histograms[name].Sub(before.tel.Histograms[name])
	}
	count := func(name string) float64 {
		return float64(after.tel.Counters[name] - before.tel.Counters[name])
	}

	p("fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)))
	bare.timings(r, w, seed)
	p("telemetry.overhead_frac", 1-ratio(win.opsPerSecond(), bare.opsPerSecond()))

	tr.mu.Lock()
	selfOf := func(name string) int64 {
		if l := tr.layers[name]; l != nil {
			return l.self
		}
		return 0
	}
	p("kernel.overhead_us_per_op", perOp(selfOf(spanOp)+selfOf(spanCommit))/1e3)
	p("kernel.handler_us_per_op", perOp(selfOf(spanHandler))/1e3)
	if w.efs {
		p("efs.invokes_per_tx", ratio(float64(tr.writeHandlers), float64(tr.writeOps)))
	}
	for name, l := range tr.layers {
		r.Breakdown = append(r.Breakdown, breakdownRow{name, l.count, perOp(l.self) / 1e3, ratio(float64(l.self), float64(tr.opNanos))})
	}
	sort.Slice(r.Breakdown, func(i, j int) bool { return r.Breakdown[i].Share > r.Breakdown[j].Share })
	tr.mu.Unlock()

	p("kernel.dispatch_p50_us", us(hist("kernel.dispatch.latency").Quantile(0.5)))
	p("kernel.local_per_op", perOp(after.k.LocalInvokes-before.k.LocalInvokes))
	p("kernel.remote_per_op", perOp(after.k.RemoteInvokes-before.k.RemoteInvokes))
	p("kernel.served_per_op", perOp(after.k.ServedInvokes-before.k.ServedInvokes))
	p("async.queue_wait_p50_us", us(hist("kernel.async.queue.wait").Quantile(0.5)))
	p("async.shed", count("kernel.async.shed"))

	p("transport.frames_per_op", perOp(tr.frames.Load()))
	p("transport.bytes_per_op", perOp(tr.wireBytes.Load()))
	p("transport.send_us_per_op", perOp(tr.sendNanos.Load())/1e3)
	batch := hist("transport.send.batch") // the transport observes frames per flush as the sample value
	p("transport.frames_per_flush", ratio(float64(batch.SumNanos), float64(batch.Count)))
	p("transport.queue_drops", count("transport.send.queue.drops"))

	hits, misses := float64(after.loc.Hits-before.loc.Hits), float64(after.loc.Misses-before.loc.Misses)
	p("locator.hit_ratio", ratio(hits, hits+misses))
	p("locator.broadcasts_per_op", perOp(after.loc.Broadcasts-before.loc.Broadcasts))

	p("lifecycle.reincarnations_per_op", perOp(after.k.Reincarnations-before.k.Reincarnations))
	p("lifecycle.evictions_per_op", perOp(after.k.Evictions-before.k.Evictions))
	p("lifecycle.checkpoints_per_op", perOp(after.k.Checkpoints-before.k.Checkpoints))
	p("lifecycle.checkpoint_bytes_per_op", perOp(after.k.CheckpointBytes-before.k.CheckpointBytes))

	var userBytes int64 // bytes the clients' acknowledged writes carried
	for i, d := range win.rec.lat {
		if o := w.op(seed, win.rec.lo+i); o.write && d != failedOp {
			userBytes += int64(o.size)
		}
	}
	p("store.puts_per_op", perOp(tr.puts.Load()))
	p("store.gets_per_op", perOp(tr.gets.Load()))
	p("store.put_p50_us", quantile(tr.putLat, 0.5)/1e3)
	p("store.get_p50_us", quantile(tr.getLat, 0.5)/1e3)
	p("store.busy_frac", ratio(float64(tr.storeNanos.Load()), float64(win.wall)))
	p("store.write_amp", ratio(float64(tr.putBytes.Load()), float64(userBytes)))

	var attempts, conflicts int
	for _, g := range clients {
		attempts += g.txAttempts
		conflicts += g.txConflicts
	}
	p("efs.commit_p50_us", quantile(tr.commitLat, 0.5)/1e3)
	p("efs.conflict_ratio", ratio(float64(conflicts), float64(attempts)))
	p("efs.history_len_max", float64(history))

	probe(p, w, seed, c, tr, win.rec.lo, n, outDir)
	return r, tr.writeTrace(filepath.Join(outDir, w.name+".trace.json"), w.name, seed)
}
