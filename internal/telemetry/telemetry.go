// Package telemetry is Eden's observability substrate: atomic
// counters, gauges, lock-cheap latency histograms, and per-invocation
// trace spans. The kernel mediates every inter-object interaction —
// invocation, location, checkpointing — and this package is how those
// mediations become visible without perturbing them.
//
// Everything is built from the standard library and designed so that
// a *disabled* registry costs nothing: every instrument method is
// nil-safe, so code holds plain instrument pointers (nil when
// telemetry is off) and calls them unconditionally. A nil receiver
// returns immediately — no allocation, no atomic, no branch beyond
// the nil check — which is what keeps the instrumented invoke fast
// path regression-free when telemetry is not wired in.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level: queue depth, bytes resident,
// objects active.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the fixed bucket count of every latency histogram.
// Bucket i holds samples whose nanosecond value has bit length i:
// bucket 0 is <=0ns (clock went backwards or sub-ns), bucket 1 is
// exactly 1ns, bucket i covers [2^(i-1), 2^i - 1] ns. Forty log2
// buckets span sub-nanosecond to ~9 minutes, which covers every
// deadline this system hands out.
const HistBuckets = 40

// Histogram is a fixed-bucket log2-scale latency histogram. Observe
// is one atomic add per bucket plus count and sum — no locks, no
// allocation — so it is safe on the invoke hot path.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [HistBuckets]atomic.Int64
}

// bucketFor maps a nanosecond value to its bucket index.
func bucketFor(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// BucketBounds returns the inclusive nanosecond range [lo, hi] that
// bucket i covers. The last bucket's hi is the maximum int64.
func BucketBounds(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return 0, 0
	case i == 1:
		return 1, 1
	case i >= HistBuckets-1:
		return 1 << (HistBuckets - 2), 1<<63 - 1
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}

// Observe records one latency sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// Start returns the clock reading a later ObserveSince will measure
// from, or the zero Time on a nil receiver. Pairing Start with
// ObserveSince keeps a disabled instrument's call sites free of clock
// reads as well as allocations — the dominant residual cost of
// instrumenting a sub-microsecond fast path.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the time elapsed since start. A nil receiver or
// a zero start (from a nil receiver's Start) is a no-op.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start))
}

// ObserveNanos records one sample given directly in nanoseconds.
// Safe on a nil receiver.
func (h *Histogram) ObserveNanos(ns int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketFor(ns)].Add(1)
}

// Snapshot captures the histogram's current state. Concurrent
// observers may land between the field reads; the snapshot is
// internally consistent enough for quantile estimation, which is all
// it is for. Safe on a nil receiver (zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, the unit
// of merging (across nodes or runs) and quantile estimation.
type HistogramSnapshot struct {
	Count    int64              `json:"count"`
	SumNanos int64              `json:"sum_nanos"`
	Buckets  [HistBuckets]int64 `json:"buckets"`
}

// Merge returns the element-wise sum of s and o — the histogram that
// would have resulted from observing both sample streams.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := s
	out.Count += o.Count
	out.SumNanos += o.SumNanos
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	return out
}

// Sub returns s minus an earlier snapshot o, isolating the samples
// observed between the two.
func (s HistogramSnapshot) Sub(o HistogramSnapshot) HistogramSnapshot {
	out := s
	out.Count -= o.Count
	out.SumNanos -= o.SumNanos
	for i := range out.Buckets {
		out.Buckets[i] -= o.Buckets[i]
	}
	return out
}

// Mean returns the arithmetic mean sample, or 0 if empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count <= 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by locating the
// bucket containing the target rank and interpolating linearly within
// its bounds. With log2 buckets the estimate is within 2x of the true
// value, which is the right fidelity for a regression gate.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count <= 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank is the ceiling of q*count: the smallest sample index whose
	// cumulative share reaches q.
	exact := q * float64(s.Count)
	target := int64(exact)
	if float64(target) < exact {
		target++
	}
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		if n <= 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := BucketBounds(i)
			frac := float64(target-cum) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += n
	}
	lo, _ := BucketBounds(HistBuckets - 1)
	return time.Duration(lo)
}

// Snapshot is a point-in-time copy of every instrument in a Registry,
// the unit the HTTP endpoint serves and the benchmark's layer report reads.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry owns a namespace of instruments. Instruments are created
// on first use and live forever; hot paths resolve them once at
// construction time and then touch only atomics. All methods are
// safe on a nil *Registry: they return nil instruments (whose methods
// are themselves nil-safe) or zero values, so "telemetry disabled" is
// spelled simply as a nil registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracer   *Tracer
	traceSeq atomic.Uint64
}

// New returns an empty registry with a tracer ring of DefaultTraceCap
// spans.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracer:   newTracer(DefaultTraceCap),
	}
}

// Counter returns the named counter, creating it if needed. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every instrument's current value. Safe on a nil
// registry (returns the zero Snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Counters = make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	s.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Names returns every instrument name, sorted, for stable text output.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
