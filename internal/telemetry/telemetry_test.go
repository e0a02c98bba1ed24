package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestBucketFor pins the bucket mapping: bucket i holds samples whose
// nanosecond bit length is i.
func TestBucketFor(t *testing.T) {
	tests := []struct {
		name string
		ns   int64
		want int
	}{
		{"negative", -5, 0},
		{"zero", 0, 0},
		{"one", 1, 1},
		{"two", 2, 2},
		{"three", 3, 2},
		{"four", 4, 3},
		{"microsecond", 1000, 10},
		{"millisecond", 1_000_000, 20},
		{"second", 1_000_000_000, 30},
		{"minute", 60_000_000_000, 36},
		{"huge clamps to last", 1 << 62, HistBuckets - 1},
		{"max int64 clamps to last", 1<<63 - 1, HistBuckets - 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := bucketFor(tt.ns); got != tt.want {
				t.Fatalf("bucketFor(%d) = %d, want %d", tt.ns, got, tt.want)
			}
		})
	}
}

// TestBucketBounds checks that bounds tile the int64 range: each
// bucket's lo..hi maps back to that bucket, and hi+1 maps to the next.
func TestBucketBounds(t *testing.T) {
	for i := 0; i < HistBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if got := bucketFor(lo); got != i {
			t.Fatalf("bucket %d: lo %d maps to bucket %d", i, lo, got)
		}
		if got := bucketFor(hi); got != i {
			t.Fatalf("bucket %d: hi %d maps to bucket %d", i, hi, got)
		}
		if i < HistBuckets-1 {
			if got := bucketFor(hi + 1); got != i+1 {
				t.Fatalf("bucket %d: hi+1 %d maps to bucket %d, want %d", i, hi+1, got, i+1)
			}
		}
	}
}

// TestHistogramObserve runs sample sets through a Histogram and checks
// the resulting snapshot bucket by bucket.
func TestHistogramObserve(t *testing.T) {
	tests := []struct {
		name    string
		samples []time.Duration
		buckets map[int]int64 // expected nonzero buckets
	}{
		{
			name:    "empty",
			samples: nil,
			buckets: map[int]int64{},
		},
		{
			name:    "single microsecond",
			samples: []time.Duration{time.Microsecond},
			buckets: map[int]int64{10: 1},
		},
		{
			name:    "spread",
			samples: []time.Duration{0, time.Nanosecond, time.Nanosecond, 3 * time.Nanosecond, time.Millisecond},
			buckets: map[int]int64{0: 1, 1: 2, 2: 1, 20: 1},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var h Histogram
			var sum int64
			for _, d := range tt.samples {
				h.Observe(d)
				sum += int64(d)
			}
			s := h.Snapshot()
			if s.Count != int64(len(tt.samples)) {
				t.Fatalf("count = %d, want %d", s.Count, len(tt.samples))
			}
			if s.SumNanos != sum {
				t.Fatalf("sum = %d, want %d", s.SumNanos, sum)
			}
			for i, n := range s.Buckets {
				if want := tt.buckets[i]; n != want {
					t.Fatalf("bucket %d = %d, want %d", i, n, want)
				}
			}
		})
	}
}

// TestSnapshotMerge exercises Merge and Sub over sample streams: the
// merge of two histograms must equal the histogram of the combined
// stream, and Sub must invert Merge.
func TestSnapshotMerge(t *testing.T) {
	tests := []struct {
		name string
		a, b []time.Duration
	}{
		{"both empty", nil, nil},
		{"one empty", []time.Duration{time.Millisecond}, nil},
		{
			"disjoint scales",
			[]time.Duration{time.Nanosecond, 2 * time.Nanosecond},
			[]time.Duration{time.Second, 2 * time.Second},
		},
		{
			"overlapping buckets",
			[]time.Duration{time.Microsecond, time.Millisecond, time.Millisecond},
			[]time.Duration{time.Microsecond, 512 * time.Microsecond},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var ha, hb, hboth Histogram
			for _, d := range tt.a {
				ha.Observe(d)
				hboth.Observe(d)
			}
			for _, d := range tt.b {
				hb.Observe(d)
				hboth.Observe(d)
			}
			merged := ha.Snapshot().Merge(hb.Snapshot())
			if merged != hboth.Snapshot() {
				t.Fatalf("merge mismatch:\n merged %+v\n direct %+v", merged, hboth.Snapshot())
			}
			if got := merged.Sub(hb.Snapshot()); got != ha.Snapshot() {
				t.Fatalf("sub did not invert merge:\n got %+v\n want %+v", got, ha.Snapshot())
			}
		})
	}
}

// TestQuantile checks quantile estimation is within its bucket (log2
// fidelity: estimates within 2x of the true value).
func TestQuantile(t *testing.T) {
	tests := []struct {
		name    string
		samples []time.Duration
		q       float64
		loBound time.Duration // estimate must lie in [loBound, hiBound]
		hiBound time.Duration
	}{
		{"empty", nil, 0.5, 0, 0},
		{"single sample p50", []time.Duration{100 * time.Microsecond}, 0.5, 65536 * time.Nanosecond, 131071 * time.Nanosecond},
		{"single sample p99", []time.Duration{100 * time.Microsecond}, 0.99, 65536 * time.Nanosecond, 131071 * time.Nanosecond},
		{
			"bimodal p50 in low mode",
			[]time.Duration{
				time.Microsecond, time.Microsecond, time.Microsecond,
				time.Second,
			},
			0.5, 512 * time.Nanosecond, 1024 * time.Nanosecond,
		},
		{
			"bimodal p99 in high mode",
			[]time.Duration{
				time.Microsecond, time.Microsecond, time.Microsecond,
				time.Second,
			},
			0.99, 512 * time.Millisecond, 1074 * time.Millisecond,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var h Histogram
			for _, d := range tt.samples {
				h.Observe(d)
			}
			got := h.Snapshot().Quantile(tt.q)
			if got < tt.loBound || got > tt.hiBound {
				t.Fatalf("Quantile(%v) = %v, want in [%v, %v]", tt.q, got, tt.loBound, tt.hiBound)
			}
		})
	}
}

// TestNilSafety drives every instrument through a nil receiver / nil
// registry: the disabled path must be inert, not a panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter held a value")
	}
	g := r.Gauge("x")
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge held a value")
	}
	h := r.Histogram("x")
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram held samples")
	}
	sp := r.StartSpan("x", 1, 2)
	sp.End("ok")
	if r.Spans() != nil {
		t.Fatal("nil registry held spans")
	}
	if id := r.NextTraceID(3); id != 0 {
		t.Fatalf("nil registry minted trace id %d", id)
	}
	if snap := r.Snapshot(); snap.Counters != nil {
		t.Fatal("nil registry snapshot non-zero")
	}
	r.Report(func() any { return struct{}{} })()
}

// TestReportReadsOwnersBooks: a registry reads each reporting owner's
// tagged fields, adds up fields of one name across owners and with an
// instrument, and after stop keeps only the owner's last counter reading.
// A read takes the registry's lock itself, as a kernel's read takes the
// kernel's: Snapshot and stop must not hold it while they read.
func TestReportReadsOwnersBooks(t *testing.T) {
	type books struct {
		Calls  int64  `metric:"calls"`
		Bytes  uint64 `metric:"bytes"`
		Queued int32  `metric:"queued,gauge"`
		Note   int64
	}
	r := New()
	a, b := books{Calls: 2, Bytes: 10, Queued: 1, Note: 9}, books{Calls: 3, Queued: 4}
	stopA := r.Report(func() any { r.Counter("calls"); return a })
	r.Report(func() any { return b })
	r.Counter("calls").Add(1)
	s := r.Snapshot()
	if s.Counters["calls"] != 6 || s.Counters["bytes"] != 10 || s.Gauges["queued"] != 5 || len(s.Counters)+len(s.Gauges) != 3 {
		t.Fatalf("snapshot with two owners: %+v", s)
	}
	a.Calls = 4
	stopA()
	a.Calls = 100 // read no more
	stopA()
	s = r.Snapshot()
	if s.Counters["calls"] != 8 || s.Counters["bytes"] != 10 || s.Gauges["queued"] != 4 || len(s.Counters)+len(s.Gauges) != 3 {
		t.Fatalf("snapshot after one owner stopped: %+v", s)
	}
}

// TestRegistryInstruments checks identity (same name, same instrument)
// and snapshotting.
func TestRegistryInstruments(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name returned distinct counters")
	}
	r.Counter("a").Add(3)
	r.Gauge("b").Add(-2)
	r.Histogram("c").Observe(time.Millisecond)
	s := r.Snapshot()
	if s.Counters["a"] != 3 || s.Gauges["b"] != -2 || s.Histograms["c"].Count != 1 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	if len(s.Counters) != 1 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot holds more than a, b and c: %+v", s)
	}
}

// TestTracerRing fills the ring past capacity and checks eviction
// order and SpansFor filtering.
func TestTracerRing(t *testing.T) {
	r := &Registry{tracer: newTracer(4)}
	for i := 0; i < 6; i++ {
		sp := r.StartSpan("op", uint64(i+1), 9)
		sp.End("ok")
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := uint64(i + 3); s.Trace != want {
			t.Fatalf("span %d has trace %d, want %d (oldest-first after eviction)", i, s.Trace, want)
		}
		if s.Node != 9 || s.Name != "op" || s.Status != "ok" {
			t.Fatalf("span %d mangled: %+v", i, s)
		}
	}
	if got := r.SpansFor(5); len(got) != 1 || got[0].Trace != 5 {
		t.Fatalf("SpansFor(5) = %+v", got)
	}
}

// TestTraceIDs checks uniqueness and node separation.
func TestTraceIDs(t *testing.T) {
	r := New()
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		id := r.NextTraceID(1)
		if id == 0 || seen[id] {
			t.Fatalf("trace id %d zero or repeated", id)
		}
		seen[id] = true
	}
	r2 := New()
	if a, b := r.NextTraceID(1), r2.NextTraceID(2); a>>40 == b>>40 {
		t.Fatalf("nodes 1 and 2 share trace id high bits: %x vs %x", a, b)
	}
}

// TestConcurrentObserve hammers one histogram and counter from many
// goroutines, which also report, snapshot and stop owners; run under
// -race this is the data-race gate.
func TestConcurrentObserve(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	c := r.Counter("n")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Nanosecond)
				c.Inc()
				sp := r.StartSpan("w", 1, 0)
				sp.End("ok")
				stop := r.Report(func() any {
					return struct {
						N int64 `metric:"reported"`
					}{1}
				})
				r.Snapshot()
				stop()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Snapshot().Counters["reported"]; got != workers*per {
		t.Fatalf("reported = %d, want each stopped owner's last reading, %d", got, workers*per)
	}
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*per)
	}
}
