package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"eden/internal/kernel"
	"eden/internal/segment"
)

// generators is the number of closed-loop load goroutines of every
// workload. The builder has two cores; more generators than cores
// would measure the Go scheduler, not Eden.
const generators = 2

// inflight is how many asynchronous invocations each generator of an
// async workload keeps outstanding. waitAny spells the eight-way
// select out, so this is a constant, not a field.
const inflight = 8

// sizeClass is one request-payload size and the share of ops using it.
type sizeClass struct {
	bytes int
	share float64
}

// workload describes one set of inputs. README.md records why each
// row and each size was chosen; the names are cited by later issues
// and must not change.
type workload struct {
	name     string
	nodes    int  // kernels; clients sit on node 1, objects on the others (on node 1 when it is alone)
	efs      bool // keys are EFS files read and written through efs.Client, else cell objects
	file     bool // every kernel keeps its checkpoints on a store.File, fsync policy untouched, else on a store.Memory
	async    bool // generators keep `inflight` InvokeAsync outstanding, else one synchronous op each
	keys     int
	value    int         // stored value size in bytes
	zipf     bool        // zipfian key choice (s=1.1, v=16), else uniform
	writes   float64     // share of ops that write
	sizes    []sizeClass // request payload sizes; nil means the value size
	resident float64     // share of a home node's keys its memory budget holds; 0 = no budget
	apart    bool        // generator g draws only keys homed on node 2+g, so a home node never activates two objects at once
	rate     float64     // ops measured per second of -seconds (see opsFor)

	cdf []float64 // zipf cumulative distribution over keys, built by lookupWorkload
}

// The rates are the throughput each workload reached on the commit
// that introduced the benchmark, on the 2-core builder, rounded. They
// only turn -seconds into a fixed op count: the count, not the
// duration, is what is held constant between two commits, so that
// history growth, evictions and allocations are the same in both.
var workloads = []workload{
	{name: "invoke-local", nodes: 1, keys: 1024, value: 256, zipf: true, writes: 0.10, rate: 200_000},
	{name: "invoke-remote", nodes: 3, async: true, keys: 512, value: 256, zipf: true, writes: 0.10,
		sizes: []sizeClass{{64, 0.70}, {4 << 10, 0.25}, {64 << 10, 0.05}}, rate: 30_000},
	{name: "kv-mixed", nodes: 3, efs: true, file: true, keys: 2000, value: 1 << 10, zipf: true, writes: 0.10, rate: 6_000},
	{name: "kv-paged", nodes: 3, efs: true, file: true, keys: 8000, value: 1 << 10, resident: 0.10, apart: true, rate: 1_500},
}

// raceWorkloads run by name only; BENCHMARK.json does not list them,
// because the driver wants workloads on which no op fails.
// kv-paged-shared is kv-paged with both generators on all keys: two
// activations meet on a node, and the one that evicts the other's
// just-reincarnated object makes its first call fail with `object
// crashed` (README, findings). A kernel fix shows here as crashed=0.
var raceWorkloads = []workload{
	{name: "kv-paged-shared", nodes: 3, efs: true, file: true, keys: 8000, value: 1 << 10, resident: 0.10, rate: 1_500},
}

// lookupWorkload returns a private copy of the named workload, ready
// to generate ops.
func lookupWorkload(name string) (*workload, error) {
	for _, w := range append(workloads[:len(workloads):len(workloads)], raceWorkloads...) {
		if w.name == name {
			w.buildCDF()
			return &w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildCDF tabulates P(k) ∝ (v+k)^-s for k in [0, keys), the law of
// math/rand's Zipf with s=1.1 and v=16. A table makes op(i) a pure
// function of (seed, i), which a stateful sampler could not be.
func (w *workload) buildCDF() {
	if !w.zipf {
		w.cdf = nil
		return
	}
	const s, v = 1.1, 16.0
	w.cdf = make([]float64, w.keys)
	sum := 0.0
	for k := range w.cdf {
		sum += math.Pow(v+float64(k), -s)
		w.cdf[k] = sum
	}
	for k := range w.cdf {
		w.cdf[k] /= sum
	}
}

// opsFor is the fixed number of measured ops for a run of the given
// nominal length.
func (w *workload) opsFor(seconds float64) int {
	n := int(w.rate * seconds)
	if n < 200 {
		n = 200
	}
	return n
}

// home is the index (into cluster.kernels) of the kernel a key's
// object lives on.
func (w *workload) home(key int) int {
	if w.nodes == 1 {
		return 0
	}
	return 1 + key%(w.nodes-1)
}

// op is one generated operation.
type op struct {
	key   int
	write bool
	size  int    // request payload bytes (echo, put) or value bytes (kv write)
	salt  uint32 // picks the body bytes
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// op returns the i-th operation of the stream the seed defines. It is
// a pure function: the kernels see only these inputs, and generator
// i%generators issues exactly this op.
func (w *workload) op(seed uint64, i int) op {
	h := splitmix(seed ^ splitmix(uint64(i)))
	o := op{size: w.value, salt: uint32(h)}
	u := unit(h)
	if w.zipf {
		o.key = sort.SearchFloat64s(w.cdf, u)
		if o.key >= w.keys {
			o.key = w.keys - 1
		}
	} else {
		o.key = int(u * float64(w.keys))
	}
	if w.apart {
		// The key of the same rank among the keys of this op's
		// generator's node (see home).
		homes := w.nodes - 1
		o.key = o.key/homes*homes + i%generators%homes
	}
	h = splitmix(h)
	o.write = unit(h) < w.writes
	if w.sizes != nil {
		h = splitmix(h)
		u, acc := unit(h), 0.0
		o.size = w.sizes[len(w.sizes)-1].bytes
		for _, c := range w.sizes {
			if acc += c.share; u < acc {
				o.size = c.bytes
				break
			}
		}
	}
	return o
}

// Every stored value and every request carries
//
//	key(4) writer(4) seq(8) crc32(4) body...
//
// where the CRC covers everything but itself. A reader checks the CRC
// and the key, and that seq never runs backwards; a writer's seq is its
// predecessor's plus one, so at the end of a run a key's seq counts the
// writes that were acknowledged — a lost update shows.
const valueHeader = 20

func valueCRC(v []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(v[:16]), crc32.IEEETable, v[valueHeader:])
}

func sealValue(v []byte, key, writer uint32, seq uint64) {
	binary.BigEndian.PutUint32(v[0:], key)
	binary.BigEndian.PutUint32(v[4:], writer)
	binary.BigEndian.PutUint64(v[8:], seq)
	binary.BigEndian.PutUint32(v[16:], valueCRC(v))
}

func openValue(v []byte) (key, writer uint32, seq uint64, ok bool) {
	if len(v) < valueHeader || binary.BigEndian.Uint32(v[16:]) != valueCRC(v) {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint32(v[0:]), binary.BigEndian.Uint32(v[4:]), binary.BigEndian.Uint64(v[8:]), true
}

// cellType is the benchmark's own Eden type: one value segment and
// four operations whose work is real CPU, never a sleep.
const (
	cellType = "cell"
	cellSeg  = "v"
)

func registerCell(reg *kernel.Registry) error {
	tm := kernel.NewType(cellType)
	tm.Op(kernel.Operation{Name: "get", Access: kernel.AccessRead, Handler: cellGet})
	tm.Op(kernel.Operation{Name: "put", Access: kernel.AccessWrite, Handler: cellPut})
	tm.Op(kernel.Operation{Name: "echo", Access: kernel.AccessRead, Handler: cellEcho})
	// nop is the floor probe's operation: what an invocation costs
	// when the handler does nothing.
	tm.Op(kernel.Operation{Name: "nop", Access: kernel.AccessRead, Handler: func(*kernel.Call) {}})
	return reg.Register(tm)
}

// cellGet copies the value out under View, checks its CRC and returns
// it.
func cellGet(c *kernel.Call) {
	var v []byte
	c.Self().View(func(r *segment.Representation) { v, _ = r.Data(cellSeg) })
	if _, _, _, ok := openValue(v); !ok {
		c.Fail("cell: stored value fails its checksum")
		return
	}
	c.Return(v)
}

// cellPut installs the request as the new value, stamped with the old
// value's seq plus one, and returns that seq.
func cellPut(c *kernel.Call) {
	if len(c.Data) < valueHeader {
		c.Fail("cell: short put")
		return
	}
	v := append([]byte(nil), c.Data...)
	var seq uint64
	err := c.Self().Update(func(r *segment.Representation) error {
		old, _ := r.Data(cellSeg)
		_, _, seq, _ = openValue(old)
		seq++
		sealValue(v, binary.BigEndian.Uint32(v[0:]), binary.BigEndian.Uint32(v[4:]), seq)
		r.SetData(cellSeg, v)
		return nil
	})
	if err != nil {
		c.Fail("cell: %v", err)
		return
	}
	c.Return(binary.BigEndian.AppendUint64(nil, seq))
}

// cellEcho checks the request's CRC and returns the request.
func cellEcho(c *kernel.Call) {
	if _, _, _, ok := openValue(c.Data); !ok {
		c.Fail("cell: echo request fails its checksum")
		return
	}
	c.Return(c.Data)
}
