// Per-mechanism Go benchmarks: one testing.B per kernel mechanism —
// invocation, classes, checkpoint and reincarnation, frozen replicas,
// mobility, location, recovery, EFS, dispatch depth and single-level
// memory — so `go test -bench . -benchmem` prices each one in time and
// allocations. The end-to-end benchmark is benchmark/ (DESIGN.md §4).
package eden_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"eden"
	"eden/internal/efs"
	"eden/internal/kernel"
	"eden/internal/transport"
)

// benchSystem builds an n-node system with the echo type registered.
// No artificial network latency is injected here: benchmarks report
// the implementation's own costs.
func benchSystem(b *testing.B, n int) (*eden.System, []*eden.Node) {
	b.Helper()
	sys, err := eden.NewSystem(eden.SystemConfig{
		DefaultTimeout: 30 * time.Second,
		LocateTimeout:  2 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	nodes := make([]*eden.Node, n)
	for i := range nodes {
		nodes[i], err = sys.AddNode(fmt.Sprintf("bench-%d", i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	tm := eden.NewType("bench.echo")
	tm.Op(eden.Operation{Name: "echo", Access: eden.AccessRead, Handler: func(c *eden.Call) { c.Return(c.Data) }})
	tm.Op(eden.Operation{Name: "store", Handler: func(c *eden.Call) {
		_ = c.Self().Update(func(r *eden.Representation) error {
			r.SetData("state", c.Data)
			return nil
		})
	}})
	if err := sys.RegisterType(tm); err != nil {
		b.Fatal(err)
	}
	return sys, nodes
}

// ---- invocation latency ----

func benchInvoke(b *testing.B, remote bool, payload int) {
	_, nodes := benchSystem(b, 2)
	cap, err := nodes[0].CreateObject("bench.echo")
	if err != nil {
		b.Fatal(err)
	}
	invoker := nodes[0]
	if remote {
		invoker = nodes[1]
	}
	data := make([]byte, payload)
	if _, err := invoker.Invoke(cap, "echo", data, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := invoker.Invoke(cap, "echo", data, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvokeLocal64B(b *testing.B)   { benchInvoke(b, false, 64) }
func BenchmarkInvokeLocal4KB(b *testing.B)   { benchInvoke(b, false, 4096) }
func BenchmarkInvokeLocal64KB(b *testing.B)  { benchInvoke(b, false, 64*1024) }
func BenchmarkInvokeRemote64B(b *testing.B)  { benchInvoke(b, true, 64) }
func BenchmarkInvokeRemote4KB(b *testing.B)  { benchInvoke(b, true, 4096) }
func BenchmarkInvokeRemote64KB(b *testing.B) { benchInvoke(b, true, 64*1024) }

// tcpPair builds two kernels over loopback TCP with the echo type
// registered, and an echo object on the second, which the first has
// already invoked once with a 64 KiB payload: located, dialled, and the
// pools filled.
func tcpPair(b *testing.B) ([2]*kernel.Kernel, eden.Capability) {
	ks := tcpKernels(b, func(reg *kernel.Registry) error {
		tm := kernel.NewType("bench.echo")
		tm.Op(kernel.Operation{Name: "echo", Access: kernel.AccessRead, Handler: func(c *kernel.Call) { c.Return(c.Data) }})
		return reg.Register(tm)
	})
	cp, err := ks[1].Create("bench.echo", nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ks[0].Invoke(cp, "echo", make([]byte, 64<<10), nil, nil); err != nil {
		b.Fatal(err)
	}
	return ks, cp
}

// tcpKernels builds two kernels over loopback TCP, nodes 1 and 2, whose
// registry register fills.
func tcpKernels(b *testing.B, register func(*kernel.Registry) error) [2]*kernel.Kernel {
	reg := kernel.NewRegistry()
	if err := register(reg); err != nil {
		b.Fatal(err)
	}
	var trs [2]*transport.TCP
	for i := range trs {
		tr, err := transport.NewTCP(uint32(i+1), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		trs[i] = tr
	}
	trs[0].AddPeer(2, trs[1].Addr())
	trs[1].AddPeer(1, trs[0].Addr())
	var ks [2]*kernel.Kernel
	for i, tr := range trs {
		ks[i] = kernel.New(kernel.DefaultConfig(uint32(i+1), fmt.Sprintf("bench-tcp-%d", i+1)), tr, reg, nil)
		b.Cleanup(func() { ks[i].Close() })
	}
	return ks
}

// BenchmarkInvokeRemoteTCP64B is one synchronous 64 B echo between two
// kernels over loopback TCP: the Mesh-based BenchmarkInvokeRemote64B
// plus the sockets, and the serve of every request on the serving
// node's processors.
func BenchmarkInvokeRemoteTCP64B(b *testing.B) {
	ks, cp := tcpPair(b)
	data := make([]byte, 64)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ks[0].Invoke(cp, "echo", data, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackFloor64B is the floor under BenchmarkInvokeRemoteTCP64B
// on the same host: a 64-byte request and its 64-byte echo over one
// loopback TCP connection, with the standard library alone. Each side
// has one reader goroutine that hands what it read over a channel — to
// the echoing goroutine on the server, to the benchmark loop on the
// client — the fewest hand-offs a transport with a reader per connection
// can have. InvokeRemoteTCP64B over this is the remote path's overhead
// above the wire, as a ratio measured in one process.
func BenchmarkLoopbackFloor64B(b *testing.B) {
	type frame [64]byte
	// readFrames hands every frame read from c to ch, until c fails.
	readFrames := func(c net.Conn, ch chan<- frame) {
		defer close(ch)
		var f frame
		for {
			if _, err := io.ReadFull(c, f[:]); err != nil {
				return
			}
			ch <- f
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		reqs := make(chan frame)
		go readFrames(c, reqs)
		var f frame // one array for every echo: Write's argument escapes
		for f = range reqs {
			if _, err := c.Write(f[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		c.Close()
		<-served
	}()
	reps := make(chan frame)
	go readFrames(c, reps)
	var req frame
	b.SetBytes(int64(len(req)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(req[:]); err != nil {
			b.Fatal(err)
		}
		if _, ok := <-reps; !ok {
			b.Fatal("the echo connection closed")
		}
	}
}

// BenchmarkInvokeRemoteAsyncTCP is the shape of benchmark/'s
// invoke-remote workload as a Go benchmark: two kernels over loopback
// TCP, 16 asynchronous echoes in flight, payloads of 64 B, 4 KiB and
// 64 KiB in the ratio 14:5:1. allocs/op is what one remote invocation
// allocates on both nodes together — 3: the Pending, its channel and the
// reply's frame read, where the request's read made it 4 — and B/op shows
// every copy of a payload that is not into a pooled buffer.
func BenchmarkInvokeRemoteAsyncTCP(b *testing.B) {
	ks, cp := tcpPair(b)
	const inflight = 16
	size := func(i int) int { // of every 20 ops: one 64 KiB, five 4 KiB, fourteen 64 B
		switch {
		case i%20 == 0:
			return 64 << 10
		case i%4 == 1:
			return 4 << 10
		}
		return 64
	}
	data := make([]byte, 64<<10)
	var window [inflight]*kernel.Pending
	collect := func(i int) {
		if p := window[i%inflight]; p != nil {
			if rep, err := p.Wait(); err != nil || len(rep.Data) != size(i-inflight) {
				b.Fatal(len(rep.Data), err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collect(i)
		window[i%inflight] = ks[0].InvokeAsync(cp, "echo", data[:size(i)], nil, nil)
	}
	for i := b.N; i < b.N+inflight; i++ {
		collect(i)
		window[i%inflight] = nil
	}
}

// BenchmarkCreateFirstWrite is the unit of benchmark/'s invoke-local
// set-up: create an object and write its first 256 B value, which makes
// its first data segment. Every 1 024 objects (the workload's key count)
// it moves to a fresh node, outside the timer, so the heap stays that of
// one set-up.
func BenchmarkCreateFirstWrite(b *testing.B) {
	const keys = 1024
	value := make([]byte, 256)
	var sys *eden.System
	var node *eden.Node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%keys == 0 {
			b.StopTimer()
			if sys != nil {
				sys.Close()
			}
			var nodes []*eden.Node
			sys, nodes = benchSystem(b, 1)
			node = nodes[0]
			b.StartTimer()
		}
		cap, err := node.CreateObject("bench.echo")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := node.Invoke(cap, "store", value, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- invocation classes ----

func benchClassLimit(b *testing.B, limit int) {
	sys, nodes := benchSystem(b, 1)
	tm := eden.NewType(fmt.Sprintf("bench.cl%d", limit))
	if limit > 0 {
		tm.Limit("w", limit)
	}
	tm.Op(eden.Operation{Name: "op", Class: "w", Handler: func(c *eden.Call) {}})
	if err := sys.RegisterType(tm); err != nil {
		b.Fatal(err)
	}
	cap, err := nodes[0].CreateObject(tm.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := nodes[0].Invoke(cap, "op", nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClassLimit1(b *testing.B)         { benchClassLimit(b, 1) }
func BenchmarkClassLimit4(b *testing.B)         { benchClassLimit(b, 4) }
func BenchmarkClassLimitUnlimited(b *testing.B) { benchClassLimit(b, 0) }

// ---- checkpoint and reincarnation ----

func benchCheckpoint(b *testing.B, size int) {
	_, nodes := benchSystem(b, 1)
	cap, err := nodes[0].CreateObject("bench.echo")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nodes[0].Invoke(cap, "store", make([]byte, size), nil, nil); err != nil {
		b.Fatal(err)
	}
	obj, err := nodes[0].Object(cap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obj.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint1KB allocates 1 object per op: the checkpoint's
// encoding, a fresh buffer of its exact size, which the store may keep
// (store.Store.Put). The log lays the record out in its leader's reused
// buffer, from a reused frame; with those allocated per write it was 3.
// A record over the log's kept buffer (65 KiB) adds a buffer of its own,
// so BenchmarkCheckpoint1MB allocates more.
func BenchmarkCheckpoint1KB(b *testing.B)  { benchCheckpoint(b, 1<<10) }
func BenchmarkCheckpoint64KB(b *testing.B) { benchCheckpoint(b, 64<<10) }
func BenchmarkCheckpoint1MB(b *testing.B)  { benchCheckpoint(b, 1<<20) }

// BenchmarkReincarnate passivates an object and invokes it again: 2
// allocs/op, the record the store reads and the incarnation, allocated
// with its segment table (4 while the table and a copy of the segment
// names were allocated apart).
func BenchmarkReincarnate(b *testing.B) {
	_, nodes := benchSystem(b, 1)
	cap, err := nodes[0].CreateObject("bench.echo")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nodes[0].Invoke(cap, "store", make([]byte, 16<<10), nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := nodes[0].Object(cap)
		if err != nil {
			b.Fatal(err)
		}
		if err := obj.Passivate(); err != nil {
			b.Fatal(err)
		}
		if _, err := nodes[0].Invoke(cap, "echo", nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- frozen replicas ----

func benchFrozenReplica(b *testing.B, replicated bool) {
	_, nodes := benchSystem(b, 2)
	cap, err := nodes[0].CreateObject("bench.echo")
	if err != nil {
		b.Fatal(err)
	}
	obj, err := nodes[0].Object(cap)
	if err != nil {
		b.Fatal(err)
	}
	if err := obj.Freeze(); err != nil {
		b.Fatal(err)
	}
	if replicated {
		if err := obj.Replicate(nodes[1].Num()); err != nil {
			b.Fatal(err)
		}
	}
	opts := &eden.InvokeOptions{AllowReplica: true}
	if _, err := nodes[1].Invoke(cap, "echo", nil, nil, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[1].Invoke(cap, "echo", nil, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrozenReadRemoteHome(b *testing.B)   { benchFrozenReplica(b, false) }
func BenchmarkFrozenReadLocalReplica(b *testing.B) { benchFrozenReplica(b, true) }

// ---- mobility ----

func BenchmarkMove64KB(b *testing.B) {
	_, nodes := benchSystem(b, 2)
	cap, err := nodes[0].CreateObject("bench.echo")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nodes[0].Invoke(cap, "store", make([]byte, 64<<10), nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := nodes[i%2]
		to := nodes[(i+1)%2]
		obj, err := from.Object(cap)
		if err != nil {
			b.Fatal(err)
		}
		if err := <-obj.Move(to.Num()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- location ----

func BenchmarkLocateCold(b *testing.B) {
	_, nodes := benchSystem(b, 3)
	caps := make([]eden.Capability, b.N)
	var err error
	for i := range caps {
		caps[i], err = nodes[0].CreateObject("bench.echo")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[2].Invoke(caps[i], "echo", nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocateWarm(b *testing.B) {
	_, nodes := benchSystem(b, 3)
	cap, err := nodes[0].CreateObject("bench.echo")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nodes[2].Invoke(cap, "echo", nil, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[2].Invoke(cap, "echo", nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- recovery ----

func BenchmarkRecoveryFromChecksite(b *testing.B) {
	// Each iteration: crash a home node and recover its object at the
	// checksite via one invocation. Heavyweight by nature.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, nodes := benchSystem(b, 3)
		cap, err := nodes[0].CreateObject("bench.echo")
		if err != nil {
			b.Fatal(err)
		}
		obj, err := nodes[0].Object(cap)
		if err != nil {
			b.Fatal(err)
		}
		if err := obj.SetChecksite(eden.RelRemote, nodes[1].Num()); err != nil {
			b.Fatal(err)
		}
		if err := obj.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		nodes[0].Crash()
		b.StartTimer()
		if _, err := nodes[2].Invoke(cap, "echo", nil, nil, &eden.InvokeOptions{Timeout: 10 * time.Second}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sys.Close()
		b.StartTimer()
	}
}

// ---- EFS ----

// efsBenchHistory is how many versions a commit benchmark puts in one
// file before starting a fresh one: a commit checkpoints the file's
// whole history, so without a bound an op's cost would grow with b.N.
const efsBenchHistory = 64

// benchEFSCommit is a one-file transaction of a 1 KiB version — one
// invocation to commit, plus the lock in Locking mode.
func benchEFSCommit(b *testing.B, mode efs.CCMode) {
	_, nodes := benchSystem(b, 1)
	client := nodes[0].EFS(mode)
	payload := make([]byte, 1024)
	var f eden.Capability
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%efsBenchHistory == 0 {
			b.StopTimer()
			var err error
			if f, err = client.CreateFile(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		tx := client.Begin()
		if err := tx.Write(f, uint64(i%efsBenchHistory), payload); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEFSCommitLocking(b *testing.B)    { benchEFSCommit(b, efs.Locking) }
func BenchmarkEFSCommitOptimistic(b *testing.B) { benchEFSCommit(b, efs.Optimistic) }

// BenchmarkEFSRead is the read of kv-mixed: the latest 1 KiB version
// of a file on another node.
func BenchmarkEFSRead(b *testing.B) {
	_, nodes := benchSystem(b, 2)
	f, err := nodes[0].EFS(efs.Optimistic).CreateFile()
	if err != nil {
		b.Fatal(err)
	}
	tx := nodes[0].EFS(efs.Optimistic).Begin()
	if err := tx.Write(f, 0, make([]byte, 1024)); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	client := nodes[1].EFS(efs.Optimistic)
	if _, _, err := client.Read(f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Read(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEFSReadRemote is BenchmarkEFSRead over loopback TCP: the
// latest 1 KiB version of a file on the other kernel, both nodes'
// allocations counted. The serving node reads the request into a pooled
// frame, writes the reply into the frame it is sent in and frees the
// request's once the reply is sent, so what is left is the invoker's
// side: the reply's frame read, 1 allocation (2 while the request's was
// one too).
func BenchmarkEFSReadRemote(b *testing.B) {
	ks := tcpKernels(b, efs.RegisterType)
	home := efs.NewClient(ks[1], efs.Optimistic)
	f, err := home.CreateFile()
	if err != nil {
		b.Fatal(err)
	}
	tx := home.Begin()
	if err := tx.Write(f, 0, make([]byte, 1024)); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	client := efs.NewClient(ks[0], efs.Optimistic)
	if _, _, err := client.Read(f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Read(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEFSContendedHotFile(b *testing.B) {
	_, nodes := benchSystem(b, 1)
	client := nodes[0].EFS(efs.Optimistic)
	f, err := client.CreateFile()
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex // meter only; contention is inside EFS
	committed := 0
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for {
				tx := client.Begin()
				_, ver, err := tx.Read(f)
				if err != nil {
					b.Fatal(err)
				}
				if err := tx.Write(f, ver, []byte("x")); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				break
			}
			mu.Lock()
			committed++
			mu.Unlock()
		}
	})
	if committed != b.N {
		b.Fatalf("committed %d of %d", committed, b.N)
	}
}

// ---- dispatch depth ----

func benchDispatchDepth(b *testing.B, depth int) {
	sys, nodes := benchSystem(b, 1)
	root := eden.NewType("bench.d0")
	root.Op(eden.Operation{Name: "op", Access: eden.AccessRead, Handler: func(c *eden.Call) {}})
	if err := sys.RegisterType(root); err != nil {
		b.Fatal(err)
	}
	for d := 1; d <= depth; d++ {
		sub := eden.NewType(fmt.Sprintf("bench.d%d", d))
		sub.Extends = fmt.Sprintf("bench.d%d", d-1)
		if err := sys.RegisterType(sub); err != nil {
			b.Fatal(err)
		}
	}
	cap, err := nodes[0].CreateObject(fmt.Sprintf("bench.d%d", depth))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[0].Invoke(cap, "op", nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDispatchDepth0(b *testing.B) { benchDispatchDepth(b, 0) }
func BenchmarkDispatchDepth4(b *testing.B) { benchDispatchDepth(b, 4) }
func BenchmarkDispatchDepth8(b *testing.B) { benchDispatchDepth(b, 8) }

// ---- single-level memory ----

// benchPagedInvoke reads round-robin over objects of which the memory
// budget holds the given fraction, on a log in memory or (storeDir set)
// on disk with real fsync. The reads change nothing, so every
// eviction after the first round is of a clean object.
func benchPagedInvoke(b *testing.B, budgetFraction float64, storeDir string) {
	const objects, objectSize = 8, 8 << 10
	sys, err := eden.NewSystem(eden.SystemConfig{DefaultTimeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	node, err := sys.AddNodeWithConfig("paging", eden.NodeConfig{
		MemoryBytes:     int64(budgetFraction * objects * objectSize),
		EvictOnPressure: true,
		StoreDir:        storeDir,
	})
	if err != nil {
		b.Fatal(err)
	}
	tm := eden.NewType("bench.page")
	tm.Op(eden.Operation{Name: "echo", Access: eden.AccessRead, Handler: func(c *eden.Call) {}})
	tm.Op(eden.Operation{Name: "store", Handler: func(c *eden.Call) {
		_ = c.Self().Update(func(r *eden.Representation) error {
			r.SetData("state", c.Data)
			return nil
		})
	}})
	if err := sys.RegisterType(tm); err != nil {
		b.Fatal(err)
	}
	caps := make([]eden.Capability, objects)
	for i := range caps {
		caps[i], err = node.CreateObject("bench.page")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := node.Invoke(caps[i], "store", make([]byte, objectSize), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.Invoke(caps[i%objects], "echo", nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvokeResident(b *testing.B)      { benchPagedInvoke(b, 2.0, "") }
func BenchmarkInvokePagedHalf(b *testing.B)     { benchPagedInvoke(b, 0.5, "") }
func BenchmarkInvokePagedHalfFile(b *testing.B) { benchPagedInvoke(b, 0.5, b.TempDir()) }
