package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"eden/internal/capability"
	"eden/internal/efs"
	"eden/internal/kernel"
	"eden/internal/store"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// invokeTimeout bounds every invocation the benchmark makes itself; it
// is the kernels' default, stated.
const invokeTimeout = 5 * time.Second

// repOverhead is what an EFS file's representation holds beyond its one
// 1 KiB version (the meta segment); the paged workload's memory budget
// is counted in whole resident files.
const repOverhead = 12

// cluster is one workload's kernels, wired over loopback TCP, and the
// objects populated on them.
type cluster struct {
	w       *workload
	tcps    []*transport.TCP
	kernels []*kernel.Kernel
	pool    []byte                  // seeded random bytes that value and request bodies are cut from
	tel     *telemetry.Registry     // shared by every node; nil when untraced
	caps    []capability.Capability // one per key
	mem     []*store.Memory         // each node's store when it was started without directories, else
	dirs    []string                // each node's store.File directory
}

// storesDir is where every store.File directory of a run lives.
func storesDir(outDir string) string { return filepath.Join(outDir, "stores") }

// cleanOnSignal removes the store directories when the run is
// interrupted; a normal exit removes each as its user returns.
func cleanOnSignal(outDir string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		os.RemoveAll(storesDir(outDir))
		os.Exit(130)
	}()
}

// populated is a file workload's store directories with every key's
// file in them, and the names of those files.
type populated struct {
	dir  string
	caps []capability.Capability
}

// prepare gives a file workload a fresh set of store.File directories
// under outDir with every key's file in them, as kernels that lost power
// would leave them; a memory workload gets nil. The keys are populated on
// memory stores and each checkpoint is then written with one
// store.File.Put, since populating on the file stores costs three fsyncs
// a key where this costs one. An fsync on the builder's disk moves by a
// factor of two within minutes, so this is the one step of a file
// workload that set-up time leaves out (README, setup_s). The caller
// removes the directories.
func prepare(w *workload, seed uint64, outDir string) (*populated, error) {
	if !w.file {
		return nil, nil
	}
	c, err := newCluster(w, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	c.close()
	if err := os.MkdirAll(storesDir(outDir), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(storesDir(outDir), w.name+"-")
	if err != nil {
		return nil, err
	}
	p := &populated{dir: dir, caps: c.caps}
	errs := make(chan error, len(c.mem))
	for i, m := range c.mem {
		go func() { errs <- copyStore(m, p.nodeDir(uint32(i+1))) }()
	}
	for range c.mem {
		if cerr := <-errs; cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		p.remove()
		return nil, err
	}
	return p, nil
}

// copyStore writes every record of m to a store.File at dir.
func copyStore(m *store.Memory, dir string) error {
	f, err := store.NewFile(dir)
	if err != nil {
		return err
	}
	ids, err := m.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		rec, err := m.Get(id)
		if err != nil {
			return err
		}
		if err := f.Put(rec); err != nil {
			return err
		}
	}
	return nil
}

func (p *populated) nodeDir(node uint32) string {
	return filepath.Join(p.dir, fmt.Sprintf("node%d", node))
}

func (p *populated) remove() {
	if p != nil {
		os.RemoveAll(p.dir)
	}
}

// newCluster starts the workload's kernels and brings its objects into
// being: without p, on memory stores, it populates them; on the file
// stores of p it is a restart, which boots on the directories and
// faults in what the workload holds resident. With a tracer, every
// transport, store and handler is wrapped and Config.Telemetry is on;
// without one the kernels get the bare substrates, so the measured run
// pays for nothing the program would not pay for in use.
func newCluster(w *workload, seed uint64, tr *tracer, p *populated) (*cluster, error) {
	c := &cluster{w: w, pool: make([]byte, 2*maxBody)}
	for i := 0; i < len(c.pool); i += 8 {
		binary.LittleEndian.PutUint64(c.pool[i:], splitmix(seed+uint64(i)))
	}
	reg := kernel.NewRegistry()
	if err := registerCell(reg); err != nil {
		return nil, err
	}
	if err := efs.RegisterType(reg); err != nil {
		return nil, err
	}
	if tr != nil {
		traceHandlers(reg, tr)
		c.tel = telemetry.New()
	}
	for i := 0; i < w.nodes; i++ {
		t, err := transport.NewTCP(uint32(i+1), "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		t.SetTelemetry(c.tel)
		c.tcps = append(c.tcps, t)
	}
	for i, t := range c.tcps {
		for j, peer := range c.tcps {
			if i != j {
				t.AddPeer(uint32(j+1), peer.Addr())
			}
		}
	}
	for i, t := range c.tcps {
		node := uint32(i + 1)
		var st store.Store
		if p == nil {
			m := store.NewMemory()
			c.mem, st = append(c.mem, m), m
		} else {
			f, err := store.NewFile(p.nodeDir(node))
			if err != nil {
				c.close()
				return nil, err
			}
			c.dirs, st = append(c.dirs, p.nodeDir(node)), f
		}
		var net transport.Transport = t
		if tr != nil {
			net = &tracedTransport{Transport: t, t: tr}
			st = &tracedStore{Store: st, t: tr, node: node}
		}
		cfg := kernel.DefaultConfig(node, fmt.Sprintf("node%d", node))
		cfg.DefaultTimeout = invokeTimeout
		cfg.Telemetry = c.tel
		if w.resident > 0 && i > 0 {
			perNode := w.keys / (w.nodes - 1)
			cfg.MemoryBytes = int64(w.resident * float64(perNode) * float64(w.value+repOverhead))
			cfg.EvictOnPressure = true
		}
		c.kernels = append(c.kernels, kernel.New(cfg, net, reg, st))
	}
	var err error
	if p == nil {
		err = c.populate()
	} else {
		c.caps = p.caps
		err = c.faultIn()
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// faultIn reads, from node 1, as many keys as the home nodes hold
// resident: all of them without a memory budget, else the budget's
// worth, which fills it without one eviction.
func (c *cluster) faultIn() error {
	n := c.w.keys
	if c.w.resident > 0 {
		n = int(c.w.resident * float64(n))
	}
	fs := efs.NewClient(c.kernels[0], efs.Optimistic)
	for key := 0; key < n; key++ {
		if _, _, err := fs.Read(c.caps[key]); err != nil {
			return fmt.Errorf("faulting in key %d: %w", key, err)
		}
	}
	return nil
}

// populate creates every key's object on its home kernel and writes its
// first value there, one goroutine per home node.
func (c *cluster) populate() error {
	w := c.w
	c.caps = make([]capability.Capability, w.keys)
	homes := max(1, w.nodes-1)
	errs := make(chan error, homes)
	for h := 0; h < homes; h++ {
		go func() {
			value := make([]byte, w.value)
			for key := h; key < w.keys; key += homes {
				k := c.kernels[w.home(key)]
				c.fillBody(value, uint32(key))
				sealValue(value, uint32(key), 0, 1)
				var err error
				if w.efs {
					c.caps[key], err = createFile(k, value)
				} else {
					c.caps[key], err = createCell(k, value)
				}
				if err != nil {
					errs <- fmt.Errorf("populating key %d: %w", key, err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for h := 0; h < homes; h++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func createCell(k *kernel.Kernel, value []byte) (capability.Capability, error) {
	cp, err := k.Create(cellType, nil)
	if err != nil {
		return cp, err
	}
	_, err = k.Invoke(cp, "put", value, nil, &kernel.InvokeOptions{Timeout: invokeTimeout})
	return cp, err
}

func createFile(k *kernel.Kernel, value []byte) (capability.Capability, error) {
	cl := efs.NewClient(k, efs.Optimistic)
	cp, err := cl.CreateFile()
	if err != nil {
		return cp, err
	}
	tx := cl.Begin()
	if err := tx.Write(cp, 0, value); err != nil {
		return cp, err
	}
	return cp, tx.Commit()
}

// maxBody is the largest value or request the workloads use.
const maxBody = 64 << 10

// fillBody cuts v's body out of the pool at a place the salt picks.
func (c *cluster) fillBody(v []byte, salt uint32) {
	copy(v[valueHeader:], c.pool[salt%maxBody:])
}

// close shuts every kernel and every listener, so that nothing of this
// workload — goroutines, heap, sockets — is left for the next one. The
// store directories stay: they are the state a restart finds.
func (c *cluster) close() {
	for _, k := range c.kernels {
		k.Close()
	}
	for _, t := range c.tcps {
		t.Close() // a second Close of a kernel's transport is a no-op
	}
}
