package eden

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eden/internal/editor"
	"eden/internal/efs"
	"eden/internal/gateway"
	"eden/internal/kernel"
	"eden/internal/naming"
	"eden/internal/policy"
	"eden/internal/store"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// SystemConfig tunes a System.
type SystemConfig struct {
	// DefaultTimeout bounds invocations that pass no timeout; zero
	// uses the kernel default (5s).
	DefaultTimeout time.Duration
	// LocateTimeout bounds location broadcasts; zero uses the locator
	// default (2s).
	LocateTimeout time.Duration
	// Telemetry enables metrics and invocation tracing: each node gets
	// its own registry (read via Node.Telemetry) and the network gets
	// one for traffic counters (System.NetworkTelemetry). Off by
	// default; the disabled path costs nothing on invocations.
	Telemetry bool
}

// System is an assembly of Eden nodes connected by an in-process
// network, sharing one type registry (Eden nodes are homogeneous).
// For multi-process systems over TCP, see cmd/edennode.
type System struct {
	cfg    SystemConfig
	mesh   *transport.Mesh
	reg    *kernel.Registry
	netTel *telemetry.Registry // nil unless cfg.Telemetry

	mu     sync.Mutex
	nodes  map[uint32]*Node
	nextID uint32
	closed bool
}

// NewSystem creates an empty system. Standard system types (the
// directory service and the Eden File System) are pre-registered.
func NewSystem(cfg SystemConfig) (*System, error) {
	s := &System{
		cfg:   cfg,
		mesh:  transport.NewMesh(1981), // the year Eden was described
		reg:   kernel.NewRegistry(),
		nodes: make(map[uint32]*Node),
	}
	if cfg.Telemetry {
		s.netTel = telemetry.New()
		s.mesh.SetTelemetry(s.netTel)
	}
	if err := naming.RegisterType(s.reg); err != nil {
		return nil, err
	}
	if err := efs.RegisterType(s.reg); err != nil {
		return nil, err
	}
	if err := policy.RegisterType(s.reg); err != nil {
		return nil, err
	}
	if err := editor.RegisterBaseType(s.reg); err != nil {
		return nil, err
	}
	return s, nil
}

// RegisterType installs a user type manager on every node (present and
// future — the registry is shared).
func (s *System) RegisterType(tm *TypeManager) error { return s.reg.Register(tm) }

// Registry exposes the shared type registry.
func (s *System) Registry() *kernel.Registry { return s.reg }

// NodeConfig tunes one node.
type NodeConfig struct {
	// MemoryBytes is the virtual memory budget for active
	// representations (0 = unbounded).
	MemoryBytes int64
	// StoreDir, when non-empty, keeps the node's long-term storage as
	// a log in this directory, which survives process restarts; empty
	// keeps the log in process memory, which survives node crashes within
	// the process. Either way Crash closes the log and Restart reopens
	// it, replaying what it kept.
	StoreDir string
	// EvictOnPressure makes the node transparently passivate idle
	// objects when MemoryBytes would be exceeded, instead of failing
	// activations — the full single-level-memory behavior.
	EvictOnPressure bool
}

// AddNode creates a node, assigns it the next node number, and boots
// its kernel.
func (s *System) AddNode(name string) (*Node, error) {
	return s.AddNodeWithConfig(name, NodeConfig{})
}

// AddNodeWithConfig creates a node with explicit resources.
func (s *System) AddNodeWithConfig(name string, nc NodeConfig) (*Node, error) {
	return s.addNode(name, nc, nil)
}

// addNode creates a node whose log is opened through faults when that is
// not nil: the crash tests' way in.
func (s *System) addNode(name string, nc NodeConfig, faults *store.Faults) (*Node, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("eden: system closed")
	}
	s.nextID++
	num := s.nextID
	s.mu.Unlock()

	open := store.NewFile
	if faults != nil {
		open = faults.Open
	}
	file, err := open(nc.StoreDir)
	if err != nil {
		return nil, err
	}
	n := &Node{sys: s, num: num, name: name, nc: nc, file: file, faults: faults}
	if s.cfg.Telemetry {
		// One registry per node, surviving Crash/Restart so counters
		// span the node's whole history.
		n.tel = telemetry.New()
	}
	if err := s.boot(n); err != nil {
		_ = file.Close()
		return nil, err
	}
	s.mu.Lock()
	s.nodes[num] = n
	s.mu.Unlock()
	return n, nil
}

// boot attaches a node's kernel to the network.
func (s *System) boot(n *Node) error {
	ep, err := s.mesh.Attach(n.num)
	if err != nil {
		return err
	}
	cfg := kernel.DefaultConfig(n.num, n.name)
	cfg.MemoryBytes = n.nc.MemoryBytes
	cfg.EvictOnPressure = n.nc.EvictOnPressure
	cfg.Telemetry = n.tel
	if s.cfg.DefaultTimeout > 0 {
		cfg.DefaultTimeout = s.cfg.DefaultTimeout
	}
	k := kernel.New(cfg, ep, s.reg, n.file)
	if s.cfg.LocateTimeout > 0 {
		k.Locator().DefaultTimeout = s.cfg.LocateTimeout
	}
	n.mu.Lock()
	n.k = k
	n.down = false
	n.mu.Unlock()
	return nil
}

// Node returns the node with the given number, or nil.
func (s *System) Node(num uint32) *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[num]
}

// Nodes returns all nodes in creation order.
func (s *System) Nodes() []*Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Node, 0, len(s.nodes))
	for i := uint32(1); i <= s.nextID; i++ {
		if n, ok := s.nodes[i]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Partition severs the network link between two nodes (both ways).
func (s *System) Partition(a, b *Node) { s.mesh.Partition(a.num, b.num) }

// Heal restores the link between two nodes.
func (s *System) Heal(a, b *Node) { s.mesh.Heal(a.num, b.num) }

// NetworkStats reports cumulative frame/byte/drop counters for the
// in-process network.
func (s *System) NetworkStats() transport.Stats { return s.mesh.Stats() }

// NetworkTelemetry returns the network's telemetry registry (frame,
// byte, drop and queue-depth instruments), or nil when the system was
// built without SystemConfig.Telemetry.
func (s *System) NetworkTelemetry() *telemetry.Registry { return s.netTel }

// Close shuts down every node and the network, and closes the file
// stores the system opened.
func (s *System) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	nodes := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.mu.Unlock()
	for _, n := range nodes {
		n.mu.Lock()
		k := n.k
		n.down = true
		n.mu.Unlock()
		if k != nil {
			_ = k.Close()
		}
		_ = n.file.Close() // nothing is left to write, or a crash lost it
	}
	return s.mesh.Close()
}

// Node is one Eden node machine: a kernel plus its long-term store,
// attached to the system's network.
type Node struct {
	sys    *System
	num    uint32
	name   string
	nc     NodeConfig
	file   *store.File         // the node's log
	faults *store.Faults       // the fault layer under file, in crash tests
	tel    *telemetry.Registry // nil unless SystemConfig.Telemetry

	mu   sync.Mutex
	k    *kernel.Kernel
	down bool
}

// Num returns the node's number.
func (n *Node) Num() uint32 { return n.num }

// Name returns the node's label.
func (n *Node) Name() string { return n.name }

// Kernel exposes the node's kernel for advanced use (object handles,
// statistics).
func (n *Node) Kernel() *kernel.Kernel {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.k
}

// Telemetry returns the node's telemetry registry — kernel, store and
// EFS metrics plus the invocation trace ring — or nil when the system
// was built without SystemConfig.Telemetry. The registry survives
// Crash/Restart, so counters span the node's whole history.
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// Crash power-fails the node: all active object state is lost; the
// long-term store survives for Restart. The fault layer under the node's
// log, if any, first tears what it held unsynced, as a power failure
// does; then the log is closed, so that nothing the dead incarnation
// still runs can write to it.
func (n *Node) Crash() {
	if n.faults != nil {
		n.faults.Crash()
	}
	n.mu.Lock()
	k := n.k
	n.down = true
	n.mu.Unlock()
	if k != nil {
		_ = k.Close()
	}
	_ = n.file.Close()
	n.sys.mesh.Detach(n.num)
}

// Restart reboots a crashed node with its surviving long-term store,
// reopening its log.
func (n *Node) Restart() error {
	if !n.Down() {
		return fmt.Errorf("eden: node %d is not down", n.num)
	}
	f, err := n.file.Reopen()
	if err != nil {
		return err
	}
	n.file = f
	if err := n.sys.boot(n); err != nil {
		_ = n.file.Close()
		return err
	}
	return nil
}

// CreateObject instantiates a new object of the named type on this
// node and returns a fully privileged capability.
func (n *Node) CreateObject(typeName string) (Capability, error) {
	return n.Kernel().Create(typeName, nil)
}

// Invoke performs a location-independent synchronous invocation from
// this node.
func (n *Node) Invoke(target Capability, operation string, data []byte, caps CapabilityList, opts *InvokeOptions) (Reply, error) {
	return n.Kernel().Invoke(target, operation, data, caps, opts)
}

// InvokeAsync starts an invocation without suspending the caller; it
// runs on one of the node's processors and the returned Pending
// resolves with the outcome (sticky, so Wait may be repeated).
func (n *Node) InvokeAsync(target Capability, operation string, data []byte, caps CapabilityList, opts *InvokeOptions) *Pending {
	return n.Kernel().InvokeAsync(target, operation, data, caps, opts)
}

// Object returns the kernel handle of the object a capability
// designates, provided it is homed on this node — activating it from a
// local checkpoint if necessary. Type implementations normally use
// Call.Self instead; this is for hosting and administrative code.
func (n *Node) Object(c Capability) (*Object, error) { return n.Kernel().Object(c.ID()) }

// EFS returns an Eden File System client bound to this node using the
// given concurrency-control mode.
func (n *Node) EFS(mode efs.CCMode) *efs.Client { return efs.NewClient(n.Kernel(), mode) }

// NewDirectory creates a directory object on this node.
func (n *Node) NewDirectory() (Capability, error) { return naming.CreateRoot(n.Kernel()) }

// Bind binds name to target in a directory.
func (n *Node) Bind(dir Capability, name string, target Capability) error {
	return naming.Bind(n.Kernel(), dir, name, target)
}

// LookupName returns the capability bound to name in a directory.
func (n *Node) LookupName(dir Capability, name string) (Capability, error) {
	return naming.Lookup(n.Kernel(), dir, name)
}

// ListNames lists the names bound in a directory.
func (n *Node) ListNames(dir Capability) ([]string, error) {
	return naming.List(n.Kernel(), dir)
}

// RegisterGateway installs a gateway type — a foreign (non-Eden)
// service wrapped in an object-like interface, per the paper's
// treatment of special-purpose servers. See internal/gateway.
func (s *System) RegisterGateway(spec gateway.Spec) error {
	return gateway.Register(s.reg, spec)
}

// NewPlacementPolicy creates a placement policy object on this node
// governing the given pool of nodes (§4.3's "policy object responsible
// for the location of objects in a particular subsystem").
func (n *Node) NewPlacementPolicy(pool ...uint32) (Capability, error) {
	return policy.Create(n.Kernel(), pool...)
}

// PlaceAndMove consults a placement policy for the subject object's
// node and moves it there. The subject must currently be homed on this
// node.
func (n *Node) PlaceAndMove(policyCap, subject Capability) (uint32, error) {
	return policy.PlaceAndMove(n.Kernel(), policyCap, subject)
}

// NewPathFS creates a directory root on this node and returns a
// path-structured view of the Eden File System rooted there (§5's
// "user-level system for naming, storing and retrieving Eden
// objects"). Other nodes mount the same tree by passing the root
// capability to MountPathFS.
func (n *Node) NewPathFS(mode efs.CCMode) (*efs.PathFS, error) {
	root, err := naming.CreateRoot(n.Kernel())
	if err != nil {
		return nil, err
	}
	return efs.NewPathFS(n.EFS(mode), root), nil
}

// MountPathFS returns this node's view of a path tree rooted at an
// existing directory capability.
func (n *Node) MountPathFS(root Capability, mode efs.CCMode) *efs.PathFS {
	return efs.NewPathFS(n.EFS(mode), root)
}
