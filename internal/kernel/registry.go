// Package kernel implements the Eden kernel: "the software interface
// supplying location-independent object support".
//
// One Kernel runs per node. It supplies the primitives the paper
// enumerates — creation of new types and objects, location-independent
// object invocation, preservation of object long-term state over
// failures, and intra-object communication and synchronization — on top
// of a transport (package transport), the location protocol (package
// locator) and long-term storage (package store).
//
// The mapping from the paper's iAPX-432 machinery to Go is direct:
// Eden processes are goroutines, ports are channels, and each active
// object's coordinator is a monitor (Object.sched) guarding the
// object's dispatch state, entered by whichever goroutine has an
// arrival or a completion to report.
package kernel

import (
	"fmt"
	"sort"
	"sync"

	"eden/internal/msg"
	"eden/internal/rights"
)

// DefaultClass is the invocation class used by operations that do not
// name one. Its concurrency limit defaults to unlimited.
const DefaultClass = "default"

// Access is an operation's declared access mode: how its processes
// may share the object's representation. Every invocation waits in its
// invocation class's queue for room under the class limit; the mode
// adds which other processes it excludes — the paper's "tree of
// processes" synchronized by the kernel rather than by every caller
// serializing through one dispatch loop.
type Access uint8

const (
	// AccessShared is the zero value: the operation's processes
	// exclude nothing — they run concurrently with everything else up
	// to their class limit, and the type synchronizes internally
	// through the monitor machinery (semaphores, ports).
	AccessShared Access = iota
	// AccessRead declares the operation read-only. Its processes fan
	// out to a bounded per-object pool (Config.ReaderPool) and run
	// concurrently against the representation, but never alongside an
	// AccessWrite process.
	AccessRead
	// AccessWrite declares the operation mutating. Its process runs
	// exclusively: pending readers drain first, queued readers wait
	// behind it (writer preference), and writers execute one at a time
	// in arrival order. A writer holds its exclusivity until it returns,
	// across any nested invoke it makes.
	AccessWrite
)

// String names the access class.
func (a Access) String() string {
	switch a {
	case AccessShared:
		return "shared"
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return fmt.Sprintf("access(%d)", uint8(a))
	}
}

// Handler is the body of one operation, executed by a process (a
// goroutine) dispatched by the object's coordinator. The handler
// reads parameters from and writes results to the Call.
type Handler func(c *Call)

// Operation describes one operation of a type: its name, the
// invocation class it belongs to, the rights a capability must carry
// to invoke it, and its body.
type Operation struct {
	// Name is the operation name used in invocation requests.
	Name string
	// Class is the invocation class the operation belongs to. Every
	// operation belongs to exactly one class ("an exhaustive and
	// mutually exclusive set of invocation classes"); empty means
	// DefaultClass.
	Class string
	// Rights are the rights, beyond rights.Invoke, that the invoking
	// capability must carry.
	Rights rights.Set
	// Access is the operation's declared access mode; it is the
	// exclusion half of the coordinator's schedule. The zero value
	// (AccessShared) preserves monitor-synchronized concurrency.
	// Setting ReadOnly implies AccessRead, and vice versa; Op
	// normalizes the pair.
	Access Access
	// ReadOnly marks operations that do not mutate the representation;
	// only these may be served by a frozen replica on another node.
	ReadOnly bool
	// Handler is the operation body.
	Handler Handler
}

// TypeManager is the code of a type: "a collection of procedures
// defining the operations on the object, shared among objects of the
// same type". In the paper a type manager is itself an object whose
// representation holds instruction segments; here its representation
// is Go code registered under the type's name on every node
// (homogeneous nodes make the code universally available, as sharing
// type code across instances did on one node in Eden).
type TypeManager struct {
	// Name is the unique type name.
	Name string
	// Extends optionally names a supertype whose operations this type
	// inherits (the paper's §5 abstract type hierarchy). Lookup of an
	// operation falls back to the supertype chain.
	Extends string
	// Operations maps operation names to their descriptions.
	Operations map[string]*Operation
	// ClassLimits maps invocation class names to their concurrency
	// limits: "the number of concurrent processes that are allowed to
	// be servicing each class". 0 (or absence) means unlimited; 1
	// gives mutual exclusion among the class's operations.
	ClassLimits map[string]int
	// Init, when non-nil, initializes a newly created instance's
	// representation before any invocation is dispatched.
	Init func(o *Object) error
	// Reincarnate, when non-nil, is the reincarnation condition
	// handler: it "does any work needed to reinitialize the object,
	// build temporary data structures, and so on" when a passive
	// object is activated. Invocations are blocked until it returns.
	Reincarnate func(o *Object) error
}

// NewType returns an empty TypeManager with the given name.
func NewType(name string) *TypeManager {
	return &TypeManager{
		Name:        name,
		Operations:  make(map[string]*Operation),
		ClassLimits: make(map[string]int),
	}
}

// Op registers an operation on the type and returns the TypeManager
// for chaining. It panics on duplicate names — a static programming
// error in the type definition.
func (t *TypeManager) Op(op Operation) *TypeManager {
	if op.Name == "" {
		panic("kernel: operation with empty name")
	}
	if op.Handler == nil {
		panic(fmt.Sprintf("kernel: operation %q has no handler", op.Name))
	}
	if _, dup := t.Operations[op.Name]; dup {
		panic(fmt.Sprintf("kernel: duplicate operation %q on type %q", op.Name, t.Name))
	}
	if op.Class == "" {
		op.Class = DefaultClass
	}
	// Normalize the two read-only declarations: ReadOnly (the replica-
	// serving flag) and AccessRead (the scheduling class) imply each
	// other; a ReadOnly writer is a static contradiction.
	if op.ReadOnly && op.Access == AccessWrite {
		panic(fmt.Sprintf("kernel: operation %q on type %q is ReadOnly but declares AccessWrite", op.Name, t.Name))
	}
	if op.ReadOnly {
		op.Access = AccessRead
	} else if op.Access == AccessRead {
		op.ReadOnly = true
	}
	t.Operations[op.Name] = &op
	return t
}

// Limit sets the concurrency limit for an invocation class and returns
// the TypeManager for chaining.
func (t *TypeManager) Limit(class string, n int) *TypeManager {
	if n < 0 {
		panic("kernel: negative class limit")
	}
	t.ClassLimits[class] = n
	return t
}

// Registry holds the type managers known to a system. Eden nodes are
// homogeneous, so in practice one Registry is shared by every kernel
// in a system.
type Registry struct {
	mu     sync.RWMutex
	types  map[string]*TypeManager
	tables sync.Map // type name → *typeTable, built on first use
}

// NewRegistry returns an empty type registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]*TypeManager)}
}

// Register installs a type manager. Registering a name twice is an
// error (types are immutable once published), and so is an operation
// declaring ReadOnly: true alongside Access: AccessWrite — a
// hand-built Operations map bypasses Op's validation, and the reader
// pool and replica serving both trust these declarations completely.
// The consistent pair is normalized the same way Op normalizes it.
// (The accesspurity analyzer is the static mirror of this check.)
func (r *Registry) Register(t *TypeManager) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("kernel: registering unnamed type")
	}
	for name, op := range t.Operations {
		if op == nil {
			return fmt.Errorf("kernel: type %q registers nil operation %q", t.Name, name)
		}
		if op.ReadOnly && op.Access == AccessWrite {
			return fmt.Errorf("kernel: operation %q on type %q is ReadOnly but declares AccessWrite", name, t.Name)
		}
		if op.ReadOnly {
			op.Access = AccessRead
		} else if op.Access == AccessRead {
			op.ReadOnly = true
		}
		// A served request's operation name then decodes to this string,
		// not to a new one per frame.
		msg.InternOperation(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.types[t.Name]; dup {
		return fmt.Errorf("kernel: type %q already registered", t.Name)
	}
	r.types[t.Name] = t
	return nil
}

// Lookup returns the named type manager.
func (r *Registry) Lookup(name string) (*TypeManager, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.types[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchType, name)
	}
	return t, nil
}

// Names returns the registered type names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.types))
	for n := range r.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lineage returns the named type followed by its supertypes, nearest
// first (subtype inheritance: "the subtype inherits the operations of
// its supertype"). It is the only walk of the Extends chain, so its
// guard is the only one: a hierarchy that names an unregistered
// supertype or loops back on itself is an error, never a hang.
func (r *Registry) lineage(name string) ([]*TypeManager, error) {
	var chain []*TypeManager
	for name != "" {
		t, err := r.Lookup(name)
		if err != nil {
			if len(chain) > 0 {
				err = fmt.Errorf("kernel: type %q extends unknown %q", chain[len(chain)-1].Name, name)
			}
			return nil, err
		}
		for _, seen := range chain {
			if seen == t {
				return nil, fmt.Errorf("kernel: type hierarchy cycle at %q", name)
			}
		}
		chain = append(chain, t)
		name = t.Extends
	}
	return chain, nil
}

// classSpec is one row of a type's class table: an invocation class
// and "the number of concurrent processes that are allowed to be
// servicing" it (0 = unlimited).
type classSpec struct {
	name  string
	limit int
}

// boundOp is an operation bound to its row of the class table and to
// the access mode the coordinator schedules it under — captured here
// rather than read from the Operation per call, so that the counts an
// admission charges are the ones its completion settles whatever
// happens to the Operation in between.
type boundOp struct {
	*Operation
	class int32 // index into typeTable.classes and the incarnation's class rows (Object.rows)
	mode  Access
}

// typeTable is a type's flattened hierarchy: every operation reachable
// on it (own and inherited, nearest declaration winning) and every
// class those operations or a Limit declaration mention, each with the
// nearest explicit limit. Types are immutable once published, so the
// table is built once per type and shared by all its incarnations.
type typeTable struct {
	tm      *TypeManager
	ops     map[string]*boundOp
	classes []classSpec
}

// table returns the named type's table, building it on first use — not
// at Register, because a subtype may be registered before the
// supertype it extends. A failed build is not cached for the same
// reason.
func (r *Registry) table(name string) (*typeTable, error) {
	if tt, ok := r.tables.Load(name); ok {
		return tt.(*typeTable), nil
	}
	chain, err := r.lineage(name)
	if err != nil {
		return nil, err
	}
	ops, limits := make(map[string]*Operation), make(map[string]int)
	for i := len(chain) - 1; i >= 0; i-- { // root first: nearer declarations override
		for class, n := range chain[i].ClassLimits {
			limits[class] = n
		}
		for opName, op := range chain[i].Operations {
			ops[opName] = op
		}
	}
	tt := &typeTable{tm: chain[0], ops: make(map[string]*boundOp, len(ops))}
	class := func(name string) int32 {
		for i, cl := range tt.classes {
			if cl.name == name {
				return int32(i)
			}
		}
		tt.classes = append(tt.classes, classSpec{name: name, limit: limits[name]})
		return int32(len(tt.classes) - 1)
	}
	for name := range limits { // a limited class no operation is in still shows in Describe
		class(name)
	}
	for opName, op := range ops {
		tt.ops[opName] = &boundOp{Operation: op, class: class(op.Class), mode: op.Access}
	}
	first, _ := r.tables.LoadOrStore(name, tt) // a racing first use built an equal table
	return first.(*typeTable), nil
}
