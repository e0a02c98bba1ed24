// Package eden is a Go reproduction of the Eden system described in
// "The Architecture of the Eden System" (Lazowska, Levy, Almes,
// Fischer, Fowler, Vestal — SOSP 1981): an "integrated distributed"
// object system in which every program and resource is an object with
// a unique name, a representation, a type, and some number of
// invocations, addressed location-independently through capabilities.
//
// The package is a facade over the kernel and its substrates
// (internal/kernel, internal/locator, internal/transport,
// internal/store, internal/efs, internal/naming): it assembles
// multi-node systems in one process, registers type managers, and
// exposes the kernel primitives — object creation, location-independent
// invocation, checkpoint/checksite/crash, freeze/replicate, move — plus
// the user-level directory service and the Eden File System.
//
// A minimal session:
//
//	sys, _ := eden.NewSystem(eden.SystemConfig{})
//	defer sys.Close()
//	a, _ := sys.AddNode("office-a")
//	b, _ := sys.AddNode("office-b")
//
//	counter := eden.NewType("counter")
//	counter.Op(eden.Operation{Name: "inc", Handler: func(c *eden.Call) { ... }})
//	sys.RegisterType(counter)
//
//	cap, _ := a.CreateObject("counter")
//	reply, _ := b.Invoke(cap, "inc", nil, nil, nil) // located transparently
package eden

import (
	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/telemetry"
)

// Re-exported core types. The public vocabulary of Eden is small:
// capabilities designate objects; type managers define operations;
// Call is the handler's view of one invocation.
type (
	// Capability pairs an object's unique name with access rights; it
	// is the only way to designate an object.
	Capability = capability.Capability
	// CapabilityList is an ordered collection of capabilities, as
	// passed in invocation parameters and stored in capability
	// segments.
	CapabilityList = capability.List
	// Rights is the access-rights bit-set carried by a capability.
	Rights = rights.Set
	// ID is an object's system-wide unique-for-all-time name. It is
	// exported as diagnostic vocabulary (logging, figures, store keys);
	// every operation that exercises authority takes a Capability.
	//
	//edenvet:ignore capleak diagnostic vocabulary only; the invocation API accepts capabilities exclusively
	ID = edenid.ID
	// TypeManager defines a type: its operations, invocation classes
	// and lifecycle hooks.
	TypeManager = kernel.TypeManager
	// Operation describes one operation of a type.
	Operation = kernel.Operation
	// Call is the context an operation handler receives.
	Call = kernel.Call
	// Handler is the body of an operation.
	Handler = kernel.Handler
	// Object is an active object's kernel handle, available to type
	// implementations (handlers receive it via Call.Self).
	Object = kernel.Object
	// Reply is an invocation's results.
	Reply = kernel.Reply
	// InvokeOptions tunes one invocation (timeout, replica use).
	InvokeOptions = kernel.InvokeOptions
	// Pending is an asynchronous invocation in flight; its result is
	// sticky, so Wait may be called repeatedly.
	Pending = kernel.Pending
	// AsyncCompletion is the decoded form of a port-delivered async
	// completion (see Node.InvokeAsyncPort).
	AsyncCompletion = kernel.AsyncCompletion
	// Representation is an object's long-term state: named data and
	// capability segments.
	Representation = segment.Representation
	// Reliability selects a checkpoint placement policy level.
	Reliability = kernel.Reliability
	// Access is an operation's declared access class (shared, read,
	// write), driving the coordinator's reader/writer scheduling.
	Access = kernel.Access
	// Semaphore is the kernel-supplied intra-object counting
	// semaphore.
	Semaphore = kernel.Semaphore
	// Port is the kernel-supplied intra-object message port.
	Port = kernel.Port
	// Telemetry is a node's metrics-and-tracing registry, enabled via
	// SystemConfig.Telemetry and read via Node.Telemetry.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of a registry's
	// counters, gauges and histograms.
	TelemetrySnapshot = telemetry.Snapshot
	// HistogramSnapshot is one latency distribution within a snapshot;
	// it answers Quantile queries (p50/p95/p99).
	HistogramSnapshot = telemetry.HistogramSnapshot
	// SpanRecord is one completed invocation-trace span.
	SpanRecord = telemetry.SpanRecord
)

// Kernel-defined rights, re-exported.
const (
	// RightInvoke permits invoking operations at all.
	RightInvoke = rights.Invoke
	// RightCheckpoint permits checkpoint and checksite control.
	RightCheckpoint = rights.Checkpoint
	// RightMove permits relocating the object.
	RightMove = rights.Move
	// RightFreeze permits freezing the representation.
	RightFreeze = rights.Freeze
	// RightDestroy permits crashing and deleting the object.
	RightDestroy = rights.Destroy
	// RightGrant permits deriving further capabilities.
	RightGrant = rights.Grant
	// AllRights is every kernel- and type-defined right.
	AllRights = rights.All
)

// Checkpoint reliability levels, re-exported.
const (
	// RelLocal keeps checkpoints in the home node's store only.
	RelLocal = kernel.RelLocal
	// RelRemote keeps checkpoints at a designated remote checksite.
	RelRemote = kernel.RelRemote
	// RelReplicated keeps checkpoints locally and at every designated
	// remote site.
	RelReplicated = kernel.RelReplicated
)

// Operation access classes, re-exported.
const (
	// AccessShared (the zero value) runs the operation concurrently
	// with everything else; the type synchronizes internally through
	// invocation-class limits, semaphores, and ports.
	AccessShared = kernel.AccessShared
	// AccessRead marks the operation read-only; its processes share a
	// bounded per-object reader pool and run concurrently.
	AccessRead = kernel.AccessRead
	// AccessWrite marks the operation mutating; its process runs
	// exclusively, with writer preference over queued readers, and holds
	// the object across any nested invoke it makes.
	AccessWrite = kernel.AccessWrite
)

// TypeRight returns the i'th type-defined right (0 ≤ i < 16), whose
// meaning is chosen by each type manager.
func TypeRight(i int) Rights { return rights.Type(i) }

// NewType returns an empty type manager with the given name; populate
// it with Op and Limit, then register it with System.RegisterType.
func NewType(name string) *TypeManager { return kernel.NewType(name) }

// DecodeAsyncCompletion parses a message received from an async
// completion port back into the submission id, outcome, and data.
func DecodeAsyncCompletion(m []byte) (AsyncCompletion, error) {
	return kernel.DecodeAsyncCompletion(m)
}

// Errors re-exported from the kernel, so user code can errors.Is
// against the public package.
var (
	// ErrNoSuchObject reports an invocation of an object no node
	// hosts.
	ErrNoSuchObject = kernel.ErrNoSuchObject
	// ErrNoSuchType reports an unregistered type name.
	ErrNoSuchType = kernel.ErrNoSuchType
	// ErrNoSuchOperation reports an operation the type does not
	// define.
	ErrNoSuchOperation = kernel.ErrNoSuchOperation
	// ErrRights reports a capability with insufficient rights.
	ErrRights = kernel.ErrRights
	// ErrTimeout reports an expired invocation time limit.
	ErrTimeout = kernel.ErrTimeout
	// ErrCrashed reports a target that crashed mid-invocation.
	ErrCrashed = kernel.ErrCrashed
	// ErrFrozen reports a mutation of a frozen representation.
	ErrFrozen = kernel.ErrFrozen
	// ErrMoving reports an operation rejected because the object is
	// mid-move.
	ErrMoving = kernel.ErrMoving
	// ErrInvocationFailed wraps application-level handler failures.
	ErrInvocationFailed = kernel.ErrInvocationFailed
)
