// Package store implements Eden's long-term storage: the medium on
// which checkpointed object representations survive node failures.
//
// "An object can request that the kernel record its long-term state
// (representation) on a reliable storage medium through invocation of
// the kernel checkpoint primitive. ... Following a node failure, if an
// invocation is received, the object will be reincarnated from the
// state that existed at the time the most recent checkpoint was
// executed."
//
// A Store maps object names to versioned checkpoint records. Writes
// are atomic per record: a reader either sees the previous checkpoint
// or the new one, never a torn mixture — which is exactly the guarantee
// reincarnation needs. File is the one implementation: an append-only log
// (file.go) on a medium behind an I/O seam (medium.go), which is a
// directory on disk that survives process restarts, or process memory. A
// fault layer (faults.go) can sit between the log and either medium, to
// fail, stall, lie about fsyncs and tear tails at a crash.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"eden/internal/edenid"
)

// Errors reported by stores.
var (
	// ErrNotFound reports that an object has no checkpoint in this
	// store.
	ErrNotFound = errors.New("store: no checkpoint for object")
	// ErrFailed reports injected or real media failure.
	ErrFailed = errors.New("store: media failure")
	// ErrStale rejects a checkpoint whose version does not advance the
	// stored one; it protects against a delayed duplicate overwriting
	// newer state.
	ErrStale = errors.New("store: stale checkpoint version")
	// ErrClosed reports a call on a File after its Close.
	ErrClosed = errors.New("store: closed")
)

// notFound is an ErrNotFound carrying the missed ID. The message is
// formatted only if the error is actually printed, so a miss that its
// caller discards does not pay for fmt.
type notFound struct{ id edenid.ID }

func (e *notFound) Error() string { return fmt.Sprintf("%v: %v", ErrNotFound, e.id) }
func (e *notFound) Unwrap() error { return ErrNotFound }

// Record is one checkpoint: an object's identity, its type, and its
// encoded representation at some version.
type Record struct {
	// Object names the checkpointed object.
	Object edenid.ID
	// TypeName identifies the type manager needed to reincarnate.
	TypeName string
	// Version is the checkpoint sequence number, increasing per
	// object.
	Version uint64
	// Epoch is the object's residency epoch: incremented by every
	// committed move, constant across checkpoints at one home. Recovery
	// uses it to order incarnations — a record at epoch E is stale the
	// moment any node holds the object at an epoch above E — so a
	// crashed move resolves to exactly one home. Zero (records written
	// before epochs existed) reads as epoch 1.
	Epoch uint64
	// Frozen marks an immutable representation.
	Frozen bool
	// Backup marks a checkpoint held on behalf of another node: this
	// record arrived via a checkpoint ship, and Home is the node that
	// shipped it. The distinction survives restarts so a recovering
	// checksite does not mistake backups for its own objects and claim
	// to be their home while the real home is alive.
	Backup bool
	// Home is the shipping node for a backup record (zero otherwise).
	Home uint32
	// Policy is the object's checksite policy as of this checkpoint. It
	// is written with the state, so a restarted, promoted or moved-to
	// home knows where its checkpoints go and which nodes a destroy must
	// reach.
	Policy
	// Rep is the encoded representation (segment wire form).
	Rep []byte
}

// MoveIntent is the durable commit record of an in-flight move
// transaction: the source writes it before the representation leaves
// the node, and deletes it when the move commits or aborts. An intent
// that survives a crash marks the transaction in doubt; recovery
// probes Dest's epoch and resolves to exactly one home.
type MoveIntent struct {
	// Object is the object mid-move.
	Object edenid.ID
	// Dest is the destination node of the transfer.
	Dest uint32
	// Epoch is the residency epoch the destination installs under
	// (the source's epoch + 1).
	Epoch uint64
}

// Meta is what a store knows about a record without reading its
// representation: the answer to "is it here, at what version, and whose
// is it".
type Meta struct {
	// Version and Epoch are the record's checkpoint version and
	// residency epoch.
	Version, Epoch uint64
	// Backup and Home are the record's backup marker and shipping node;
	// Sited says the record carries a checksite policy (Record.Sited).
	Backup, Sited bool
	Home          uint32
}

// Meta returns the record's metadata.
func (rec Record) Meta() Meta {
	return Meta{Version: rec.Version, Epoch: rec.Epoch, Backup: rec.Backup, Home: rec.Home, Sited: rec.Sited()}
}

// Policy is an object's checksite policy as records and shipments lay
// it out: its reliability level, its checksites, and the ex-checksites
// that may still hold a record of it. The zero Policy, a local-only
// object's, takes no bytes, so a record or shipment without one is laid
// out as before policies were written.
type Policy struct {
	Level     uint8
	Sites, Ex []uint32
}

// MaxSites bounds each of a policy's node lists: the layout counts them
// in 16 bits.
const MaxSites = 1<<16 - 1

// Sited reports whether the policy is not the zero one.
func (p Policy) Sited() bool { return p.Level != 0 || len(p.Sites) > 0 || len(p.Ex) > 0 }

// Len is the length of the policy's layout: level(1) | n(2) site(4)×n |
// m(2) ex(4)×m, or nothing for the zero policy.
func (p Policy) Len() int {
	if !p.Sited() {
		return 0
	}
	return 1 + 2 + 4*len(p.Sites) + 2 + 4*len(p.Ex)
}

// Append appends the policy's layout to dst. Lists longer than MaxSites
// are the caller's error; the kernel refuses them when a policy is set.
func (p Policy) Append(dst []byte) []byte {
	if !p.Sited() {
		return dst
	}
	dst = append(dst, p.Level)
	for _, nodes := range [2][]uint32{p.Sites, p.Ex} {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(nodes)))
		for _, n := range nodes {
			dst = binary.BigEndian.AppendUint32(dst, n)
		}
	}
	return dst
}

// errBadPolicy is a policy layout that cannot be decoded; each reader
// wraps it in its own damage error.
var errBadPolicy = errors.New("bad checksite policy")

// DecodePolicy parses the layout of a policy that is not the zero one at
// the front of b, and returns what follows it. A layout that decodes to
// the zero policy is damage: Append writes nothing then.
func DecodePolicy(b []byte) (Policy, []byte, error) {
	var p Policy
	if len(b) < 1 {
		return p, nil, fmt.Errorf("%w: truncated", errBadPolicy)
	}
	p.Level, b = b[0], b[1:]
	for _, nodes := range [2]*[]uint32{&p.Sites, &p.Ex} {
		if len(b) < 2 {
			return p, nil, fmt.Errorf("%w: truncated", errBadPolicy)
		}
		n := int(binary.BigEndian.Uint16(b))
		if b = b[2:]; len(b) < 4*n {
			return p, nil, fmt.Errorf("%w: truncated", errBadPolicy)
		}
		*nodes = make([]uint32, n)
		for i := range *nodes {
			(*nodes)[i] = binary.BigEndian.Uint32(b[4*i:])
		}
		b = b[4*n:]
	}
	if !p.Sited() {
		return p, nil, fmt.Errorf("%w: empty", errBadPolicy)
	}
	return p, b, nil
}

// Store is the long-term storage interface the kernel checkpoints
// against. Implementations must be safe for concurrent use.
type Store interface {
	// Put installs a checkpoint atomically. It fails with ErrStale if
	// rec.Version is not greater than the stored version. Put may keep
	// rec.Rep, so the caller hands it bytes it will not write again;
	// File copies them into its log, and holds nothing of rec once Put
	// returns.
	Put(rec Record) error
	// Get returns the most recent checkpoint for the object. The
	// caller owns the result: nothing else refers to its Rep.
	Get(id edenid.ID) (Record, error)
	// Stat reports whether Get would find a checkpoint for the object,
	// and that record's metadata, without reading the representation. A
	// caller that wants a fact about a record, not its contents, asks
	// here.
	Stat(id edenid.ID) (Meta, bool)
	// Delete removes an object's checkpoint (object destruction).
	Delete(id edenid.ID) error
	// List returns the IDs of all checkpointed objects, sorted.
	List() ([]edenid.ID, error)
	// PutIntent durably records an in-flight move transaction,
	// replacing any previous intent for the same object.
	PutIntent(it MoveIntent) error
	// DeleteIntent removes an object's move intent (commit or abort);
	// deleting an absent intent is not an error.
	DeleteIntent(id edenid.ID) error
	// ListIntents returns every surviving move intent, sorted by
	// object ID — the recovery boot scan.
	ListIntents() ([]MoveIntent, error)
}

// Memory is File. The name stays only because benchmark/ names it.
type Memory = File

// NewMemory returns a File in memory, as NewFile("") does. It stays only
// because benchmark/ calls it.
func NewMemory() *File { f, _ := NewFile(""); return f } // a log in memory opens without error
