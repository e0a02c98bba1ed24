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
// reincarnation needs. Two implementations are provided: an in-memory
// store (with injectable media failure, for the tests) and a
// file-backed store that survives process restarts as an append-only
// log (file.go).
package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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
//
//edenvet:ignore capleak the store sits below the capability layer: checkpoints are keyed by unique name, and holding a record confers no invocation rights
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
	// Rep is the encoded representation (segment wire form).
	Rep []byte
}

// MoveIntent is the durable commit record of an in-flight move
// transaction: the source writes it before the representation leaves
// the node, and deletes it when the move commits or aborts. An intent
// that survives a crash marks the transaction in doubt; recovery
// probes Dest's epoch and resolves to exactly one home.
//
//edenvet:ignore capleak the store sits below the capability layer: intents are keyed by unique name and confer no invocation rights
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
	// Backup and Home are the record's backup marker and shipping node.
	Backup bool
	Home   uint32
}

// Meta returns the record's metadata.
func (rec Record) Meta() Meta {
	return Meta{Version: rec.Version, Epoch: rec.Epoch, Backup: rec.Backup, Home: rec.Home}
}

// Store is the long-term storage interface the kernel checkpoints
// against. Implementations must be safe for concurrent use.
//
//edenvet:ignore capleak the store sits below the capability layer: checkpoints are keyed by unique name, and holding a record confers no invocation rights
type Store interface {
	// Put installs a checkpoint atomically. It fails with ErrStale if
	// rec.Version is not greater than the stored version.
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

// Memory is an in-memory Store with injectable failure, used by tests
// and the failure-injection harnesses. The zero value is ready to
// use.
type Memory struct {
	mu      sync.RWMutex
	recs    map[edenid.ID]Record
	intents map[edenid.ID]MoveIntent
	fail    error // when non-nil, every operation fails with this
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{recs: make(map[edenid.ID]Record)} }

// FailWith makes every subsequent operation fail with err (pass nil to
// heal the medium).
func (m *Memory) FailWith(err error) {
	m.mu.Lock()
	m.fail = err
	m.mu.Unlock()
}

// Put implements Store.
func (m *Memory) Put(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	if m.recs == nil {
		m.recs = make(map[edenid.ID]Record)
	}
	if prev, ok := m.recs[rec.Object]; ok && rec.Version <= prev.Version {
		return fmt.Errorf("%w: have v%d, got v%d", ErrStale, prev.Version, rec.Version)
	}
	rec.Rep = append([]byte(nil), rec.Rep...)
	m.recs[rec.Object] = rec
	return nil
}

// Get implements Store.
func (m *Memory) Get(id edenid.ID) (Record, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.fail != nil {
		return Record{}, m.fail
	}
	rec, ok := m.recs[id]
	if !ok {
		return Record{}, &notFound{id: id}
	}
	rec.Rep = append([]byte(nil), rec.Rep...)
	return rec, nil
}

// Stat implements Store. A failing medium has no records to report, as
// its Get has none to return.
func (m *Memory) Stat(id edenid.ID) (Meta, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec, ok := m.recs[id]
	if m.fail != nil || !ok {
		return Meta{}, false
	}
	return rec.Meta(), true
}

// Delete implements Store.
func (m *Memory) Delete(id edenid.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	delete(m.recs, id)
	return nil
}

// List implements Store.
func (m *Memory) List() ([]edenid.ID, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.fail != nil {
		return nil, m.fail
	}
	out := make([]edenid.ID, 0, len(m.recs))
	for id := range m.recs {
		out = append(out, id)
	}
	slices.SortFunc(out, edenid.Compare)
	return out, nil
}

// PutIntent implements Store.
func (m *Memory) PutIntent(it MoveIntent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	if m.intents == nil {
		m.intents = make(map[edenid.ID]MoveIntent)
	}
	m.intents[it.Object] = it
	return nil
}

// DeleteIntent implements Store.
func (m *Memory) DeleteIntent(id edenid.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	delete(m.intents, id)
	return nil
}

// ListIntents implements Store.
func (m *Memory) ListIntents() ([]MoveIntent, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.fail != nil {
		return nil, m.fail
	}
	out := make([]MoveIntent, 0, len(m.intents))
	for _, it := range m.intents {
		out = append(out, it)
	}
	slices.SortFunc(out, compareIntents)
	return out, nil
}

// compareIntents orders move intents by object, as ListIntents returns
// them.
func compareIntents(a, b MoveIntent) int { return edenid.Compare(a.Object, b.Object) }

// Len returns the number of checkpointed objects.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.recs)
}
