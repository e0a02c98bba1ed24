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
// store (with injectable media failure, for the experiment suite) and a
// file-backed store that survives process restarts via
// write-temp-then-rename.
package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
// and the failure-injection experiments. The zero value is ready to
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
//
//edenvet:ignore capleak implements Store, which is below the capability layer
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
//
//edenvet:ignore capleak implements Store, which is below the capability layer
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
//
//edenvet:ignore capleak implements Store, which is below the capability layer
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
//
//edenvet:ignore capleak implements Store, which is below the capability layer
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
	sort.Slice(out, func(i, j int) bool { return edenid.Compare(out[i], out[j]) < 0 })
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
//
//edenvet:ignore capleak implements Store, which is below the capability layer
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
	sort.Slice(out, func(i, j int) bool { return edenid.Compare(out[i].Object, out[j].Object) < 0 })
	return out, nil
}

// Len returns the number of checkpointed objects.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.recs)
}

// File is a Store keeping one file per object under a directory,
// written atomically (temp file + rename) so a crash mid-checkpoint
// leaves the previous checkpoint intact. One process owns the directory
// at a time: the store answers "is it here" from memory.
type File struct {
	prefix string // the directory, with its trailing separator

	// mu serializes the store's file operations. Put holds it across its
	// fsync.
	mu sync.Mutex

	// recs is the store directory: the metadata and file length of every
	// record Get would find. It equals the durable state — built from the
	// front of each record file when the store is opened, changed only
	// after the Rename or Remove that changes the disk, under mu — and
	// has its own lock so that Stat never waits behind a Put's fsync.
	dirMu sync.Mutex
	recs  map[edenid.ID]dirEntry
}

// dirEntry is what the directory knows about one record file.
type dirEntry struct {
	meta Meta
	size int // the file's length, so that Get reads it in one go
}

var _ Store = (*File)(nil)

// fileMagic heads every checkpoint file. CKP3 added the residency
// epoch; CKP2 added the flags byte's backup bit and the home field.
// Files with an older magic fail decode rather than misparse.
const fileMagic = "EDENCKP3"

// intentMagic heads every move-intent file (stored beside checkpoints
// with the .mvi extension).
const intentMagic = "EDENMVI1"

const (
	recExt    = ".ckp"
	intentExt = ".mvi"
	// The CreateTemp patterns of Put and PutIntent. A record or intent
	// file is named by 32 hex digits, so neither prefix can name one.
	recTmp    = "ckp-"
	intentTmp = "mvi-"
)

// headerLen is the fixed part of a record that precedes the type name:
// magic | id | version(8) | epoch(8) | flags(1) | home(4).
const headerLen = len(fileMagic) + edenid.Size + 8 + 8 + 1 + 4

// frontLen is how much of a record file the open pass reads: the header
// and both lengths, for a type name of up to 64 bytes.
const frontLen = headerLen + 4 + 64 + 4

// NewFile opens (creating if needed) a file-backed store rooted at dir.
// It reads the front of every record there — the header, the type name
// and the representation's length, never the representation — to build
// the store directory, and removes the temp files a crash between
// CreateTemp and Rename left behind.
func NewFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	prefix := filepath.Clean(dir)
	if !os.IsPathSeparator(prefix[len(prefix)-1]) { // all but the root
		prefix += string(filepath.Separator)
	}
	f := &File{prefix: prefix, recs: make(map[edenid.ID]dirEntry)}
	d, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var front [frontLen]byte
	for _, name := range names {
		if strings.HasPrefix(name, recTmp) || strings.HasPrefix(name, intentTmp) {
			os.Remove(f.prefix + name) // best effort: a survivor costs the next open a directory entry, nothing else
			continue
		}
		id, ok := recordName(name)
		if !ok {
			continue
		}
		// A file whose header does not parse, or names another object,
		// is not a record Get would return.
		if e, ok := readFront(f.prefix+name, front[:], id); ok {
			f.recs[id] = e
		}
	}
	return f, nil
}

// recordName parses a checkpoint file's name back into the object it
// holds.
func recordName(name string) (edenid.ID, bool) {
	var id edenid.ID
	if len(name) != 2*edenid.Size+len(recExt) || !strings.HasSuffix(name, recExt) {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(name[:2*edenid.Size])); err != nil {
		return id, false
	}
	return id, id.Valid()
}

// readFront reads the front of the record file at path into buf and
// returns its directory entry if it is a record of id. The length it
// records is the one the file's own lengths add up to.
func readFront(path string, buf []byte, id edenid.ID) (dirEntry, bool) {
	fh, err := os.Open(path)
	if err != nil {
		return dirEntry{}, false
	}
	defer fh.Close()
	n, err := io.ReadFull(fh, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return dirEntry{}, false
	}
	rec, b, err := decodeHeader(buf[:n])
	if err != nil || rec.Object != id || len(b) < 4 {
		return dirEntry{}, false
	}
	tl := int64(binary.BigEndian.Uint32(b))
	var rl [4]byte
	if int64(len(b)) >= 4+tl+4 {
		copy(rl[:], b[4+tl:])
	} else if _, err := fh.ReadAt(rl[:], int64(headerLen)+4+tl); err != nil {
		return dirEntry{}, false
	}
	size := int64(headerLen) + 4 + tl + 4 + int64(binary.BigEndian.Uint32(rl[:]))
	if size != int64(int(size)) {
		return dirEntry{}, false
	}
	return dirEntry{meta: rec.Meta(), size: int(size)}, true
}

// path names the file holding id's record (ext recExt) or move intent
// (intentExt), with one allocation.
func (f *File) path(id edenid.ID, ext string) string {
	var a [128]byte // a longer directory spills to the heap
	buf := append(a[:0], f.prefix...)
	buf = hex.AppendEncode(buf, id[:])
	return string(append(buf, ext...))
}

// encodeRecord lays a record out as:
// magic | id | version(8) | epoch(8) | flags(1) | home(4) | typeLen(4) type | repLen(4) rep
// where flags bit 0 is Frozen and bit 1 is Backup.
func encodeRecord(rec Record) []byte {
	buf := make([]byte, 0, headerLen+4+len(rec.TypeName)+4+len(rec.Rep))
	buf = append(buf, fileMagic...)
	buf = rec.Object.Encode(buf)
	buf = append(buf,
		byte(rec.Version>>56), byte(rec.Version>>48), byte(rec.Version>>40), byte(rec.Version>>32),
		byte(rec.Version>>24), byte(rec.Version>>16), byte(rec.Version>>8), byte(rec.Version))
	buf = append(buf,
		byte(rec.Epoch>>56), byte(rec.Epoch>>48), byte(rec.Epoch>>40), byte(rec.Epoch>>32),
		byte(rec.Epoch>>24), byte(rec.Epoch>>16), byte(rec.Epoch>>8), byte(rec.Epoch))
	var flags byte
	if rec.Frozen {
		flags |= 1
	}
	if rec.Backup {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = append(buf, byte(rec.Home>>24), byte(rec.Home>>16), byte(rec.Home>>8), byte(rec.Home))
	buf = append(buf, byte(len(rec.TypeName)>>24), byte(len(rec.TypeName)>>16), byte(len(rec.TypeName)>>8), byte(len(rec.TypeName)))
	buf = append(buf, rec.TypeName...)
	buf = append(buf, byte(len(rec.Rep)>>24), byte(len(rec.Rep)>>16), byte(len(rec.Rep)>>8), byte(len(rec.Rep)))
	return append(buf, rec.Rep...)
}

// decodeHeader parses the fixed header at the front of b into a record
// without type name or representation, returning what follows it.
func decodeHeader(b []byte) (Record, []byte, error) {
	var rec Record
	if len(b) < len(fileMagic) || string(b[:len(fileMagic)]) != fileMagic {
		return rec, nil, fmt.Errorf("%w: bad magic", ErrFailed)
	}
	id, b, err := edenid.Decode(b[len(fileMagic):])
	if err != nil {
		return rec, nil, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	rec.Object = id
	if len(b) < 21 {
		return rec, nil, fmt.Errorf("%w: truncated header", ErrFailed)
	}
	for i := 0; i < 8; i++ {
		rec.Version = rec.Version<<8 | uint64(b[i])
		rec.Epoch = rec.Epoch<<8 | uint64(b[8+i])
	}
	rec.Frozen = b[16]&1 != 0
	rec.Backup = b[16]&2 != 0
	rec.Home = uint32(b[17])<<24 | uint32(b[18])<<16 | uint32(b[19])<<8 | uint32(b[20])
	return rec, b[21:], nil
}

// decodeRecord parses one record. The result's Rep aliases b.
func decodeRecord(b []byte) (Record, error) {
	rec, b, err := decodeHeader(b)
	if err != nil {
		return rec, err
	}
	if len(b) < 4 {
		return rec, fmt.Errorf("%w: truncated header", ErrFailed)
	}
	tl := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	b = b[4:]
	if tl < 0 || len(b) < tl+4 {
		return rec, fmt.Errorf("%w: truncated type name", ErrFailed)
	}
	rec.TypeName = string(b[:tl])
	b = b[tl:]
	rl := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	b = b[4:]
	if rl < 0 || len(b) != rl {
		return rec, fmt.Errorf("%w: representation length mismatch", ErrFailed)
	}
	rec.Rep = b
	return rec, nil
}

// writeAtomic makes data the contents of the file at path, durably and
// atomically: a crash leaves the previous contents or the new, never a
// mixture. Caller holds f.mu.
func (f *File) writeAtomic(path, tmpPattern string, data []byte) error {
	tmp, err := os.CreateTemp(f.prefix, tmpPattern+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Put implements Store with an atomic temp-file-and-rename write. The
// directory learns of the record only once the rename has made it
// durable.
func (f *File) Put(rec Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.Stat(rec.Object); ok && rec.Version <= prev.Version {
		return fmt.Errorf("%w: have v%d, got v%d", ErrStale, prev.Version, rec.Version)
	}
	b := encodeRecord(rec)
	if err := f.writeAtomic(f.path(rec.Object, recExt), recTmp, b); err != nil {
		return err
	}
	f.dirMu.Lock()
	f.recs[rec.Object] = dirEntry{meta: rec.Meta(), size: len(b)}
	f.dirMu.Unlock()
	return nil
}

// Stat implements Store from the directory: no file is touched.
//
//edenvet:ignore capleak implements Store, which is below the capability layer
func (f *File) Stat(id edenid.ID) (Meta, bool) {
	e, ok := f.entry(id)
	return e.meta, ok
}

// entry looks id up in the directory.
func (f *File) entry(id edenid.ID) (dirEntry, bool) {
	f.dirMu.Lock()
	defer f.dirMu.Unlock()
	e, ok := f.recs[id]
	return e, ok
}

// Get implements Store. A record the directory does not list is a miss
// without a file operation; one it lists is read in one read into one
// buffer of the length the directory records. The buffer has a byte to
// spare, so a file longer than that fills it, and one shorter ends the
// read early: either is not the record the directory describes.
//
//edenvet:ignore capleak implements Store, which is below the capability layer
func (f *File) Get(id edenid.ID) (Record, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entry(id)
	if !ok {
		return Record{}, &notFound{id: id}
	}
	fh, err := os.Open(f.path(id, recExt))
	if err != nil {
		return Record{}, fmt.Errorf("store: %w", err)
	}
	b := make([]byte, e.size+1)
	n, err := io.ReadAtLeast(fh, b, e.size)
	fh.Close()
	switch {
	case err == nil && n == e.size:
	case err == nil, err == io.EOF, err == io.ErrUnexpectedEOF:
		return Record{}, fmt.Errorf("%w: record file of %v is not %d bytes long", ErrFailed, id, e.size)
	default:
		return Record{}, fmt.Errorf("store: %w", err)
	}
	rec, err := decodeRecord(b[:n:n])
	if err != nil {
		return Record{}, err
	}
	if rec.Object != id {
		return Record{}, fmt.Errorf("%w: checkpoint file names %v", ErrFailed, rec.Object)
	}
	return rec, nil
}

// Delete implements Store.
//
//edenvet:ignore capleak implements Store, which is below the capability layer
func (f *File) Delete(id edenid.ID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := os.Remove(f.path(id, recExt)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	f.dirMu.Lock()
	delete(f.recs, id)
	f.dirMu.Unlock()
	return nil
}

// List implements Store from the directory.
//
//edenvet:ignore capleak implements Store, which is below the capability layer
func (f *File) List() ([]edenid.ID, error) {
	f.dirMu.Lock()
	out := make([]edenid.ID, 0, len(f.recs))
	for id := range f.recs {
		out = append(out, id)
	}
	f.dirMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return edenid.Compare(out[i], out[j]) < 0 })
	return out, nil
}

// encodeIntent lays an intent out as:
// magic | id | dest(4) | epoch(8)
func encodeIntent(it MoveIntent) []byte {
	buf := make([]byte, 0, len(intentMagic)+edenid.Size+4+8)
	buf = append(buf, intentMagic...)
	buf = it.Object.Encode(buf)
	buf = append(buf, byte(it.Dest>>24), byte(it.Dest>>16), byte(it.Dest>>8), byte(it.Dest))
	return append(buf,
		byte(it.Epoch>>56), byte(it.Epoch>>48), byte(it.Epoch>>40), byte(it.Epoch>>32),
		byte(it.Epoch>>24), byte(it.Epoch>>16), byte(it.Epoch>>8), byte(it.Epoch))
}

func decodeIntent(b []byte) (MoveIntent, error) {
	var it MoveIntent
	if len(b) < len(intentMagic) || string(b[:len(intentMagic)]) != intentMagic {
		return it, fmt.Errorf("%w: bad intent magic", ErrFailed)
	}
	b = b[len(intentMagic):]
	id, b, err := edenid.Decode(b)
	if err != nil {
		return it, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	it.Object = id
	if len(b) != 12 {
		return it, fmt.Errorf("%w: truncated intent", ErrFailed)
	}
	it.Dest = uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	for i := 4; i < 12; i++ {
		it.Epoch = it.Epoch<<8 | uint64(b[i])
	}
	return it, nil
}

// PutIntent implements Store with the same atomic temp-file-and-rename
// write as Put: a crash leaves either no intent or a complete one,
// never a torn record — the recovery decision table depends on that.
func (f *File) PutIntent(it MoveIntent) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeAtomic(f.path(it.Object, intentExt), intentTmp, encodeIntent(it))
}

// DeleteIntent implements Store. Removing an absent intent is not an
// error: recovery may race a concurrent resolution to the same verdict.
//
//edenvet:ignore capleak implements Store, which is below the capability layer
func (f *File) DeleteIntent(id edenid.ID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := os.Remove(f.path(id, intentExt)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ListIntents implements Store. Unreadable or corrupt intent files fail
// the whole scan: boot-time recovery must not silently drop an in-doubt
// move.
func (f *File) ListIntents() ([]MoveIntent, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	entries, err := os.ReadDir(f.prefix)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []MoveIntent
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != intentExt {
			continue
		}
		b, err := os.ReadFile(f.prefix + name)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		it, err := decodeIntent(b)
		if err != nil {
			return nil, err
		}
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return edenid.Compare(out[i].Object, out[j].Object) < 0 })
	return out, nil
}
