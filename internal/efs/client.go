package efs

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"eden/internal/capability"
	"eden/internal/kernel"
)

// CCMode selects the concurrency-control discipline — the choice §5
// encapsulates "to facilitate experimentation with alternate
// approaches".
type CCMode uint8

const (
	// Locking takes the file lock at write time (pessimistic 2PL):
	// conflicts surface early and the lock is held until commit.
	Locking CCMode = iota
	// Optimistic buffers writes without locks; commit validates that
	// the base version is still the latest. Conflicts surface at
	// commit.
	Optimistic
)

// String names the mode.
func (m CCMode) String() string {
	switch m {
	case Locking:
		return "locking"
	case Optimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("ccmode(%d)", uint8(m))
	}
}

// tidCounter mints process-unique transaction ids.
var tidCounter atomic.Uint64

// Client is one node's EFS access point.
type Client struct {
	k    *kernel.Kernel
	mode CCMode
	// opts carries the node's invocation budget on every EFS call, so
	// each has a visible, bounded timeout. Invoke copies it; it is
	// never mutated.
	opts *kernel.InvokeOptions
	tel  efsTel
}

// NewClient returns an EFS client bound to a kernel, using the given
// concurrency-control mode for its transactions.
func NewClient(k *kernel.Kernel, mode CCMode) *Client {
	return &Client{
		k:    k,
		mode: mode,
		opts: &kernel.InvokeOptions{Timeout: k.Config().DefaultTimeout},
		tel:  newEFSTel(k.Telemetry()),
	}
}

// Mode returns the client's concurrency-control mode.
func (c *Client) Mode() CCMode { return c.mode }

// CreateFile creates an empty EFS file on the client's node.
func (c *Client) CreateFile() (capability.Capability, error) {
	return c.k.Create(TypeName, nil)
}

// CreateReplicated creates a file whose committed versions are
// mirrored at the given nodes: the primary lives on the client's node,
// and one mirror file is created on (moved to) each listed node. The
// returned capabilities are the primary followed by the mirrors.
func (c *Client) CreateReplicated(nodes ...uint32) (primary capability.Capability, mirrors capability.List, err error) {
	primary, err = c.CreateFile()
	if err != nil {
		return capability.Capability{}, nil, err
	}
	for _, n := range nodes {
		m, err := c.CreateFile()
		if err != nil {
			return capability.Capability{}, nil, err
		}
		if n != c.k.Node() {
			obj, err := c.k.Object(m.ID())
			if err != nil {
				return capability.Capability{}, nil, err
			}
			if err := <-obj.Move(n); err != nil {
				return capability.Capability{}, nil, fmt.Errorf("efs: placing mirror on node %d: %w", n, err)
			}
		}
		if _, err := c.k.Invoke(primary, "add-mirror", nil, capability.List{m}, c.opts); err != nil {
			return capability.Capability{}, nil, err
		}
		mirrors = append(mirrors, m)
	}
	return primary, mirrors, nil
}

// Read returns the latest committed version of the file.
func (c *Client) Read(file capability.Capability) (data []byte, version uint64, err error) {
	return c.ReadVersion(file, 0)
}

// ReadVersion returns the given version (0 = latest). Versions are
// immutable, so any replica can serve any version it holds.
func (c *Client) ReadVersion(file capability.Capability, version uint64) ([]byte, uint64, error) {
	c.tel.reads.Inc()
	var req []byte // none asks for the latest
	if version != 0 {
		req = binary.BigEndian.AppendUint64(nil, version)
	}
	rep, err := c.k.Invoke(file, "read", req, nil, c.opts)
	if err != nil {
		return nil, 0, err
	}
	if len(rep.Data) < 8 {
		return nil, 0, fmt.Errorf("efs: malformed read reply")
	}
	return rep.Data[8:], binary.BigEndian.Uint64(rep.Data), nil
}

// ReadAny reads the latest version from the first file in candidates
// that answers — typically the primary plus its mirrors, ordered by
// preference. Immutability makes any answer correct (possibly
// slightly behind the primary).
func (c *Client) ReadAny(candidates ...capability.Capability) ([]byte, uint64, error) {
	var lastErr error
	for _, f := range candidates {
		data, ver, err := c.Read(f)
		if err == nil {
			return data, ver, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("efs: no candidates")
	}
	return nil, 0, lastErr
}

// History returns the latest version number and the count of retained
// versions.
func (c *Client) History(file capability.Capability) (latest, count uint64, err error) {
	rep, err := c.k.Invoke(file, "history", nil, nil, c.opts)
	if err != nil {
		return 0, 0, err
	}
	if len(rep.Data) != 16 {
		return 0, 0, fmt.Errorf("efs: malformed history reply")
	}
	return binary.BigEndian.Uint64(rep.Data), binary.BigEndian.Uint64(rep.Data[8:]), nil
}

// Tx is one transaction: a set of buffered writes that commits
// atomically across all touched files. A transaction that writes one
// file commits in one invocation; one that writes several runs
// two-phase commit.
type Tx struct {
	c *Client
	// tid is minted on first need — a Locking write, or a commit of
	// several files; an optimistic one-file transaction has none.
	tid []byte
	// first is the first file written and rest the others, so that a
	// one-file transaction grows no slice. (A slice over an array in the
	// Tx would point into the Tx and move it to the heap, an allocation
	// of its own: a Begin inlined into its caller stays on the stack.)
	first txWrite
	rest  []txWrite
	// held are the files sent a lock or a prepare under tid: each may
	// hold the lock or pending state, whether or not its reply came,
	// until an abort or a commit step reaches it.
	held []capability.Capability
	done bool
}

type txWrite struct {
	file capability.Capability
	base uint64
	// prop is the write as prepare and commit-one take it, tidLen(4) tid
	// | base(8) | content, laid out behind the tid the transaction had
	// when the write was buffered: the one copy of the content it makes.
	prop []byte
}

// Begin starts a transaction.
func (c *Client) Begin() *Tx {
	c.tel.begins.Inc()
	return &Tx{c: c}
}

// TID returns the transaction's identifier, minting it if the
// transaction has not needed one yet.
func (t *Tx) TID() string { return string(t.id()) }

func (t *Tx) id() []byte {
	if t.tid == nil {
		b := append(make([]byte, 0, 32), "tx-"...)
		b = strconv.AppendUint(b, uint64(t.c.k.Node()), 10)
		b = append(b, '-')
		t.tid = strconv.AppendUint(b, tidCounter.Add(1), 10)
	}
	return t.tid
}

// Read reads the latest version inside the transaction, recording the
// version so a later Write of the same file validates against it.
func (t *Tx) Read(file capability.Capability) ([]byte, uint64, error) {
	if t.done {
		return nil, 0, ErrBadTransaction
	}
	return t.c.Read(file)
}

// Write buffers new content for the file. In Locking mode the file's
// transaction lock is taken now; in Optimistic mode nothing happens
// until Commit. base is the version the write builds upon (from a
// transactional Read); writes that don't care pass the current version
// via WriteLatest. A failed Write leaves the transaction open: Abort
// releases whatever lock the attempt may have taken.
func (t *Tx) Write(file capability.Capability, base uint64, data []byte) error {
	if t.done {
		return ErrBadTransaction
	}
	if t.c.mode == Locking {
		t.hold(file)
		if _, err := t.c.k.Invoke(file, "lock", t.id(), nil, t.c.opts); err != nil {
			if isConflict(err) {
				t.c.tel.conflicts.Inc()
				return fmt.Errorf("%w: %v", ErrConflict, err)
			}
			return err
		}
	}
	t.c.tel.writes.Inc()
	// Replace an earlier buffered write of the same file.
	for i := range t.writes() {
		if w := t.write(i); w.file.ID() == file.ID() {
			w.prop = t.propose(w.base, data)
			return nil
		}
	}
	w := txWrite{file: file, base: base, prop: t.propose(base, data)}
	if t.first.prop == nil {
		t.first = w
	} else {
		t.rest = append(t.rest, w)
	}
	return nil
}

// writes is the number of files the transaction writes.
func (t *Tx) writes() int {
	if t.first.prop == nil {
		return 0
	}
	return 1 + len(t.rest)
}

// write returns the transaction's i'th write.
func (t *Tx) write(i int) *txWrite {
	if i == 0 {
		return &t.first
	}
	return &t.rest[i-1]
}

// WriteLatest buffers new content on top of whatever version is
// current at this moment (read-modify-write transactions should use
// Read + Write instead to get validation).
func (t *Tx) WriteLatest(file capability.Capability, data []byte) error {
	_, ver, err := t.Read(file)
	if err != nil {
		return err
	}
	return t.Write(file, ver, data)
}

// Commit commits the transaction's writes atomically. One written file
// commits in one step: a single invocation validates the lock and the
// base version, installs the version and checkpoints it. If that
// invocation times out the outcome is unknown — the version may or may
// not be installed — but no lock is held. Several files commit by
// two-phase commit; a file whose phase-two commit fails stays prepared
// and locked (the 2PC window, reported but not repaired). On a conflict
// every file the transaction reached is aborted and ErrConflict
// returned; the caller may retry the whole transaction.
func (t *Tx) Commit() error {
	if t.done {
		return ErrBadTransaction
	}
	t.done = true
	start := t.c.tel.commitLat.Start()
	var err error
	switch t.writes() {
	case 0:
	case 1:
		w := t.first
		if _, err = t.c.k.Invoke(w.file, "commit-one", t.proposal(w), nil, t.c.opts); err != nil {
			return t.refused("commit", err)
		}
		t.settle(w.file)
	default:
		if err = t.prepareAll(); err != nil {
			return t.refused("prepare", err)
		}
		err = t.commitAll()
	}
	t.release()
	if t.writes() > 0 {
		t.c.tel.commitLat.ObserveSince(start)
	}
	t.c.tel.commits.Inc()
	return err
}

// propose lays content out on base as prepare and commit-one take it,
// tidLen(4) tid | base(8) | content, behind the transaction's tid so far
// (none in an optimistic transaction until it commits several files).
func (t *Tx) propose(base uint64, content []byte) []byte {
	req := make([]byte, 0, 12+len(t.tid)+len(content))
	req = binary.BigEndian.AppendUint32(req, uint32(len(t.tid)))
	req = append(req, t.tid...)
	req = binary.BigEndian.AppendUint64(req, base)
	return append(req, content...)
}

// proposal returns w as prepare and commit-one take it: the layout made
// when it was buffered, or, when the tid was minted since, its content
// laid out anew behind the tid.
func (t *Tx) proposal(w txWrite) []byte {
	n := int(binary.BigEndian.Uint32(w.prop))
	if string(w.prop[4:4+n]) == string(t.tid) {
		return w.prop
	}
	return t.propose(w.base, w.prop[4+n+8:])
}

// prepareAll is phase one: every file votes, and each may hold the
// transaction's lock from the moment its prepare is sent.
func (t *Tx) prepareAll() error {
	t.id()
	for i := range t.writes() {
		w := t.write(i)
		t.hold(w.file)
		if _, err := t.c.k.Invoke(w.file, "prepare", t.proposal(*w), nil, t.c.opts); err != nil {
			return err
		}
	}
	return nil
}

// commitAll is phase two. Prepared files hold the transaction's lock,
// so commit cannot conflict; a failure here is an availability problem.
// No file is aborted after its commit was sent: that could undo half of
// a transaction the other files committed.
func (t *Tx) commitAll() error {
	var firstErr error
	for i := range t.writes() {
		w := t.write(i)
		t.settle(w.file)
		if _, err := t.c.k.Invoke(w.file, "commit", t.tid, nil, t.c.opts); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("efs: commit phase two: %w", err)
		}
	}
	return firstErr
}

// refused ends a transaction whose commit was voted down or failed
// before any file committed: it aborts every file reached and wraps
// err.
func (t *Tx) refused(step string, err error) error {
	t.release()
	t.c.tel.aborts.Inc()
	if isConflict(err) {
		t.c.tel.conflicts.Inc()
		return fmt.Errorf("%w: %v", ErrConflict, err)
	}
	return fmt.Errorf("efs: %s: %w", step, err)
}

// Abort abandons the transaction, releasing locks and pending state.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.c.tel.aborts.Inc()
	t.release()
}

// hold records that file is about to be sent a lock or prepare.
func (t *Tx) hold(file capability.Capability) {
	if !slices.ContainsFunc(t.held, file.Same) {
		t.held = append(t.held, file)
	}
}

// settle drops file from the held set once a commit step is sent to it:
// from there the file's own commit releases the lock.
func (t *Tx) settle(file capability.Capability) {
	t.held = slices.DeleteFunc(t.held, file.Same)
}

// release sends abort to every file still held. Abort is tid-guarded
// and idempotent, so a file whose lock or prepare never ran, or was
// refused, ignores it.
func (t *Tx) release() {
	for _, f := range t.held {
		_, _ = t.c.k.Invoke(f, "abort", t.tid, nil, t.c.opts)
	}
	t.held = nil
}
