// Package efs implements the Eden File System described in §5 of the
// paper: a user-level, "transaction-based" storage system "storing
// immutable versions that may be replicated at multiple sites for
// reliability or performance enhancement", in which "concurrency
// control [is] encapsulated to facilitate experimentation with
// alternate approaches".
//
// An EFS file is an ordinary Eden object holding an append-only chain
// of immutable versions. Writers never mutate a version; a committed
// transaction installs a new one. A transaction that writes one file
// commits in one step: one invocation validates, installs and
// checkpoints under the file's own exclusion. A transaction spanning
// several files commits by two-phase commit (prepare / commit / abort
// operations on each file). Two concurrency-control disciplines are
// provided behind one client API — pessimistic locking (locks taken at
// write time) and optimistic validation (base versions checked at
// commit time) — exactly the experimentation §5 promises.
//
// Replication: a file may have mirror files at other sites; committed
// versions are pushed to mirrors, and reads may be served by any
// mirror (versions are immutable, so a mirror is never wrong, at worst
// behind).
package efs

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/segment"
)

// TypeName is the EFS file type's registered name.
const TypeName = "efs.file"

// WriteRight is the type-defined right required to mutate a file
// (lock, prepare, commit, commit-one, abort, add-mirror).
var WriteRight = rights.Type(1)

// Errors reported by EFS.
var (
	// ErrConflict reports a transaction aborted by concurrency
	// control: a lock held by another transaction, or a stale base
	// version at validation.
	ErrConflict = errors.New("efs: transaction conflict")
	// ErrNoVersion reports a read of a version that does not exist.
	ErrNoVersion = errors.New("efs: no such version")
	// ErrBadTransaction reports commit/abort of an unknown or already
	// finished transaction.
	ErrBadTransaction = errors.New("efs: unknown transaction")
)

// Representation layout of an efs.file:
//
//	data "meta"       latest(8) | lockTidLen(4) lockTid
//	data "v:<n>"      content of version n, n in 16 hex digits (immutable once written)
//	data "pend:<tid>" base(8) | proposed content
//	caps "mirrors"    capabilities of mirror files at other sites
const (
	segMeta    = "meta"
	segMirrors = "mirrors"
	verPrefix  = "v:"
	pendPrefix = "pend:"
)

func u64b(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func verSeg(n uint64) string {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], n)
	var b [len(verPrefix) + 16]byte
	copy(b[:], verPrefix)
	hex.Encode(b[len(verPrefix):], v[:])
	return string(b[:])
}

// sharedVersions bounds the version names every file shares: a version
// at or past it is named by a string of its own.
const sharedVersions = 4096

// versionBlock is how many shared names are made at once.
const versionBlock = 64

// versionNames holds the shared names, made a block at a time on first
// use and never changed, so a lookup takes no lock. Every file at
// version n names it alike, and its segment keeps the name, so a commit
// installing a version below sharedVersions allocates no name.
var versionNames [sharedVersions / versionBlock]atomic.Pointer[[versionBlock]string]

// newVerSeg is verSeg(n) for the segment of a version being installed,
// which keeps it: the shared name, or for n past the table its own.
func newVerSeg(n uint64) string {
	if n >= sharedVersions {
		return verSeg(n)
	}
	slot := &versionNames[n/versionBlock]
	block := slot.Load()
	if block == nil {
		block = new([versionBlock]string)
		for i := range block {
			block[i] = verSeg(n - n%versionBlock + uint64(i))
		}
		if !slot.CompareAndSwap(nil, block) {
			block = slot.Load() // another commit made it first: share its names
		}
	}
	return block[n%versionBlock]
}

type meta struct {
	latest  uint64
	lockTid string
}

// metaBuf holds the meta segment of any tid this package mints, so
// reading meta copies it into the stack, not the heap.
const metaBuf = 64

func readMeta(r *segment.Representation) meta {
	var buf [metaBuf]byte
	b := buf[:]
	n, err := r.CopyData(b, segMeta)
	if err != nil || n < 12 {
		return meta{}
	}
	if n > len(b) {
		b = make([]byte, n)
		_, _ = r.CopyData(b, segMeta)
	}
	b = b[:n]
	m := meta{latest: binary.BigEndian.Uint64(b)}
	if t := int(binary.BigEndian.Uint32(b[8:12])); t > 0 && n >= 12+t {
		m.lockTid = string(b[12 : 12+t])
	}
	return m
}

func writeMeta(r *segment.Representation, m meta) {
	var buf [metaBuf]byte
	b := binary.BigEndian.AppendUint64(buf[:0], m.latest)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.lockTid)))
	r.SetData(segMeta, append(b, m.lockTid...))
}

// vote is the validation both commit paths run under the file's
// exclusion: the file is unlocked or locked by tid, and base still names
// the latest version.
func (m meta) vote(tid string, base uint64) error {
	if m.lockTid != "" && m.lockTid != tid {
		return fmt.Errorf("%w: locked by other transaction", ErrConflict)
	}
	if base != m.latest {
		return fmt.Errorf("%w: base version %d, latest %d", ErrConflict, base, m.latest)
	}
	return nil
}

// install appends content as the next immutable version and releases
// tid's lock, returning the new version.
func install(r *segment.Representation, m meta, tid string, content []byte) uint64 {
	m.latest++
	r.SetData(newVerSeg(m.latest), content)
	if m.lockTid == tid {
		m.lockTid = ""
	}
	writeMeta(r, m)
	return m.latest
}

// RegisterType installs the EFS file type manager. All mutating
// operations share one invocation class with limit 1, so commit steps
// on a single file are serialized — the fine-grained atomicity the
// protocol requires.
func RegisterType(reg *kernel.Registry) error {
	tm := kernel.NewType(TypeName)
	tm.Limit("mutate", 1)
	tm.Init = func(o *kernel.Object) error {
		return o.Update(func(r *segment.Representation) error {
			writeMeta(r, meta{})
			r.SetCaps(segMirrors, nil)
			return nil
		})
	}

	tm.Op(kernel.Operation{
		Name:    "read",
		Class:   "read",
		Access:  kernel.AccessRead,
		Handler: opRead,
	})
	tm.Op(kernel.Operation{
		Name:    "history",
		Class:   "read",
		Access:  kernel.AccessRead,
		Handler: opHistory,
	})
	tm.Op(kernel.Operation{Name: "lock", Class: "mutate", Rights: WriteRight, Handler: opLock})
	tm.Op(kernel.Operation{Name: "prepare", Class: "mutate", Rights: WriteRight, Handler: opPrepare})
	tm.Op(kernel.Operation{Name: "commit", Class: "mutate", Rights: WriteRight, Handler: opCommit})
	tm.Op(kernel.Operation{Name: "commit-one", Class: "mutate", Rights: WriteRight, Handler: opCommitOne})
	tm.Op(kernel.Operation{Name: "abort", Class: "mutate", Rights: WriteRight, Handler: opAbort})
	tm.Op(kernel.Operation{Name: "add-mirror", Class: "mutate", Rights: WriteRight, Handler: opAddMirror})
	tm.Op(kernel.Operation{Name: "mirror-put", Class: "mutate", Rights: WriteRight, Handler: opMirrorPut})
	return reg.Register(tm)
}

// opRead returns version(8) | content. Request data: version(8),
// where absent or 0 means latest. Reading version 0 of an empty file
// returns version 0 with empty content. The reply is copied out of the
// version once, into the buffer ReturnBuffer lends: for a read from
// another node, the frame the reply is sent in.
func opRead(c *kernel.Call) {
	var want uint64
	if len(c.Data) == 8 {
		want = binary.BigEndian.Uint64(c.Data)
	}
	var fail error
	c.Self().View(func(r *segment.Representation) {
		v := want
		if v == 0 {
			v = readMeta(r).latest
		}
		if v == 0 {
			c.ReturnBuffer(8) // version 0, no content
			return
		}
		name := verSeg(v)
		n, err := r.CopyData(nil, name)
		if err != nil {
			fail = fmt.Errorf("%w: %d", ErrNoVersion, v)
			return
		}
		out := c.ReturnBuffer(8 + n)
		binary.BigEndian.PutUint64(out, v)
		_, _ = r.CopyData(out[8:], name)
	})
	if fail != nil {
		c.Fail("%v", fail)
	}
}

// opHistory returns latest(8) | count(8): versions are 1..latest,
// all retained (immutability makes history cheap to expose).
func opHistory(c *kernel.Call) {
	c.Self().View(func(r *segment.Representation) {
		m := readMeta(r)
		var count uint64
		for v := uint64(1); v <= m.latest; v++ {
			if r.Has(verSeg(v)) {
				count++
			}
		}
		c.Return(append(u64b(m.latest), u64b(count)...))
	})
}

// opLock acquires the file's transaction lock for the tid in Data.
// Re-locking by the same tid succeeds (idempotent).
func opLock(c *kernel.Call) {
	tid := string(c.Data)
	if tid == "" {
		c.Fail("lock: empty transaction id")
		return
	}
	err := c.Self().Update(func(r *segment.Representation) error {
		m := readMeta(r)
		if m.lockTid != "" && m.lockTid != tid {
			return fmt.Errorf("%w: locked by %s", ErrConflict, m.lockTid)
		}
		m.lockTid = tid
		writeMeta(r, m)
		return nil
	})
	if err != nil {
		c.Fail("%v", err)
	}
}

// proposal decodes the request prepare and commit-one share:
// tidLen(4) tid | base(8) | content. The tid is empty in an optimistic
// one-file commit, which holds no lock.
func proposal(data []byte) (tid string, base uint64, content []byte, ok bool) {
	if len(data) < 12 {
		return "", 0, nil, false
	}
	n := int(binary.BigEndian.Uint32(data))
	if len(data) < 4+n+8 {
		return "", 0, nil, false
	}
	return string(data[4 : 4+n]), binary.BigEndian.Uint64(data[4+n:]), data[4+n+8:], true
}

// opPrepare is 2PC phase one; Data is a proposal with a tid. The file
// votes yes by storing the pending version and taking the lock for the
// 2PC window; it votes no (fails) on a lock conflict or — the
// optimistic validation — when base no longer names the latest version.
func opPrepare(c *kernel.Call) {
	tid, base, content, ok := proposal(c.Data)
	if !ok || tid == "" {
		c.Fail("prepare: malformed request")
		return
	}
	err := c.Self().Update(func(r *segment.Representation) error {
		m := readMeta(r)
		if err := m.vote(tid, base); err != nil {
			return err
		}
		r.SetData(pendPrefix+tid, append(u64b(base), content...))
		m.lockTid = tid
		writeMeta(r, m)
		return nil
	})
	if err != nil {
		c.Fail("%v", err)
	}
}

// opCommit is 2PC phase two: promote the tid's pending content to a
// new immutable version, release the lock, checkpoint, and push the new
// version to mirrors.
func opCommit(c *kernel.Call) {
	tid := string(c.Data)
	var ver uint64
	var content []byte
	err := c.Self().Update(func(r *segment.Representation) error {
		pend, err := r.Data(pendPrefix + tid)
		if err != nil {
			return fmt.Errorf("%w: %s", ErrBadTransaction, tid)
		}
		content = pend[8:]
		ver = install(r, readMeta(r), tid, content)
		r.Delete(pendPrefix + tid)
		return nil
	})
	if err != nil {
		c.Fail("%v", err)
		return
	}
	finishCommit(c, ver, content)
}

// opCommitOne commits a transaction whose write set is this file alone,
// in one step; Data is a proposal. It votes as prepare does and, on
// yes, installs at once — no pending state, and tid's lock (a Locking
// transaction's, taken at write time) released — then finishes as
// phase two does.
func opCommitOne(c *kernel.Call) {
	tid, base, content, ok := proposal(c.Data)
	if !ok {
		c.Fail("commit-one: malformed request")
		return
	}
	var ver uint64
	err := c.Self().Update(func(r *segment.Representation) error {
		m := readMeta(r)
		if err := m.vote(tid, base); err != nil {
			return err
		}
		ver = install(r, m, tid, content)
		return nil
	})
	if err != nil {
		c.Fail("%v", err)
		return
	}
	finishCommit(c, ver, content)
}

// finishCommit makes an installed version durable — it survives a node
// failure — pushes it to mirrors and replies with its number.
func finishCommit(c *kernel.Call, ver uint64, content []byte) {
	if err := c.Self().Checkpoint(); err != nil {
		c.Fail("efs: commit checkpoint: %v", err)
		return
	}
	pushToMirrors(c, ver, content)
	c.Return(u64b(ver))
}

// pushToMirrors propagates a committed version to each mirror,
// best-effort: a down mirror is simply behind, and versions being
// immutable it can never serve wrong data.
func pushToMirrors(c *kernel.Call, ver uint64, content []byte) {
	var mirrors capability.List
	c.Self().View(func(r *segment.Representation) {
		if l, err := r.Caps(segMirrors); err == nil {
			mirrors = l
		}
	})
	if len(mirrors) == 0 {
		return
	}
	payload := append(u64b(ver), content...)
	opts := &kernel.InvokeOptions{Timeout: c.Kernel().Config().DefaultTimeout}
	for _, m := range mirrors {
		_, _ = c.Kernel().Invoke(m, "mirror-put", payload, nil, opts)
	}
}

// opAbort discards the tid's pending state and releases its lock. It
// is tid-guarded and idempotent, so a client sends it to every file it
// sent a lock or prepare to, answered or not.
func opAbort(c *kernel.Call) {
	tid := string(c.Data)
	_ = c.Self().Update(func(r *segment.Representation) error {
		r.Delete(pendPrefix + tid)
		m := readMeta(r)
		if m.lockTid == tid {
			m.lockTid = ""
			writeMeta(r, m)
		}
		return nil
	})
}

// opAddMirror registers a mirror file (a capability parameter).
func opAddMirror(c *kernel.Call) {
	if len(c.Caps) != 1 || c.Caps[0].IsNull() {
		c.Fail("add-mirror: exactly one capability parameter required")
		return
	}
	_ = c.Self().Update(func(r *segment.Representation) error {
		l, _ := r.Caps(segMirrors)
		r.SetCaps(segMirrors, append(l, c.Caps[0]))
		return nil
	})
}

// opMirrorPut installs a version pushed by the primary. Data:
// version(8) | content. Versions arrive in order from the primary's
// serialized commits; anything not newer than our latest is a
// duplicate and ignored, and costs no checkpoint.
func opMirrorPut(c *kernel.Call) {
	if len(c.Data) < 8 {
		c.Fail("mirror-put: short request")
		return
	}
	ver := binary.BigEndian.Uint64(c.Data)
	content := c.Data[8:]
	installed := false
	err := c.Self().Update(func(r *segment.Representation) error {
		m := readMeta(r)
		if ver <= m.latest {
			return nil
		}
		r.SetData(newVerSeg(ver), content)
		m.latest = ver
		writeMeta(r, m)
		installed = true
		return nil
	})
	if err != nil {
		c.Fail("mirror-put: %v", err)
		return
	}
	if installed {
		_ = c.Self().Checkpoint()
	}
}

// isConflict reports whether an invocation error carries an EFS
// conflict.
func isConflict(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrConflict.Error())
}
