package efs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/msg"
	"eden/internal/segment"
	"eden/internal/transport"
)

// fileState reads a file resident on k: its meta, and whether any
// transaction's pending version is left in it.
func fileState(t *testing.T, k *kernel.Kernel, f capability.Capability) (m meta, pending bool) {
	t.Helper()
	obj, err := k.Object(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	obj.View(func(r *segment.Representation) {
		m = readMeta(r)
		for _, name := range r.Names() {
			pending = pending || strings.HasPrefix(name, pendPrefix)
		}
	})
	return m, pending
}

// servedBy counts the invocations node k serves while fn runs.
func servedBy(k *kernel.Kernel, fn func()) int64 {
	before := k.Stats().ServedInvokes
	fn()
	return k.Stats().ServedInvokes - before
}

// TestOneFileCommitIsOneInvocation: a transaction writing one file
// costs its home one invocation (commit-one); writing two costs the
// four of two-phase commit (two prepares, two commits).
func TestOneFileCommitIsOneInvocation(t *testing.T) {
	ks := testSys(t, 1, 2)
	c := NewClient(ks[1], Optimistic)
	home := NewClient(ks[2], Optimistic)
	a, _ := home.CreateFile()
	b, _ := home.CreateFile()
	for _, f := range []capability.Capability{a, b} {
		if _, _, err := c.Read(f); err != nil { // node 1 learns where the files live
			t.Fatal(err)
		}
	}
	type write struct {
		file capability.Capability
		base uint64
		data []byte
	}
	commit := func(writes ...write) {
		tx := c.Begin()
		for _, w := range writes {
			if err := tx.Write(w.file, w.base, w.data); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := servedBy(ks[2], func() { commit(write{a, 0, []byte("one")}) }); n != 1 {
		t.Errorf("one-file commit: %d invocations served, want 1", n)
	}
	if n := servedBy(ks[2], func() { commit(write{a, 1, []byte("two")}, write{b, 0, []byte("two")}) }); n != 4 {
		t.Errorf("two-file commit: %d invocations served, want 4", n)
	}
	for _, f := range []capability.Capability{a, b} {
		if m, pending := fileState(t, ks[2], f); m.lockTid != "" || pending {
			t.Errorf("after commit: lock %q, pending %v", m.lockTid, pending)
		}
	}
}

// TestLockingOneFileCommitReleasesLock: the lock a Locking write takes
// is released by the one commit step itself — lock and commit-one are
// all the file serves — and the next transaction takes it again.
func TestLockingOneFileCommitReleasesLock(t *testing.T) {
	ks := testSys(t, 1, 2)
	c := NewClient(ks[1], Locking)
	f, _ := NewClient(ks[2], Locking).CreateFile()
	if _, _, err := c.Read(f); err != nil {
		t.Fatal(err)
	}
	n := servedBy(ks[2], func() {
		tx := c.Begin()
		if err := tx.Write(f, 0, []byte("locked")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if n != 2 {
		t.Errorf("locking one-file transaction: %d invocations served, want 2 (lock, commit-one)", n)
	}
	if m, _ := fileState(t, ks[2], f); m.lockTid != "" || m.latest != 1 {
		t.Errorf("after commit: latest %d, lock %q; want 1, unlocked", m.latest, m.lockTid)
	}
	tx := c.Begin()
	if err := tx.Write(f, 1, []byte("again")); err != nil {
		t.Fatalf("lock not released by commit: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoFileConflictLeavesBothUnlocked: a two-file optimistic
// transaction refused on its second file aborts the first, which keeps
// its version and holds neither lock nor pending state.
func TestTwoFileConflictLeavesBothUnlocked(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	a, _ := c.CreateFile()
	b, _ := c.CreateFile()
	bump := c.Begin()
	_ = bump.Write(b, 0, []byte("sneak"))
	if err := bump.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	_ = tx.Write(a, 0, []byte("half"))
	_ = tx.Write(b, 0, []byte("stale"))
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit: %v, want ErrConflict", err)
	}
	for i, want := range []uint64{0, 1} {
		f := []capability.Capability{a, b}[i]
		if m, pending := fileState(t, ks[1], f); m.latest != want || m.lockTid != "" || pending {
			t.Errorf("file %d: latest %d, lock %q, pending %v; want %d, unlocked, none", i, m.latest, m.lockTid, pending, want)
		}
	}
}

// replyLoss loses the invocation replies its node sends while lose is
// set: the handler ran, but its invoker never hears of it and times out.
type replyLoss struct {
	transport.Transport
	lose *atomic.Bool
}

func (l replyLoss) Send(env msg.Envelope) error {
	if env.Kind == msg.KindInvokeRep && l.lose.Load() {
		return nil
	}
	return l.Transport.Send(env)
}

// TestLostReplyLeavesNoLock: a lock or prepare that ran at the file but
// whose reply was lost must not leave the file locked. Node 2, the
// files' home, loses its replies; once it stops, a fresh transaction
// commits. (A slow reply link would not do: the invoker's timeout drops
// its location hint, and the abort's locate reply would ride the same
// slow link, so the abort could never reach the file.)
func TestLostReplyLeavesNoLock(t *testing.T) {
	run := func(t *testing.T, mode CCMode, tx func(c *Client, files []capability.Capability) error) {
		var lose atomic.Bool
		ks := testSysWith(t, 150*time.Millisecond, func(tr transport.Transport) transport.Transport {
			if tr.Node() == 2 {
				return replyLoss{tr, &lose}
			}
			return tr
		}, 1, 2)
		c := NewClient(ks[1], mode)
		home := NewClient(ks[2], mode)
		files := make([]capability.Capability, 2)
		for i := range files {
			files[i], _ = home.CreateFile()
			if _, _, err := c.Read(files[i]); err != nil { // node 1 learns where it lives
				t.Fatal(err)
			}
		}
		lose.Store(true)
		if err := tx(c, files); err == nil || errors.Is(err, ErrConflict) {
			t.Fatalf("transaction with its replies lost: %v, want a timeout", err)
		}
		lose.Store(false)
		for i, f := range files {
			if m, pending := fileState(t, ks[2], f); m.lockTid != "" || pending {
				t.Errorf("file %d after the lost reply: lock %q, pending %v", i, m.lockTid, pending)
			}
		}
		next := c.Begin()
		if err := next.Write(files[0], 0, []byte("after")); err != nil {
			t.Fatalf("write after the lost reply: %v", err)
		}
		if err := next.Commit(); err != nil {
			t.Fatalf("commit after the lost reply: %v", err)
		}
	}
	t.Run("locking-write", func(t *testing.T) {
		run(t, Locking, func(c *Client, files []capability.Capability) error {
			tx := c.Begin()
			err := tx.Write(files[0], 0, []byte("lost"))
			tx.Abort()
			return err
		})
	})
	t.Run("optimistic-two-file-commit", func(t *testing.T) {
		run(t, Optimistic, func(c *Client, files []capability.Capability) error {
			tx := c.Begin()
			_ = tx.Write(files[0], 0, []byte("lost"))
			_ = tx.Write(files[1], 0, []byte("lost"))
			return tx.Commit()
		})
	})
}

// TestEFSAllocCeilings pins what the EFS path allocates on one node: a
// read of a 1 KiB version, and a one-file optimistic commit on a memory
// store. Each ceiling is the measured count plus one, since a sync.Pool
// may drop a buffer: read 1, the exact-size reply ReturnBuffer
// allocates for a local call (2 while Return copied it), and commit 5,
// on the client's side the one copy of the value, laid out as the
// proposal, and the rest the reply, the handler's segments and, once the
// file's encoding outgrows msg's largest pooled buffer (about 60 of the
// 100 commits counted), the checkpoint's encoding and the log's batch
// buffer; a smaller file's commit is 4 (TestCommitOneNamesNoVersion).
// It was 6 while each commit allocated its version's name and its
// checkpoint's encoding, 8 while the store allocated each write's queued
// frame and its batch's buffer, 10 while the value was copied into a
// grown slice and again into the proposal.
func TestEFSAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; the call frame is reallocated at random")
	}
	const readCeiling, commitCeiling = 2, 6
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	f, _ := c.CreateFile()
	value := bytes.Repeat([]byte("v"), 1<<10)
	var ver uint64
	commit := func() {
		tx := c.Begin()
		if err := tx.Write(f, ver, value); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ver++
	}
	commit()
	if got := testing.AllocsPerRun(1000, func() {
		if data, _, err := c.Read(f); err != nil || len(data) != len(value) {
			t.Fatalf("read: %d bytes, %v", len(data), err)
		}
	}); got > readCeiling {
		t.Errorf("read of a 1 KiB version: %.0f allocs, ceiling %d", got, readCeiling)
	}
	if got := testing.AllocsPerRun(100, commit); got > commitCeiling {
		t.Errorf("one-file commit: %.0f allocs, ceiling %d", got, commitCeiling)
	}
}

// commitOne invokes commit-one on f directly, with no tid, and returns
// the version it installed.
func commitOne(t *testing.T, k *kernel.Kernel, f capability.Capability, base uint64, content []byte) uint64 {
	t.Helper()
	req := binary.BigEndian.AppendUint32(nil, 0)
	req = binary.BigEndian.AppendUint64(req, base)
	rep, err := k.Invoke(f, "commit-one", append(req, content...), nil, nil)
	if err != nil {
		t.Fatalf("commit-one on v%d: %v", base, err)
	}
	return binary.BigEndian.Uint64(rep.Data)
}

// TestCommitOneNamesNoVersion: a commit-one that installs a version some
// file has had before allocates three objects: the reply's version
// number, the version's copy of its content and the meta segment. Its
// segment's name is the one every file shares, and its checkpoint's
// encoding is lent to the log, which copies it. A local call allocates
// nothing of its own. The collector is held off, so that no pooled
// buffer is dropped while counting.
func TestCommitOneNamesNoVersion(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; the call frame is reallocated at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	value := bytes.Repeat([]byte("v"), 1<<10)
	const versions = 40
	named, _ := c.CreateFile()
	for v := uint64(0); v < versions; v++ {
		commitOne(t, ks[1], named, v, value)
	}
	f, _ := c.CreateFile()
	base := uint64(0)
	req := binary.BigEndian.AppendUint32(nil, 0)
	req = binary.BigEndian.AppendUint64(req, 0)
	req = append(req, value...)
	// The first commits grow the representation's segment array, which
	// later ones find room in.
	for ; base < 8; base++ {
		commitOne(t, ks[1], f, base, value)
	}
	got := testing.AllocsPerRun(int(versions-base-1), func() { // and one warm-up run
		binary.BigEndian.PutUint64(req[4:], base)
		if _, err := ks[1].Invoke(f, "commit-one", req, nil, nil); err != nil {
			t.Fatal(err)
		}
		base++
	})
	if got > 3 {
		t.Errorf("commit-one of a named version: %.0f allocs, want 3", got)
	}
}

// TestVersionPastSharedNamesCommits: a version past the shared names'
// bound is named by a string of its own, and a version in a later block
// of them by its own number; each commits, reads and counts in the
// file's history, also once the file is reincarnated from its record.
// Each file jumps to its first version by a mirror's push.
func TestVersionPastSharedNamesCommits(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	for _, first := range []uint64{versionBlock + 36, sharedVersions - 1, sharedVersions + 3} {
		f, _ := c.CreateFile()
		if _, err := ks[1].Invoke(f, "mirror-put", append(u64b(first), "first"...), nil, nil); err != nil {
			t.Fatal(err)
		}
		if v := commitOne(t, ks[1], f, first, []byte("next")); v != first+1 {
			t.Fatalf("commit-one after v%d installed v%d", first, v)
		}
		for pass := 0; pass < 2; pass++ {
			for v, want := range map[uint64]string{first: "first", first + 1: "next"} {
				data, got, err := c.ReadVersion(f, v)
				if err != nil || got != v || string(data) != want {
					t.Errorf("pass %d: read v%d = v%d %q, %v; want %q", pass, v, got, data, err, want)
				}
			}
			if latest, count, err := c.History(f); err != nil || latest != first+1 || count != 2 {
				t.Errorf("pass %d: history = latest %d count %d, %v; want %d, 2", pass, latest, count, err, first+1)
			}
			obj, _ := ks[1].Object(f.ID())
			obj.Crash() // the next pass reincarnates it from its record
		}
	}
}

// TestSharedVersionNamesAcrossFilesAndRestarts: two files committing the
// same version numbers share their names, and read back only their own
// contents and histories, also when a file was reincarnated between
// commits, so that its older versions' names lie in the record it was
// decoded from and its newer ones in the shared table.
func TestSharedVersionNamesAcrossFilesAndRestarts(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	files := make([]capability.Capability, 2)
	for i := range files {
		files[i], _ = c.CreateFile()
	}
	content := func(file int, v uint64) string { return fmt.Sprintf("file %d version %d", file, v) }
	crash := func() {
		for _, f := range files {
			obj, err := ks[1].Object(f.ID())
			if err != nil {
				t.Fatal(err)
			}
			obj.Crash()
		}
	}
	const latest = 6
	for v := uint64(1); v <= latest; v++ {
		for i, f := range files {
			commitOne(t, ks[1], f, v-1, []byte(content(i, v)))
		}
		if v%2 == 0 {
			crash()
		}
	}
	for i, f := range files {
		for v := uint64(1); v <= latest; v++ {
			data, got, err := c.ReadVersion(f, v)
			if err != nil || got != v || string(data) != content(i, v) {
				t.Errorf("file %d: read v%d = v%d %q, %v; want %q", i, v, got, data, err, content(i, v))
			}
		}
		if l, count, err := c.History(f); err != nil || l != latest || count != latest {
			t.Errorf("file %d: history = latest %d count %d, %v; want %d, %d", i, l, count, err, latest, latest)
		}
	}
}
