package efs

import (
	"bytes"
	"errors"
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
	commit := func(writes ...txWrite) {
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
	if n := servedBy(ks[2], func() { commit(txWrite{a, 0, []byte("one")}) }); n != 1 {
		t.Errorf("one-file commit: %d invocations served, want 1", n)
	}
	if n := servedBy(ks[2], func() { commit(txWrite{a, 1, []byte("two")}, txWrite{b, 0, []byte("two")}) }); n != 4 {
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
// store. Each ceiling is the measured count plus one: read 1, the
// exact-size reply opRead gives to Return (2 while Return copied it),
// and commit 9.
func TestEFSAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; the call frame is reallocated at random")
	}
	const readCeiling, commitCeiling = 2, 10
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
