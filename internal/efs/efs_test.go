package efs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eden/internal/kernel"
	"eden/internal/transport"
)

func testSys(t *testing.T, nodes ...uint32) map[uint32]*kernel.Kernel {
	t.Helper()
	return testSysWith(t, 2*time.Second, nil, nodes...)
}

// testSysWith is testSys with the invocation timeout given and, when
// wrap is set, each node's transport passed through it.
func testSysWith(t *testing.T, timeout time.Duration, wrap func(transport.Transport) transport.Transport, nodes ...uint32) map[uint32]*kernel.Kernel {
	t.Helper()
	mesh := transport.NewMesh(9)
	t.Cleanup(func() { mesh.Close() })
	reg := kernel.NewRegistry()
	if err := RegisterType(reg); err != nil {
		t.Fatal(err)
	}
	ks := make(map[uint32]*kernel.Kernel)
	for _, n := range nodes {
		ep, err := mesh.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		var tr transport.Transport = ep
		if wrap != nil {
			tr = wrap(tr)
		}
		cfg := kernel.DefaultConfig(n, fmt.Sprintf("node-%d", n))
		cfg.DefaultTimeout = timeout
		k := kernel.New(cfg, tr, reg, nil)
		k.Locator().DefaultTimeout = 250 * time.Millisecond
		ks[n] = k
		t.Cleanup(func() { k.Close() })
	}
	return ks
}

func TestEmptyFileRead(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	f, err := c.CreateFile()
	if err != nil {
		t.Fatal(err)
	}
	data, ver, err := c.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 0 || len(data) != 0 {
		t.Errorf("empty file read = v%d %q", ver, data)
	}
}

func TestCommitCreatesVersion(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	f, _ := c.CreateFile()

	tx := c.Begin()
	if err := tx.Write(f, 0, []byte("first contents")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	data, ver, err := c.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || string(data) != "first contents" {
		t.Errorf("read = v%d %q", ver, data)
	}
}

func TestVersionsAreImmutable(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	f, _ := c.CreateFile()
	contents := []string{"v1", "v2", "v3"}
	for i, s := range contents {
		tx := c.Begin()
		if err := tx.Write(f, uint64(i), []byte(s)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Every historical version remains readable, unchanged.
	for i, s := range contents {
		data, ver, err := c.ReadVersion(f, uint64(i+1))
		if err != nil {
			t.Fatalf("read v%d: %v", i+1, err)
		}
		if ver != uint64(i+1) || string(data) != s {
			t.Errorf("v%d = %q", ver, data)
		}
	}
	latest, count, err := c.History(f)
	if err != nil || latest != 3 || count != 3 {
		t.Errorf("history = %d %d %v", latest, count, err)
	}
	if _, _, err := c.ReadVersion(f, 9); err == nil {
		t.Error("read of nonexistent version succeeded")
	}
}

func TestOptimisticConflictAborts(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	f, _ := c.CreateFile()

	// Both transactions read version 0, both write; the second to
	// commit must fail validation.
	tx1, tx2 := c.Begin(), c.Begin()
	if err := tx1.Write(f, 0, []byte("from tx1")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(f, 0, []byte("from tx2")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit: %v, want ErrConflict", err)
	}
	data, ver, _ := c.Read(f)
	if ver != 1 || string(data) != "from tx1" {
		t.Errorf("file = v%d %q", ver, data)
	}
}

func TestLockingConflictSurfacesAtWrite(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Locking)
	f, _ := c.CreateFile()

	tx1 := c.Begin()
	if err := tx1.Write(f, 0, []byte("holder")); err != nil {
		t.Fatal(err)
	}
	tx2 := c.Begin()
	if err := tx2.Write(f, 0, []byte("blocked")); !errors.Is(err, ErrConflict) {
		t.Fatalf("second lock: %v, want ErrConflict", err)
	}
	tx2.Abort()
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// After commit the lock is free again.
	tx3 := c.Begin()
	if err := tx3.Write(f, 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortReleasesLockAndPending(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Locking)
	f, _ := c.CreateFile()
	tx := c.Begin()
	if err := tx.Write(f, 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	// The file is unlocked and unchanged.
	data, ver, _ := c.Read(f)
	if ver != 0 || len(data) != 0 {
		t.Errorf("file after abort = v%d %q", ver, data)
	}
	tx2 := c.Begin()
	if err := tx2.Write(f, 0, []byte("ok")); err != nil {
		t.Fatalf("lock not released by abort: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiFileAtomicCommit(t *testing.T) {
	ks := testSys(t, 1, 2)
	c := NewClient(ks[1], Optimistic)
	a, _ := c.CreateFile()
	b, err := NewClient(ks[2], Optimistic).CreateFile()
	if err != nil {
		t.Fatal(err)
	}

	// One transaction spanning files on two nodes.
	tx := c.Begin()
	if err := tx.Write(a, 0, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(b, 0, []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if data, ver, _ := c.Read(a); ver != 1 || string(data) != "alpha" {
		t.Errorf("a = v%d %q", ver, data)
	}
	if data, ver, _ := c.Read(b); ver != 1 || string(data) != "beta" {
		t.Errorf("b = v%d %q", ver, data)
	}
}

func TestMultiFileConflictAbortsAll(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	a, _ := c.CreateFile()
	b, _ := c.CreateFile()

	// Bump b to version 1 behind tx's back.
	quick := c.Begin()
	_ = quick.Write(b, 0, []byte("sneak"))
	if err := quick.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := c.Begin()
	_ = tx.Write(a, 0, []byte("half"))
	_ = tx.Write(b, 0, []byte("stale")) // stale base: conflict
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit: %v", err)
	}
	// Atomicity: file a must NOT have the transaction's write.
	if _, ver, _ := c.Read(a); ver != 0 {
		t.Errorf("file a advanced to v%d despite aborted transaction", ver)
	}
	// And a's lock/pending state is clean: a fresh write succeeds.
	tx2 := c.Begin()
	if err := tx2.Write(a, 0, []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentIncrementsSerializable(t *testing.T) {
	for _, mode := range []CCMode{Locking, Optimistic} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			ks := testSys(t, 1)
			c := NewClient(ks[1], mode)
			f, _ := c.CreateFile()
			const workers, perWorker = 4, 5
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						// Retry loop: read-modify-write until committed.
						for {
							tx := c.Begin()
							data, ver, err := tx.Read(f)
							if err != nil {
								t.Errorf("read: %v", err)
								return
							}
							n := len(data)
							if err := tx.Write(f, ver, append(data, byte(n))); err != nil {
								tx.Abort()
								if errors.Is(err, ErrConflict) {
									continue
								}
								t.Errorf("write: %v", err)
								return
							}
							err = tx.Commit()
							if err == nil {
								break
							}
							if !errors.Is(err, ErrConflict) {
								t.Errorf("commit: %v", err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			data, ver, err := c.Read(f)
			if err != nil {
				t.Fatal(err)
			}
			if ver != workers*perWorker {
				t.Errorf("final version = %d, want %d", ver, workers*perWorker)
			}
			if len(data) != workers*perWorker {
				t.Errorf("final length = %d, want %d", len(data), workers*perWorker)
			}
			// Serializability: each committed append saw the previous
			// state, so byte i must equal i.
			for i, b := range data {
				if int(b) != i {
					t.Fatalf("lost update detected at byte %d (= %d)", i, b)

				}
			}
		})
	}
}

func TestReplicationPushesToMirrors(t *testing.T) {
	ks := testSys(t, 1, 2, 3)
	c := NewClient(ks[1], Optimistic)
	primary, mirrors, err := c.CreateReplicated(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mirrors) != 2 {
		t.Fatalf("mirrors = %d", len(mirrors))
	}
	tx := c.Begin()
	_ = tx.Write(primary, 0, []byte("replicated data"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Each mirror holds the committed version.
	for i, m := range mirrors {
		data, ver, err := c.Read(m)
		if err != nil {
			t.Fatalf("mirror %d read: %v", i, err)
		}
		if ver != 1 || string(data) != "replicated data" {
			t.Errorf("mirror %d = v%d %q", i, ver, data)
		}
	}
	// Mirrors live on their assigned nodes.
	if len(ks[2].ActiveObjects()) == 0 || len(ks[3].ActiveObjects()) == 0 {
		t.Error("mirrors not placed on their nodes")
	}
}

func TestReadAnySurvivesPrimaryFailure(t *testing.T) {
	ks := testSys(t, 1, 2)
	c2 := NewClient(ks[2], Optimistic)
	c1 := NewClient(ks[1], Optimistic)
	primary, mirrors, err := c1.CreateReplicated(2)
	if err != nil {
		t.Fatal(err)
	}
	tx := c1.Begin()
	_ = tx.Write(primary, 0, []byte("survives"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Kill the primary's node. The mirror on node 2 still serves.
	ks[1].Close()
	data, ver, err := c2.ReadAny(append(mirrors.Clone(), primary)...)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || string(data) != "survives" {
		t.Errorf("ReadAny = v%d %q", ver, data)
	}
}

func TestFileSurvivesPassivation(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	f, _ := c.CreateFile()
	tx := c.Begin()
	_ = tx.Write(f, 0, []byte("durable"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	obj, err := ks[1].Object(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Passivate(); err != nil {
		t.Fatal(err)
	}
	data, ver, err := c.Read(f) // reincarnates
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || string(data) != "durable" {
		t.Errorf("after passivation = v%d %q", ver, data)
	}
}

func TestCommitIsDurableAcrossObjectCrash(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	f, _ := c.CreateFile()
	tx := c.Begin()
	_ = tx.Write(f, 0, []byte("committed"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	obj, _ := ks[1].Object(f.ID())
	obj.Crash() // commit checkpointed, so the version survives
	data, ver, err := c.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || string(data) != "committed" {
		t.Errorf("after crash = v%d %q", ver, data)
	}
}

func TestClientAccessorsAndWriteLatest(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Locking)
	if c.Mode() != Locking {
		t.Errorf("Mode = %v", c.Mode())
	}
	if Locking.String() != "locking" || Optimistic.String() != "optimistic" || CCMode(9).String() == "" {
		t.Error("CCMode strings wrong")
	}
	f, _ := c.CreateFile()
	tx := c.Begin()
	if tx.TID() == "" {
		t.Error("empty TID")
	}
	if err := tx.WriteLatest(f, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if data, ver, _ := c.Read(f); ver != 1 || string(data) != "one" {
		t.Errorf("after WriteLatest: v%d %q", ver, data)
	}
	// A finished transaction refuses further use.
	if err := tx.Write(f, 1, []byte("x")); !errors.Is(err, ErrBadTransaction) {
		t.Errorf("Write on done tx: %v", err)
	}
	if _, _, err := tx.Read(f); !errors.Is(err, ErrBadTransaction) {
		t.Errorf("Read on done tx: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrBadTransaction) {
		t.Errorf("double Commit: %v", err)
	}
	tx.Abort() // no-op on a done transaction
}

func TestReadAnyFallsThrough(t *testing.T) {
	ks := testSys(t, 1)
	c := NewClient(ks[1], Optimistic)
	good, _ := c.CreateFile()
	tx := c.Begin()
	_ = tx.Write(good, 0, []byte("present"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	obj, _ := ks[1].Object(good.ID())
	_ = obj // keep good alive
	// A dangling capability first, then the good one: ReadAny must
	// fall through to the good replica.
	ghost, _ := c.CreateFile()
	gobj, _ := ks[1].Object(ghost.ID())
	if err := gobj.Destroy(); err != nil {
		t.Fatal(err)
	}
	data, ver, err := c.ReadAny(ghost, good)
	if err != nil || ver != 1 || string(data) != "present" {
		t.Errorf("ReadAny fallback = v%d %q %v", ver, data, err)
	}
	// No candidates at all.
	if _, _, err := c.ReadAny(); err == nil {
		t.Error("ReadAny() with no candidates succeeded")
	}
}
