package faultstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"eden/internal/edenid"
	"eden/internal/store"
)

var gen = edenid.NewGenerator(1)

func rec(id edenid.ID, version uint64, rep string) store.Record {
	return store.Record{Object: id, TypeName: "test", Version: version, Rep: []byte(rep)}
}

// runSchedule drives an identical serial operation sequence through a
// freshly wrapped store and returns the fault schedule it produced.
func runSchedule(t *testing.T, seed int64) ([]Event, Counters) {
	t.Helper()
	fs := Wrap(store.NewMemory(), Config{
		Seed:     seed,
		FailProb: 0.3,
		TornProb: 0.2,
	})
	ids := make([]edenid.ID, 8)
	for i := range ids {
		ids[i] = edenid.New(1, uint64(100+i), uint32(i))
	}
	for i := 0; i < 100; i++ {
		id := ids[i%len(ids)]
		switch i % 4 {
		case 0, 1:
			fs.Put(rec(id, uint64(i+1), fmt.Sprintf("v%d", i)))
		case 2:
			fs.Get(id)
		case 3:
			fs.List()
		}
	}
	return fs.Events(), fs.Counters()
}

func TestDeterministicReplay(t *testing.T) {
	ev1, c1 := runSchedule(t, 42)
	ev2, c2 := runSchedule(t, 42)
	if c1 != c2 {
		t.Fatalf("same seed, different counters: %+v vs %+v", c1, c2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("same seed, different schedule length: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("same seed, schedules diverge at %d: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if c1.Fail == 0 || c1.Torn == 0 {
		t.Fatalf("schedule injected nothing to compare: %+v", c1)
	}

	ev3, _ := runSchedule(t, 43)
	same := len(ev3) == len(ev1)
	if same {
		for i := range ev1 {
			if ev1[i] != ev3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical non-trivial schedules")
	}
}

// TestCountersReconcile checks that every failure the caller observes
// is accounted for by the schedule, and vice versa: injected failures
// == observed ErrInjected returns.
func TestCountersReconcile(t *testing.T) {
	fs := Wrap(store.NewMemory(), Config{Seed: 7, FailProb: 0.25})
	id := gen.Next()
	var observed uint64
	version := uint64(0)
	for i := 0; i < 200; i++ {
		version++
		if err := fs.Put(rec(id, version, "x")); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
			observed++
		}
	}
	c := fs.Counters()
	if c.Fail != observed {
		t.Fatalf("schedule injected %d failures, caller observed %d", c.Fail, observed)
	}
	if got := uint64(len(fs.Events())); got != c.Fail {
		t.Fatalf("events log has %d entries, counters say %d", got, c.Fail)
	}
	if fs.Ops() != 200 {
		t.Fatalf("ops = %d, want 200", fs.Ops())
	}
}

func TestInjectedWrapsErrFailed(t *testing.T) {
	if !errors.Is(ErrInjected, store.ErrFailed) {
		t.Fatal("ErrInjected does not wrap store.ErrFailed")
	}
}

func TestSyncLie(t *testing.T) {
	inner := store.NewMemory()
	fs := Wrap(inner, Config{Seed: 1, SyncLie: true})
	id := gen.Next()

	if err := fs.Put(rec(id, 1, "acked")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// The writing process sees its own write, as through a page cache.
	got, err := fs.Get(id)
	if err != nil || string(got.Rep) != "acked" {
		t.Fatalf("Get after lying Put = %q, %v", got.Rep, err)
	}
	ids, err := fs.List()
	if err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("List = %v, %v", ids, err)
	}
	// But the medium never saw it.
	if _, err := inner.Get(id); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("inner.Get = %v, want ErrNotFound (write must be volatile)", err)
	}
	if fs.UnsyncedLen() != 1 {
		t.Fatalf("UnsyncedLen = %d, want 1", fs.UnsyncedLen())
	}

	// A crash drops the acknowledged write.
	if n := fs.DropUnsynced(); n != 1 {
		t.Fatalf("DropUnsynced = %d, want 1", n)
	}
	if _, err := fs.Get(id); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get after crash = %v, want ErrNotFound", err)
	}
	c := fs.Counters()
	if c.SyncLie != 1 || c.Dropped != 1 {
		t.Fatalf("counters = %+v, want SyncLie=1 Dropped=1", c)
	}
}

func TestSyncFlushes(t *testing.T) {
	inner := store.NewMemory()
	fs := Wrap(inner, Config{Seed: 1, SyncLie: true})
	id := gen.Next()
	if err := fs.Put(rec(id, 1, "durable-after-sync")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got, err := inner.Get(id)
	if err != nil || string(got.Rep) != "durable-after-sync" {
		t.Fatalf("inner.Get after Sync = %q, %v", got.Rep, err)
	}
	// Now a crash loses nothing.
	if n := fs.DropUnsynced(); n != 0 {
		t.Fatalf("DropUnsynced after Sync = %d, want 0", n)
	}
	if _, err := fs.Get(id); err != nil {
		t.Fatalf("Get after Sync+crash: %v", err)
	}
}

func TestSyncLieDeleteTombstone(t *testing.T) {
	inner := store.NewMemory()
	id := gen.Next()
	if err := inner.Put(rec(id, 1, "old")); err != nil {
		t.Fatalf("seed inner: %v", err)
	}
	fs := Wrap(inner, Config{Seed: 1, SyncLie: true})
	if err := fs.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Deletion acknowledged: the process no longer sees the record.
	if _, err := fs.Get(id); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get after unsynced delete = %v, want ErrNotFound", err)
	}
	if ids, _ := fs.List(); len(ids) != 0 {
		t.Fatalf("List after unsynced delete = %v, want empty", ids)
	}
	// A crash resurrects it.
	fs.DropUnsynced()
	got, err := fs.Get(id)
	if err != nil || string(got.Rep) != "old" {
		t.Fatalf("Get after crash = %q, %v, want resurrection of old record", got.Rep, err)
	}
}

func TestSyncLieStaleRejected(t *testing.T) {
	fs := Wrap(store.NewMemory(), Config{Seed: 1, SyncLie: true})
	id := gen.Next()
	if err := fs.Put(rec(id, 5, "v5")); err != nil {
		t.Fatalf("Put v5: %v", err)
	}
	if err := fs.Put(rec(id, 5, "v5-again")); !errors.Is(err, store.ErrStale) {
		t.Fatalf("stale Put = %v, want ErrStale (lying store must still check versions)", err)
	}
	if err := fs.Put(rec(id, 6, "v6")); err != nil {
		t.Fatalf("Put v6: %v", err)
	}
}

func TestTornWrite(t *testing.T) {
	inner := store.NewMemory()
	// TornProb 1: every accepted Put tears.
	fs := Wrap(inner, Config{Seed: 9, TornProb: 1})
	id := gen.Next()
	rep := "this representation will not survive"
	if err := fs.Put(rec(id, 1, rep)); err != nil {
		t.Fatalf("torn Put must report success, got %v", err)
	}
	got, err := inner.Get(id)
	if err != nil {
		t.Fatalf("inner.Get: %v", err)
	}
	if string(got.Rep) == rep {
		t.Fatal("record survived intact despite TornProb=1")
	}
	if len(got.Rep) >= len(rep) {
		t.Fatalf("torn rep is %d bytes, want a strict prefix of %d", len(got.Rep), len(rep))
	}
	c := fs.Counters()
	if c.Torn != 1 {
		t.Fatalf("counters = %+v, want Torn=1", c)
	}
	// A torn write of a stale version is still rejected before the
	// medium is touched.
	if err := fs.Put(rec(id, 1, "stale")); !errors.Is(err, store.ErrStale) {
		t.Fatalf("stale torn Put = %v, want ErrStale", err)
	}
}

func TestDelayInjection(t *testing.T) {
	fs := Wrap(store.NewMemory(), Config{Seed: 3, DelayProb: 1, MaxDelay: time.Millisecond})
	id := gen.Next()
	start := time.Now()
	for i := 0; i < 5; i++ {
		fs.Put(rec(id, uint64(i+1), "x"))
	}
	_ = time.Since(start) // delays are bounded; just ensure they complete
	c := fs.Counters()
	if c.Delay != 5 {
		t.Fatalf("counters = %+v, want Delay=5", c)
	}
}

func TestPeekConsumesNoSchedule(t *testing.T) {
	fs := Wrap(store.NewMemory(), Config{Seed: 11, FailProb: 1})
	id := gen.Next()
	if _, err := fs.peek(id); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("peek = %v, want ErrNotFound even with FailProb=1", err)
	}
	if fs.Ops() != 0 {
		t.Fatalf("peek consumed a schedule slot (ops=%d)", fs.Ops())
	}
}

func TestUnwrap(t *testing.T) {
	inner := store.NewMemory()
	fs := Wrap(inner, Config{})
	if got := store.Unwrap(fs); got != inner {
		t.Fatalf("store.Unwrap did not peel the fault wrapper: %T", got)
	}
}

func TestPassThroughWhenZero(t *testing.T) {
	inner := store.NewMemory()
	fs := Wrap(inner, Config{})
	id := gen.Next()
	if err := fs.Put(rec(id, 1, "clean")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := inner.Get(id)
	if err != nil || string(got.Rep) != "clean" {
		t.Fatalf("zero config must pass through: %q, %v", got.Rep, err)
	}
	if c := fs.Counters(); c != (Counters{}) {
		t.Fatalf("zero config injected faults: %+v", c)
	}
}

// agree asserts Stat and Get (through peek, which draws nothing) give
// the same answer about id: the kernel asks Stat where it used to Get.
func agree(t *testing.T, fs *Store, id edenid.ID, when string) {
	t.Helper()
	got, gerr := fs.peek(id)
	meta, ok := fs.Stat(id)
	if ok != (gerr == nil) {
		t.Errorf("%s: Stat found=%v, Get err=%v", when, ok, gerr)
	}
	if ok && meta != got.Meta() {
		t.Errorf("%s: Stat = %+v, Get = %+v", when, meta, got.Meta())
	}
}

func TestStatAgreesWithGetUnderFaults(t *testing.T) {
	t.Run("unsynced and dropped", func(t *testing.T) {
		inner := store.NewMemory()
		id, fresh := gen.Next(), gen.Next()
		if err := inner.Put(rec(id, 1, "durable")); err != nil {
			t.Fatal(err)
		}
		fs := Wrap(inner, Config{Seed: 1, SyncLie: true})
		agree(t, fs, id, "before any lie")
		backup := rec(id, 2, "acked")
		backup.Backup, backup.Home, backup.Epoch = true, 3, 5
		if err := fs.Put(backup); err != nil {
			t.Fatal(err)
		}
		if err := fs.Put(rec(fresh, 1, "acked")); err != nil {
			t.Fatal(err)
		}
		if m, ok := fs.Stat(id); !ok || m.Version != 2 || !m.Backup || m.Home != 3 || m.Epoch != 5 {
			t.Errorf("Stat of unsynced write = %+v, %v", m, ok)
		}
		agree(t, fs, id, "unsynced overwrite")
		agree(t, fs, fresh, "unsynced first write")
		fs.DropUnsynced()
		if m, ok := fs.Stat(id); !ok || m.Version != 1 || m.Backup {
			t.Errorf("Stat after the drop = %+v, %v; want the durable v1", m, ok)
		}
		agree(t, fs, id, "dropped overwrite")
		agree(t, fs, fresh, "dropped first write")

		if err := fs.Delete(id); err != nil {
			t.Fatal(err)
		}
		if _, ok := fs.Stat(id); ok {
			t.Error("Stat sees through an unsynced tombstone")
		}
		agree(t, fs, id, "unsynced delete")
		fs.DropUnsynced()
		agree(t, fs, id, "resurrected")
		if err := fs.Put(rec(id, 2, "again")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		agree(t, fs, id, "synced")
	})
	t.Run("torn", func(t *testing.T) {
		fs := Wrap(store.NewMemory(), Config{Seed: 9, TornProb: 1})
		id := gen.Next()
		if err := fs.Put(rec(id, 4, "this representation will not survive")); err != nil {
			t.Fatal(err)
		}
		// The header landed: the record is there, at its version, and a
		// stale write is still refused on Stat's word.
		if m, ok := fs.Stat(id); !ok || m.Version != 4 {
			t.Errorf("Stat of torn record = %+v, %v", m, ok)
		}
		agree(t, fs, id, "torn")
	})
	t.Run("draws nothing", func(t *testing.T) {
		fs := Wrap(store.NewMemory(), Config{Seed: 1, FailProb: 1})
		before := fs.Ops()
		fs.Stat(gen.Next())
		if fs.Ops() != before || fs.Counters().Fail != 0 {
			t.Error("Stat consumed a schedule draw")
		}
	})
}
