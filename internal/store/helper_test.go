package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/edenid"
)

// writeRaw writes arbitrary bytes to path for junk-file tests.
func writeRaw(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

// writeLog writes a log of n records, each of a new object, as one
// segment in a new directory, and returns the directory and the objects.
func writeLog(t testing.TB, n int) (string, []edenid.ID) {
	t.Helper()
	dir := t.TempDir()
	var log []byte
	ids := make([]edenid.ID, n)
	for i := range ids {
		rec := sampleRec(1)
		log = appendFrame(log, &pending{kind: kindRecord, id: rec.Object, rec: rec})
		ids[i] = rec.Object
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, ids
}

// flipByte corrupts the byte at off in the file at path, behind the
// store's back.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xFF
	if err := writeRaw(path, b); err != nil {
		t.Fatal(err)
	}
}

// copyLog copies the segments of the log in dir to a new directory,
// cutting the last one to its first cut bytes (cut < 0 keeps it whole):
// the state a crash leaves when only that much of the last write reached
// the disk.
func copyLog(t *testing.T, dir string, cut int64) string {
	t.Helper()
	names := segmentFiles(t, dir)
	to := t.TempDir()
	for i, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if i == len(names)-1 && cut >= 0 {
			b = b[:cut]
		}
		if err := writeRaw(filepath.Join(to, filepath.Base(name)), b); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// segmentFiles lists the log's segment files in order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// openFaulty opens the log in dir through a fault layer that injects
// nothing, for a test to arm the layer's trigger.
func openFaulty(t testing.TB, dir string) (*File, *Faults) {
	t.Helper()
	fl := NewFaults(FaultConfig{})
	f, err := fl.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return f, fl
}

// failOn fails every call through fl named in ops with err.
func failOn(fl *Faults, err error, ops ...string) {
	fl.trigger = func(op string) error {
		if slices.Contains(ops, op) {
			return err
		}
		return nil
	}
}

// gate holds the first fsync of a store until released, so that a test
// can line up what queues behind the batch being written. entered is
// closed when that fsync is reached.
type gate struct {
	entered, release chan struct{}
}

// holdFirstSync arms the gate on f, which was opened through a fault
// layer.
func holdFirstSync(f *File) *gate {
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	var first atomic.Bool
	f.fs.(*faultView).fl.trigger = func(op string) error {
		if op == "sync" && first.CompareAndSwap(false, true) {
			close(g.entered)
			<-g.release
		}
		return nil
	}
	return g
}

// waitQueued waits until n frames are queued behind the batch being
// written.
func waitQueued(t *testing.T, f *File, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.mu.Lock()
		queued := len(f.queue)
		f.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames queued, want %d", queued, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// putBatch makes recs one batch, in order: a Put of blocker leads and is
// held in its fsync while each of recs queues behind it.
func putBatch(t *testing.T, f *File, blocker Record, recs []Record) {
	t.Helper()
	g := holdFirstSync(f)
	defer func() { f.fs.(*faultView).fl.trigger = nil }()
	errs := make(chan error, len(recs)+1)
	go func() { errs <- f.Put(blocker) }()
	<-g.entered
	for i, rec := range recs {
		go func() { errs <- f.Put(rec) }()
		waitQueued(t, f, i+1)
	}
	close(g.release)
	for range len(recs) + 1 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// replayLog reads every segment in dir as a reader with no directory
// would — frame by frame, checksums and all, the last frame of each
// object winning — and returns each record's metadata and each intent.
func replayLog(t *testing.T, dir string) (map[edenid.ID]Meta, map[edenid.ID]MoveIntent) {
	t.Helper()
	recs, its := make(map[edenid.ID]Meta), make(map[edenid.ID]MoveIntent)
	for _, name := range segmentFiles(t, dir) {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			n := frameHeader + int(binary.BigEndian.Uint32(b))
			frame, err := checkFrame(b[:n])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			kind, body := frame[0], frame[1:]
			switch kind {
			case kindRecord:
				rec, err := decodeRecord(body, new(typeNames))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				recs[rec.Object] = rec.Meta()
			case kindIntent:
				it, err := decodeIntent(body)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				its[it.Object] = it
			case kindRecordGone:
				delete(recs, edenid.ID(body))
			case kindIntentGone:
				delete(its, edenid.ID(body))
			}
			b = b[n:]
		}
	}
	return recs, its
}

// checkDirectory asserts the invariant: the directory is exactly what a
// replay of the log gives, and every entry points at its record.
func checkDirectory(t *testing.T, f *File, dir, when string) {
	t.Helper()
	recs, its := replayLog(t, dir)
	f.dirMu.RLock()
	if len(f.recs.ents) != len(recs) || len(f.intents.ents) != len(its) {
		t.Errorf("%s: directory lists %d records and %d intents, the log %d and %d",
			when, len(f.recs.ents), len(f.intents.ents), len(recs), len(its))
	}
	for id, want := range recs {
		if got, ok := f.recs.get(id); !ok || got.meta != want {
			t.Errorf("%s: directory says %+v (%v) for %v, the log %+v", when, got.meta, ok, id, want)
		}
	}
	for id, want := range its {
		if got, ok := f.intents.get(id); !ok || got.it != want {
			t.Errorf("%s: directory holds intent %+v (%v) for %v, the log %+v", when, got.it, ok, id, want)
		}
	}
	f.dirMu.RUnlock()
	for id, want := range recs {
		if got, err := f.Get(id); err != nil || got.Meta() != want {
			t.Errorf("%s: Get(%v) = %+v, %v; want %+v", when, id, got.Meta(), err, want)
		}
	}
}

// recordAt is where the directory says id's record lies. The test fails
// if it holds none.
func recordAt(t *testing.T, f *File, id edenid.ID) loc {
	t.Helper()
	f.dirMu.RLock()
	e, ok := f.recs.get(id)
	f.dirMu.RUnlock()
	if !ok {
		t.Fatalf("the directory holds no record of %v", id)
	}
	return e.loc
}
