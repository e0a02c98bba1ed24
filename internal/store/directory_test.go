package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ---- Stat, on both media ----

func TestStatAnswersAsGetWould(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		rec := sampleRec(4)
		rec.Epoch, rec.Backup, rec.Home = 3, true, 9
		if _, ok := s.Stat(rec.Object); ok {
			t.Error("Stat found a record nobody put")
		}
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Stat(rec.Object)
		if want := (Meta{Version: 4, Epoch: 3, Backup: true, Home: 9}); !ok || got != want {
			t.Errorf("Stat = %+v, %v; want %+v", got, ok, want)
		}
		stale := rec
		stale.Version, stale.Backup = 2, false
		if err := s.Put(stale); !errors.Is(err, ErrStale) {
			t.Fatalf("stale Put: %v", err)
		}
		if got, _ := s.Stat(rec.Object); got.Version != 4 || !got.Backup {
			t.Errorf("rejected Put changed Stat to %+v", got)
		}
		if err := s.Delete(rec.Object); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Stat(rec.Object); ok {
			t.Error("Stat still finds a deleted record")
		}
		// A forward: Stat answers it, and Get answers a missing record.
		fwd := forwardOf(sampleRec(2))
		if err := s.Put(fwd); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Stat(fwd.Object); !ok || got != fwd.Meta() {
			t.Errorf("Stat of a forward = %+v, %v; want %+v", got, ok, fwd.Meta())
		}
		if _, err := s.Get(fwd.Object); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get of a forward = %v, want ErrNotFound", err)
		}
	})
}

// ---- the file store's directory ----

func TestFileDirectoryEqualsDisk(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 6; i++ {
		rec := sampleRec(uint64(i + 1))
		rec.Epoch = uint64(i % 3)
		if i%2 == 1 {
			rec.Backup, rec.Home = true, uint32(10+i)
		}
		rec.Frozen = i == 4
		if err := f.Put(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	intent := MoveIntent{Object: recs[5].Object, Dest: 3, Epoch: 2}
	if err := f.PutIntent(intent); err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, f, "after Puts")

	// Opened on a populated log, backup markers and homes included.
	f, err = NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, f, "after open")
	if got, ok := f.Stat(recs[1].Object); !ok || !got.Backup || got.Home != 11 || got.Version != 2 {
		t.Errorf("backup record after open: %+v, %v", got, ok)
	}
	ids, err := f.List()
	if err != nil || len(ids) != len(recs) {
		t.Errorf("List after open: %d ids, %v", len(ids), err)
	}

	// A newer version, a rejected stale one, a promotion, a deletion, a
	// deletion of nothing, the intent's deletion.
	up := recs[0]
	up.Version = 9
	if err := f.Put(up); err != nil {
		t.Fatal(err)
	}
	stale := recs[2]
	stale.Version = 1
	if err := f.Put(stale); !errors.Is(err, ErrStale) {
		t.Fatalf("stale Put: %v", err)
	}
	promoted := recs[1]
	promoted.Version, promoted.Backup, promoted.Home = 3, false, 0
	if err := f.Put(promoted); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(recs[3].Object); err != nil {
		t.Fatal(err)
	}
	before := f.head().size
	if err := f.Delete(gen.Next()); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteIntent(gen.Next()); err != nil {
		t.Fatal(err)
	}
	if f.head().size != before {
		t.Error("deleting what is absent wrote to the log")
	}
	if err := f.DeleteIntent(intent.Object); err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, f, "after Put, stale Put, Delete")
	if got, _ := f.Stat(recs[2].Object); got.Version != 3 {
		t.Errorf("rejected stale Put left Stat at v%d, want 3", got.Version)
	}
	if got, _ := f.Stat(promoted.Object); got.Backup {
		t.Error("promoted record still marked backup")
	}
	if _, ok := f.Stat(recs[3].Object); ok {
		t.Error("deleted record still listed")
	}
	if _, err := f.Get(recs[3].Object); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of deleted record: %v", err)
	}

	// After a deletion, any version may be put again; replay keeps log
	// order, not version order.
	again := recs[3]
	again.Version = 1
	if err := f.Put(again); err != nil {
		t.Fatal(err)
	}
	f, err = NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, f, "after reopen")
	if got, _ := f.Stat(again.Object); got.Version != 1 {
		t.Errorf("re-put record after reopen at v%d, want 1", got.Version)
	}
}

// TestFileFailedPutLeavesDirectory: a batch whose fsync fails is cut off
// the log, every Put in it fails, and the directory is unchanged; the
// next Put appends where the log ended before.
func TestFileFailedPutLeavesDirectory(t *testing.T) {
	dir := t.TempDir()
	f, fl := openFaulty(t, dir)
	rec := sampleRec(1)
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	end := f.head().size
	injected := errors.New("injected fsync failure")
	failOn(fl, injected, "sync")
	next := rec
	next.Version = 2
	if err := f.Put(next); !errors.Is(err, injected) {
		t.Fatalf("Put with a failing fsync: %v", err)
	}
	other := sampleRec(1)
	if err := f.Put(other); !errors.Is(err, injected) {
		t.Fatalf("first Put with a failing fsync: %v", err)
	}
	if err := f.Delete(rec.Object); !errors.Is(err, injected) {
		t.Fatalf("Delete with a failing fsync: %v", err)
	}
	fl.trigger = nil
	if got, ok := f.Stat(rec.Object); !ok || got.Version != 1 {
		t.Errorf("Stat after failed Put = %+v, %v; want v1", got, ok)
	}
	if _, ok := f.Stat(other.Object); ok {
		t.Error("a failed Put entered the directory")
	}
	if info, err := os.Stat(f.segmentPath(f.head().num)); err != nil || info.Size() != end {
		t.Errorf("segment after failed Puts: %v, %v; want %d bytes", info.Size(), err, end)
	}
	checkDirectory(t, f, "after failed Puts")
	if err := f.Put(next); err != nil {
		t.Fatalf("Put after the failure: %v", err)
	}
	if at := recordAt(t, f, next.Object); at.off != end {
		t.Errorf("Put after the failure landed at %d, want the clean tail %d", at.off, end)
	}
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, f, "after reopen")
}

// TestFileFailedCutRefusesWrites: a failed batch that cannot be cut off
// leaves the log's end unknown, so the store takes no more writes; reads
// of what was durable before go on. A reopen finds whatever reached the
// disk: the failed Put's outcome is unknown, as a failed fsync's is.
func TestFileFailedCutRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	f, fl := openFaulty(t, dir)
	f.segSize = 1 // every batch seals its segment
	rec := sampleRec(1)
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	failOn(fl, errors.New("injected failure"), "sync", "truncate") // the cut fails too
	if err := f.Put(sampleRec(1)); err == nil {
		t.Fatal("Put with a failing fsync succeeded")
	}
	fl.trigger = nil
	if err := f.Put(sampleRec(1)); !errors.Is(err, ErrFailed) {
		t.Errorf("Put after a failed cut: %v, want ErrFailed", err)
	}
	if err := f.PutIntent(MoveIntent{Object: rec.Object, Dest: 2, Epoch: 2}); !errors.Is(err, ErrFailed) {
		t.Errorf("PutIntent after a failed cut: %v, want ErrFailed", err)
	}
	if got, err := f.Get(rec.Object); err != nil || !bytes.Equal(got.Rep, rec.Rep) {
		t.Errorf("Get after a failed cut: %v", err)
	}
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Stat(rec.Object); !ok {
		t.Error("acknowledged record lost")
	}
	checkDirectory(t, f, "after reopen")
}

// TestFileGetReadsTheRecordOnce: the directory holds each record's frame
// — from Put, and from the open pass — and Get reads exactly that frame
// in one read into one buffer, which it hands over whole. A frame damaged
// or cut short behind the store's back is a media failure, not a record.
func TestFileGetReadsTheRecordOnce(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(1)
	rec.TypeName = strings.Repeat("t", 100)
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	path := f.segmentPath(f.head().num)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, reopen := range []bool{false, true} {
		if reopen {
			if f, err = NewFile(dir); err != nil {
				t.Fatal(err)
			}
		}
		if e := recordAt(t, f, rec.Object); e.off != 0 || int64(e.size) != info.Size() {
			t.Errorf("reopen=%v: directory says %d bytes at %d, the log holds %d", reopen, e.size, e.off, info.Size())
		}
		got, err := f.Get(rec.Object)
		if err != nil || !bytes.Equal(got.Rep, rec.Rep) || got.TypeName != rec.TypeName {
			t.Fatalf("reopen=%v: Get = %+v, %v", reopen, got, err)
		}
		if cap(got.Rep) != len(got.Rep) {
			t.Errorf("reopen=%v: Rep has cap %d, len %d", reopen, cap(got.Rep), len(got.Rep))
		}
	}
	// The buffer: the type name, read before, is the one returned then.
	// The one-file layout paid 6: the path, the open's file and name, the
	// buffer, the type name.
	if allocs := testing.AllocsPerRun(100, func() { _, _ = f.Get(rec.Object) }); allocs > 1 {
		t.Errorf("%.0f allocs per Get, want at most 1", allocs)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0xFF
	for name, b := range map[string][]byte{"damaged": flipped, "cut short": whole[:len(whole)-1]} {
		if err := writeRaw(path, b); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Get(rec.Object); !errors.Is(err, ErrFailed) {
			t.Errorf("%s record: Get err = %v, want ErrFailed", name, err)
		}
	}
}

// TestFileRefusesOldLayout: a directory holding a record or intent file
// of the one-file-per-record layout is refused, naming the file, rather
// than opened as an empty log.
func TestFileRefusesOldLayout(t *testing.T) {
	for _, name := range []string{fmt.Sprintf("%032x.ckp", gen.Next()), fmt.Sprintf("%032x.mvi", gen.Next())} {
		dir := t.TempDir()
		if err := writeFile(t, dir, name); err != nil {
			t.Fatal(err)
		}
		if _, err := NewFile(dir); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("open over %s: %v, want a refusal naming it", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
			t.Errorf("refused open over %s began a log: %v", name, err)
		}
	}
}
