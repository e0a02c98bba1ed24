package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eden/internal/edenid"
)

// ---- Stat, on both stores ----

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
	})
}

func TestMemoryStatDuringFailure(t *testing.T) {
	m := NewMemory()
	rec := sampleRec(1)
	if err := m.Put(rec); err != nil {
		t.Fatal(err)
	}
	m.FailWith(ErrFailed)
	if _, ok := m.Stat(rec.Object); ok {
		t.Error("Stat found a record Get cannot return")
	}
	m.FailWith(nil)
	if _, ok := m.Stat(rec.Object); !ok {
		t.Error("Stat lost the record after the medium healed")
	}
}

// ---- the file store's directory ----

// diskState reads every record file under dir in full, the way the
// store did before it kept a directory.
func diskState(t *testing.T, dir string) map[edenid.ID]dirEntry {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk := make(map[edenid.ID]dirEntry)
	for _, e := range entries {
		if filepath.Ext(e.Name()) != recExt {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		disk[rec.Object] = dirEntry{meta: rec.Meta(), size: len(b)}
	}
	return disk
}

// checkDirectory asserts the invariant: the directory is exactly the
// durable state.
func checkDirectory(t *testing.T, f *File, dir, when string) {
	t.Helper()
	disk := diskState(t, dir)
	f.dirMu.Lock()
	defer f.dirMu.Unlock()
	if len(f.recs) != len(disk) {
		t.Errorf("%s: directory lists %d records, disk holds %d", when, len(f.recs), len(disk))
	}
	for id, want := range disk {
		if got, ok := f.recs[id]; !ok || got != want {
			t.Errorf("%s: directory says %+v (%v) for %v, disk says %+v", when, got, ok, id, want)
		}
	}
}

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
	checkDirectory(t, f, dir, "after Puts")

	// Opened on a populated directory, backup markers and homes included.
	f, err = NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, f, dir, "after open")
	if got, ok := f.Stat(recs[1].Object); !ok || !got.Backup || got.Home != 11 || got.Version != 2 {
		t.Errorf("backup record after open: %+v, %v", got, ok)
	}
	ids, err := f.List()
	if err != nil || len(ids) != len(recs) {
		t.Errorf("List after open: %d ids, %v", len(ids), err)
	}

	// A newer version, a rejected stale one, a promotion, a deletion.
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
	checkDirectory(t, f, dir, "after Put, stale Put, Delete")
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

	f, err = NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, f, dir, "after reopen")
}

// TestFileFailedPutLeavesDirectory: the directory changes only after the
// Rename. A Put that fails earlier — here because the directory is
// briefly gone, so CreateTemp fails — leaves it at the old version, and
// so in step with the disk.
func TestFileFailedPutLeavesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(1)
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	away := dir + ".away"
	if err := os.Rename(dir, away); err != nil {
		t.Fatal(err)
	}
	next := rec
	next.Version = 2
	if err := f.Put(next); err == nil {
		t.Fatal("Put into a missing directory succeeded")
	}
	if err := f.Put(sampleRec(1)); err == nil {
		t.Fatal("first Put into a missing directory succeeded")
	}
	if err := os.Rename(away, dir); err != nil {
		t.Fatal(err)
	}
	if got, ok := f.Stat(rec.Object); !ok || got.Version != 1 {
		t.Errorf("Stat after failed Put = %+v, %v; want v1", got, ok)
	}
	checkDirectory(t, f, dir, "after failed Puts")
	if err := f.Put(next); err != nil {
		t.Errorf("Put after the failure: %v", err)
	}
}

// TestFileFailedRenameLeavesDirectory: the same at the last step — the
// record's name is taken by a directory, so the Rename itself fails. No
// entry appears and no temp file is left.
func TestFileFailedRenameLeavesDirectory(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(1)
	squatter := f.path(rec.Object, recExt)
	if err := os.MkdirAll(filepath.Join(squatter, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Put(rec); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	if _, ok := f.Stat(rec.Object); ok {
		t.Error("failed Put entered the directory")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("%d entries after failed Put, want the squatter alone", len(entries))
	}
}

// TestFileOpenRemovesOrphanTemps: a crash between CreateTemp and Rename
// leaves a temp file nothing else would ever remove; opening the store
// does, and touches nothing else.
func TestFileOpenRemovesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(2)
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	intent := MoveIntent{Object: rec.Object, Dest: 4, Epoch: 2}
	if err := f.PutIntent(intent); err != nil {
		t.Fatal(err)
	}
	half := encodeRecord(sampleRec(3))
	orphans := []string{recTmp + "1234567", intentTmp + "7654321"}
	for _, name := range orphans {
		if err := writeRaw(filepath.Join(dir, name), half[:len(half)/2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeFile(t, dir, "README"); err != nil { // not ours: stays
		t.Fatal(err)
	}

	f, err = NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the open: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Errorf("foreign file removed: %v", err)
	}
	checkDirectory(t, f, dir, "after open")
	got, err := f.Get(rec.Object)
	if err != nil || got.Version != 2 || string(got.Rep) != string(rec.Rep) {
		t.Errorf("record after open: %+v, %v", got, err)
	}
	its, err := f.ListIntents()
	if err != nil || len(its) != 1 || its[0] != intent {
		t.Errorf("intents after open: %v, %v", its, err)
	}
}

// TestFileOpenSkipsUnreadableHeaders: a file that is not a record of the
// object its name claims is not in the directory, as Get would not
// return it.
func TestFileOpenSkipsUnreadableHeaders(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, other := sampleRec(1), sampleRec(1)
	if err := f.Put(good); err != nil {
		t.Fatal(err)
	}
	junk, misnamed := gen.Next(), gen.Next()
	if err := writeRaw(f.path(junk, recExt), []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := writeRaw(f.path(misnamed, recExt), encodeRecord(other)); err != nil {
		t.Fatal(err)
	}
	f, err = NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []edenid.ID{junk, misnamed, other.Object} {
		if _, ok := f.Stat(id); ok {
			t.Errorf("Stat lists %v", id)
		}
		if _, err := f.Get(id); err == nil {
			t.Errorf("Get returns %v", id)
		}
	}
	if ids, _ := f.List(); len(ids) != 1 || ids[0] != good.Object {
		t.Errorf("List = %v, want the one good record", ids)
	}
}

// TestFilePathOneAllocation pins the file name's form and its cost.
func TestFilePathOneAllocation(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir + string(filepath.Separator)) // a trailing separator changes nothing
	if err != nil {
		t.Fatal(err)
	}
	id := gen.Next()
	for _, ext := range []string{recExt, intentExt} {
		if got, want := f.path(id, ext), filepath.Join(dir, fmt.Sprintf("%032x%s", id[:], ext)); got != want {
			t.Errorf("path = %q, want %q", got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = f.path(id, recExt) }); n > 1 {
		t.Errorf("path costs %.0f allocations, want 1", n)
	}
}

// TestFileGetReadsTheRecordOnce: the directory holds each record file's
// length — from Put, and from the open pass — and Get reads the file in
// one read into one buffer of that length, which it hands over whole: no
// fstat, no buffer grown past the record. A file whose length is not the
// directory's — truncated or extended behind the store's back — is a
// media failure, not a record.
func TestFileGetReadsTheRecordOnce(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(1)
	rec.TypeName = strings.Repeat("t", 100) // past the open pass's first read
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	path := f.path(rec.Object, recExt)
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
		if e, _ := f.entry(rec.Object); int64(e.size) != info.Size() {
			t.Errorf("reopen=%v: directory length %d, file %d", reopen, e.size, info.Size())
		}
		got, err := f.Get(rec.Object)
		if err != nil || !bytes.Equal(got.Rep, rec.Rep) || got.TypeName != rec.TypeName {
			t.Fatalf("reopen=%v: Get = %+v, %v", reopen, got, err)
		}
		if cap(got.Rep) != len(got.Rep) {
			t.Errorf("reopen=%v: Rep has cap %d, len %d", reopen, cap(got.Rep), len(got.Rep))
		}
	}
	// The path, the open (its name and its file), the buffer, the type
	// name: 6. os.ReadFile paid a seventh for its fstat, and sized its
	// buffer at no less than 512 bytes, whatever the record's length.
	if allocs := testing.AllocsPerRun(100, func() { _, _ = f.Get(rec.Object) }); allocs > 6 {
		t.Errorf("%.0f allocs per Get, want at most 6", allocs)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"truncated": whole[:len(whole)-1], "extended": append(whole, 0)} {
		if err := writeRaw(path, b); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Get(rec.Object); !errors.Is(err, ErrFailed) {
			t.Errorf("%s record file: Get err = %v, want ErrFailed", name, err)
		}
	}
}
