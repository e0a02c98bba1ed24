package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/edenid"
)

// ---- the crash matrix ----

// TestFileTornTail: a crash inside the last write leaves a partial frame
// at the end of the last segment. Reopen drops exactly that frame, and
// the next Put appends at the clean tail.
func TestFileTornTail(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sampleRec(1), sampleRec(1)
	a.Level, a.Sites, a.Ex = 1, []uint32{3, 4}, []uint32{2} // the record before the tear carries a policy
	for _, rec := range []Record{a, b} {
		if err := f.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	torn := recordAt(t, f, b.Object)
	for _, cut := range []int64{torn.off + 3, torn.off + frameHeader, torn.off + int64(torn.size) - 1} {
		crashed := copyLog(t, dir, cut)
		g, err := NewFile(crashed)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if _, ok := g.Stat(b.Object); ok {
			t.Errorf("cut at %d: the torn record survived", cut)
		}
		if got, err := g.Get(a.Object); err != nil || !bytes.Equal(got.Rep, a.Rep) ||
			got.Level != a.Level || !slices.Equal(got.Sites, a.Sites) || !slices.Equal(got.Ex, a.Ex) {
			t.Errorf("cut at %d: the record before the tear: %+v, %v", cut, got, err)
		}
		if info, err := os.Stat(g.segmentPath(1)); err != nil || info.Size() != torn.off {
			t.Errorf("cut at %d: segment is %d bytes after open, want %d", cut, info.Size(), torn.off)
		}
		c := sampleRec(1)
		if err := g.Put(c); err != nil {
			t.Fatal(err)
		}
		if at := recordAt(t, g, c.Object); at.off != torn.off {
			t.Errorf("cut at %d: next Put at %d, want the clean tail %d", cut, at.off, torn.off)
		}
		g.Close()
		if g, err = NewFile(crashed); err != nil {
			t.Fatal(err)
		}
		checkDirectory(t, g, fmt.Sprintf("cut at %d, reopened", cut))
		g.Close()
	}
}

// TestFileForwardCommitCrash: a move's writes at its source — its record,
// the intent, the forward that replaces the record, the intent's deletion
// — cut by a crash inside each fsync in turn, and once not at all. The
// reopened log holds exactly the writes acknowledged before the crash:
// the record until the forward's fsync returned, the forward after.
func TestFileForwardCommitCrash(t *testing.T) {
	rec := sampleRec(3)
	it := MoveIntent{Object: rec.Object, Dest: 2, Epoch: 2}
	fwd := forwardOf(rec)
	steps := []func(f *File) error{
		func(f *File) error { return f.Put(rec) },
		func(f *File) error { return f.PutIntent(it) },
		func(f *File) error { return f.Put(fwd) },
		func(f *File) error { return f.DeleteIntent(rec.Object) },
	}
	for crash := 1; crash <= len(steps)+1; crash++ {
		fl := NewFaults(FaultConfig{Seed: int64(crash)})
		f, err := fl.Open("")
		if err != nil {
			t.Fatal(err)
		}
		crashAtSync(fl, int64(crash))
		acked := 0
		for _, step := range steps {
			if step(f) != nil {
				break
			}
			acked++
		}
		if acked != min(crash-1, len(steps)) {
			t.Fatalf("crash in fsync %d: %d writes acknowledged", crash, acked)
		}
		fl.trigger = nil
		fl.Crash()
		f.Close()
		g, err := f.Reopen()
		if err != nil {
			t.Fatalf("crash in fsync %d: reopen: %v", crash, err)
		}
		when := fmt.Sprintf("crash in fsync %d, reopened", crash)
		m, ok := g.Stat(rec.Object)
		switch {
		case acked == 0:
			if ok {
				t.Errorf("%s: Stat = %+v of a record never acknowledged", when, m)
			}
		case acked < 3:
			if got, err := g.Get(rec.Object); err != nil || got.Meta() != rec.Meta() || !bytes.Equal(got.Rep, rec.Rep) {
				t.Errorf("%s: Get = %+v, %v; want the record", when, got.Meta(), err)
			}
		default:
			wantForward(t, g, fwd, when)
		}
		its, err := g.ListIntents()
		if want := acked >= 2 && acked < 4; err != nil || (len(its) == 1 && its[0] == it) != want || len(its) > 1 {
			t.Errorf("%s: intents %+v, %v; want the intent: %v", when, its, err, want)
		}
		checkDirectory(t, g, when)
		g.Close()
	}
}

// TestFileTornForward: a crash inside the forward's write leaves part of
// its frame at the end of the log. Reopen drops it, and the record it was
// to replace reads as it was.
func TestFileTornForward(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(2)
	fwd := forwardOf(rec)
	for _, r := range []Record{rec, fwd} {
		if err := f.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	wantForward(t, f, fwd, "before the cut")
	torn := recordAt(t, f, rec.Object)
	f.Close()
	for _, cut := range []int64{torn.off + 3, torn.off + frameHeader, torn.off + int64(torn.size) - 1} {
		g, err := NewFile(copyLog(t, dir, cut))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got, err := g.Get(rec.Object); err != nil || got.Meta() != rec.Meta() || !bytes.Equal(got.Rep, rec.Rep) {
			t.Errorf("cut at %d: the record under the torn forward: %+v, %v", cut, got.Meta(), err)
		}
		checkDirectory(t, g, fmt.Sprintf("cut at %d", cut))
		g.Close()
	}
}

// TestFileGroupCommitDurablePrefix: a batch of several frames cut at any
// point opens to a prefix of it. Nothing acknowledged by an earlier batch
// is lost, and no frame appears without every frame before it.
func TestFileGroupCommitDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	f, _ := openFaulty(t, dir)
	acked := []Record{sampleRec(1), sampleRec(1)}
	for _, rec := range acked {
		if err := f.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	blocker := sampleRec(1)
	batch := []Record{sampleRec(1), sampleRec(2), sampleRec(3), sampleRec(4)}
	batch[1].Object = acked[0].Object // a newer version of an acknowledged record
	putBatch(t, f, blocker, batch)
	acked = append(acked, blocker)
	start := recordAt(t, f, batch[0].Object).off
	if recordAt(t, f, batch[1].Object).off <= start {
		t.Fatal("the batch is not in queue order")
	}
	var cuts []int64
	for _, rec := range batch {
		at := recordAt(t, f, rec.Object)
		cuts = append(cuts, at.off, at.off+int64(at.size)/2)
	}
	cuts = append(cuts, f.head().size)
	for _, cut := range cuts {
		crashed := copyLog(t, dir, cut)
		g, err := NewFile(crashed)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		for _, rec := range acked[1:] {
			if _, err := g.Get(rec.Object); err != nil {
				t.Errorf("cut at %d: acknowledged record lost: %v", cut, err)
			}
		}
		for _, rec := range batch {
			at := recordAt(t, f, rec.Object)
			got, err := g.Get(rec.Object)
			switch {
			case at.off+int64(at.size) <= cut:
				if err != nil || got.Version != rec.Version || !bytes.Equal(got.Rep, rec.Rep) {
					t.Errorf("cut at %d: whole frame of v%d reads v%d, %v", cut, rec.Version, got.Version, err)
				}
			case rec.Object == acked[0].Object:
				if err != nil || got.Version != acked[0].Version {
					t.Errorf("cut at %d: acknowledged v%d reads v%d, %v", cut, acked[0].Version, got.Version, err)
				}
			case !errors.Is(err, ErrNotFound):
				t.Errorf("cut at %d: cut frame of v%d survived: v%d, %v", cut, rec.Version, got.Version, err)
			}
		}
		checkDirectory(t, g, fmt.Sprintf("cut at %d", cut))
		g.Close()
	}
}

// TestFileSealedSegmentBadFrame: damage anywhere but the last segment's
// tail is not a tear — the segment was sealed after its fsync — so the
// open fails, naming the segment, rather than drop acknowledged records.
func TestFileSealedSegmentBadFrame(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, at loc)
	}{
		{"flipped byte", func(t *testing.T, dir string, at loc) {
			flipByte(t, segmentPathIn(dir, at.seg), at.off+int64(at.size)-1)
		}},
		{"cut short", func(t *testing.T, dir string, at loc) {
			if err := os.Truncate(segmentPathIn(dir, at.seg), at.off+int64(at.size)-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing segment", func(t *testing.T, dir string, at loc) {
			if err := os.Remove(segmentPathIn(dir, at.seg+1)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f, err := NewFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			f.segSize = 1 // every batch seals its segment
			var at loc
			for i := 0; i < 3; i++ {
				rec := sampleRec(1)
				if err := f.Put(rec); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					at = recordAt(t, f, rec.Object)
				}
			}
			f.Close()
			tc.damage(t, dir, at)
			_, err = NewFile(dir)
			if !errors.Is(err, ErrFailed) || !strings.Contains(err.Error(), segmentName(at.seg)) {
				t.Errorf("open = %v, want ErrFailed naming %s", err, segmentName(at.seg))
			}
		})
	}
}

func segmentPathIn(dir string, num uint32) string { return filepath.Join(dir, segmentName(num)) }

// compactable builds a log whose first segment is mostly dead: many
// versions of a, one of b, c put and deleted, and an intent. The next Put
// of the returned store seals that segment and compacts it. The store is
// opened through the returned fault layer.
func compactable(t *testing.T, dir string) (*File, *Faults) {
	t.Helper()
	f, fl := openFaulty(t, dir)
	a, b, c := sampleRec(1), sampleRec(1), sampleRec(1)
	for _, rec := range []Record{a, b, c} {
		if err := f.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint64(2); v <= 10; v++ {
		a.Version = v
		a.Rep = append([]byte(nil), a.Rep...)
		a.Rep[0] = byte(v)
		if err := f.Put(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Delete(c.Object); err != nil {
		t.Fatal(err)
	}
	if err := f.PutIntent(MoveIntent{Object: b.Object, Dest: 2, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	f.segSize = f.head().size + 1
	return f, fl
}

// snapshot is a store's answer to every question about its records and
// intents.
func snapshot(t *testing.T, f *File) string {
	t.Helper()
	var sb strings.Builder
	ids, err := f.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		rec, err := f.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%v %+v %x\n", id, rec.Meta(), rec.Rep)
	}
	its, err := f.ListIntents()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "%+v\n", its)
	return sb.String()
}

// TestFileCompaction: when a segment fills and the log holds more dead
// bytes than live, the oldest segment's live frames move to the head and
// the segment goes; the directory, reopened or not, says what it said.
func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	f, fl := compactable(t, dir)
	var want string
	fl.trigger = func(op string) error {
		if op != "remove" {
			return nil
		}
		if segs := segmentFiles(t, dir); len(segs) != 2 {
			t.Errorf("%d segment files mid-compaction, want 2", len(segs))
		}
		want = snapshot(t, f)
		return nil
	}
	if err := f.Put(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, f); got != want {
		t.Errorf("after compaction:\n%s\nwant\n%s", got, want)
	}
	if segs := segmentFiles(t, dir); len(segs) != 1 || f.segs[0].num != 2 {
		t.Fatalf("segments after compaction: %v", segs)
	}
	if head := f.head(); head.size != head.live {
		t.Errorf("compacted head holds %d bytes, %d of them live", head.size, head.live)
	}
	checkDirectory(t, f, "after compaction")
	g, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, g); got != want {
		t.Errorf("reopened after compaction:\n%s\nwant\n%s", got, want)
	}
}

// TestFileCompactionKeepsAForward: a forward is its object's live entry,
// so compaction copies it out of the segment it removes, as it copies a
// record; the directory, reopened or not, answers the forward.
func TestFileCompactionKeepsAForward(t *testing.T) {
	dir := t.TempDir()
	f, _ := compactable(t, dir)
	rec := sampleRec(4)
	fwd := forwardOf(rec)
	f.segSize = segmentSize
	for _, r := range []Record{rec, fwd} {
		if err := f.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	f.segSize = f.head().size + 1
	if err := f.Put(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if f.segs[0].num == 1 {
		t.Fatal("no compaction ran")
	}
	if at := recordAt(t, f, fwd.Object); at.seg == 1 {
		t.Fatal("the forward still points into the removed segment")
	}
	wantForward(t, f, fwd, "after compaction")
	checkDirectory(t, f, "after compaction")
	f.Close()
	g, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	wantForward(t, g, fwd, "reopened after compaction")
	checkDirectory(t, g, "reopened after compaction")
}

// TestFileCrashMidCompaction: a crash after the copies are durable but
// before the old segment is removed leaves both; reopen gives the same
// directory as before the compaction, and the next one finishes the job.
// A running store whose compaction failed before it repointed the
// directory is only longer, and its next seal compacts again.
func TestFileCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	f, fl := compactable(t, dir)
	var crashed, want string
	fl.trigger = func(op string) error {
		if op != "remove" {
			return nil
		}
		crashed, want = copyLog(t, dir, -1), snapshot(t, f)
		return errors.New("crash")
	}
	if err := f.Put(sampleRec(1)); err != nil {
		t.Fatalf("the Put whose batch filled the segment: %v", err)
	}
	if crashed == "" {
		t.Fatal("no compaction ran")
	}
	if n := len(segmentFiles(t, crashed)); n != 2 {
		t.Fatalf("%d segments at the crash, want the old one and the head", n)
	}
	g, err := NewFile(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, g); got != want {
		t.Errorf("reopened mid-compaction:\n%s\nwant\n%s", got, want)
	}
	checkDirectory(t, g, "reopened mid-compaction")
	// The reopened log is only longer; its next seal compacts again.
	g.segSize = g.head().size + 1
	if err := g.Put(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if g.segs[0].num == 1 {
		t.Error("the next seal left the first segment")
	}
	checkDirectory(t, g, "after the next seal")

	// The compaction's fsync, the second of the Put, fails: the copies
	// are cut off and the directory still points at the first segment.
	dir = t.TempDir()
	f, fl = compactable(t, dir)
	syncs := 0
	fl.trigger = func(op string) error {
		if op == "sync" {
			if syncs++; syncs == 2 {
				return errors.New("fsync failed")
			}
		}
		return nil
	}
	if err := f.Put(sampleRec(1)); err != nil {
		t.Fatalf("the Put whose batch filled the segment: %v", err)
	}
	if syncs < 2 {
		t.Fatal("no compaction ran")
	}
	if f.segs[0].num != 1 {
		t.Fatal("a compaction whose fsync failed dropped the first segment")
	}
	checkDirectory(t, f, "after the failed compaction")
	fl.trigger = nil
	f.segSize = f.head().size + 1
	if err := f.Put(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if f.segs[0].num == 1 {
		t.Error("the next seal left the first segment")
	}
	checkDirectory(t, f, "after the next seal")
}

// TestFileCompactionUnderLoad: Gets, Stats and Puts from several
// goroutines while small segments seal and compact under them. Every Get
// returns the newest record its Put had acknowledged or a newer one.
func TestFileCompactionUnderLoad(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	f.segSize = 4 << 10
	const writers, versions = 4, 60
	ids := make([]edenid.ID, writers)
	for i := range ids {
		ids[i] = gen.Next()
	}
	var acked [writers]uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for v := uint64(1); v <= versions; v++ {
				rec := sampleRec(v)
				rec.Object = ids[w]
				rec.Rep = append(rec.Rep, byte(v))
				if err := f.Put(rec); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				mu.Lock()
				acked[w] = v
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 4*versions; i++ {
				mu.Lock()
				floor := acked[w]
				mu.Unlock()
				rec, err := f.Get(ids[w])
				if floor == 0 && errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil || rec.Version < floor || rec.Rep[len(rec.Rep)-1] != byte(rec.Version) {
					t.Errorf("Get = v%d, %v; acknowledged v%d", rec.Version, err, floor)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(segmentFiles(t, dir)); n > 4 {
		t.Errorf("%d segments hold %d live records", n, writers)
	}
	checkDirectory(t, f, "after the load")
}

// ---- group commit ----

// TestFileGroupCommit: the Puts that arrive while one fsync runs share
// the next: eight Puts, the first held in its fsync, cost two.
func TestFileGroupCommit(t *testing.T) {
	dir := t.TempDir()
	f, _ := openFaulty(t, dir)
	g := holdFirstSync(f)
	recs := make([]Record, 8)
	errs := make(chan error, len(recs))
	for i := range recs {
		recs[i] = sampleRec(1)
		go func() { errs <- f.Put(recs[i]) }()
	}
	<-g.entered
	waitQueued(t, f, len(recs)-1)
	close(g.release)
	for range recs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := f.fsyncs.Load(); n != 2 {
		t.Errorf("%d fsyncs for %d Puts, want 2", n, len(recs))
	}
	f.Close()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := f.Get(rec.Object); err != nil {
			t.Errorf("after reopen: %v", err)
		}
	}
}

// TestFileFramesReusedUnderConcurrentAppenders: writers racing on four
// objects — Puts, Deletes and intents of the same ids, admitted against
// each other's frames in flight, over short segments that seal and
// compact — share the free frames and the leader's buffer. Every write
// succeeds or is stale; afterwards each record reads whole, the directory
// is a replay of the log, and the free list holds at most one zeroed
// frame per writer.
func TestFileFramesReusedUnderConcurrentAppenders(t *testing.T) {
	const writers, perWriter = 6, 300
	f, err := NewFile("")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.segSize = 4 << 10
	ids := make([]edenid.ID, 4)
	versions := make([]atomic.Uint64, len(ids))
	for i := range ids {
		ids[i] = gen.Next()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(1981, uint64(w)))
			for n := 0; n < perWriter; n++ {
				i := rng.IntN(len(ids))
				var err error
				switch rng.IntN(4) {
				case 0, 1:
					err = f.Put(loopRec(ids[i], versions[i].Add(1)))
				case 2:
					err = f.Delete(ids[i])
				default:
					if rng.IntN(2) == 0 {
						err = f.PutIntent(MoveIntent{Object: ids[i], Dest: uint32(w), Epoch: uint64(n)})
					} else {
						err = f.DeleteIntent(ids[i])
					}
				}
				if err != nil && !errors.Is(err, ErrStale) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, id := range ids {
		if got, err := f.Get(id); err == nil && !bytes.Equal(got.Rep, loopRec(id, got.Version).Rep) {
			t.Errorf("v%d of %v does not read whole", got.Version, id)
		} else if err != nil && !errors.Is(err, ErrNotFound) {
			t.Error(err)
		}
	}
	checkDirectory(t, f, "after the writers")
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) > writers {
		t.Errorf("%d free frames for %d writers", len(f.free), writers)
	}
	for _, p := range f.free {
		if !reflect.DeepEqual(*p, pending{}) {
			t.Errorf("a free frame holds %+v", *p)
		}
	}
}

// TestFileStaleAgainstFramesInFlight: a Put is checked against the newest
// version accepted into the log, batches still being written included,
// so log order stays version order for each object.
func TestFileStaleAgainstFramesInFlight(t *testing.T) {
	f, _ := openFaulty(t, t.TempDir())
	rec := sampleRec(1)
	g := holdFirstSync(f)
	errs := make(chan error, 4)
	go func() { errs <- f.Put(rec) }()
	<-g.entered
	if err := f.Put(rec); !errors.Is(err, ErrStale) {
		t.Errorf("a Put of the version being written: %v, want ErrStale", err)
	}
	next := rec
	next.Version = 2
	go func() { errs <- f.Put(next) }()
	waitQueued(t, f, 1)
	if err := f.Put(next); !errors.Is(err, ErrStale) {
		t.Errorf("a Put of the version queued: %v, want ErrStale", err)
	}
	go func() { errs <- f.Delete(rec.Object) }()
	waitQueued(t, f, 2)
	go func() { errs <- f.Put(rec) }() // after the queued Delete, v1 is new again
	waitQueued(t, f, 3)
	close(g.release)
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := f.Stat(rec.Object); !ok || got.Version != 1 {
		t.Errorf("after Put v1, Put v2, Delete, Put v1: %+v, %v", got, ok)
	}
}

// TestFileDeleteBehindFailedDelete: a deletion of an object whose
// deletion is still being written is not acknowledged before that one is
// durable. When the first fails, so does the second, and the object is
// still there; a second deletion that returned at once would have been
// acknowledged for a record the log still holds.
func TestFileDeleteBehindFailedDelete(t *testing.T) {
	f, fl := openFaulty(t, t.TempDir())
	rec := sampleRec(1)
	it := MoveIntent{Object: rec.Object, Dest: 2, Epoch: 2}
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.PutIntent(it); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	fl.trigger = func(op string) error {
		if op == "sync" && first.CompareAndSwap(false, true) {
			close(entered)
			<-release
			return errors.New("the fsync fails")
		}
		return nil
	}
	errs := make(chan error, 4)
	go func() { errs <- f.Delete(rec.Object) }()
	<-entered
	go func() { errs <- f.DeleteIntent(it.Object) }()
	waitQueued(t, f, 1)
	go func() { errs <- f.Delete(rec.Object) }()
	waitQueued(t, f, 2)
	go func() { errs <- f.DeleteIntent(it.Object) }()
	waitQueued(t, f, 3)
	close(release)
	for range 4 {
		if err := <-errs; err == nil {
			t.Error("a deletion behind a failed one was acknowledged")
		}
	}
	fl.trigger = nil
	if _, ok := f.Stat(rec.Object); !ok {
		t.Error("the record is gone")
	}
	if its, err := f.ListIntents(); err != nil || len(its) != 1 {
		t.Errorf("intents %v, %v; want the one written", its, err)
	}
	checkDirectory(t, f, "after the failed deletions")
}

// TestFileGetNotBlockedByWriter: a Put held in its fsync holds nothing a
// reader needs.
func TestFileGetNotBlockedByWriter(t *testing.T) {
	f, _ := openFaulty(t, t.TempDir())
	rec := sampleRec(1)
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	g := holdFirstSync(f)
	put := make(chan error, 1)
	go func() { put <- f.Put(sampleRec(1)) }()
	<-g.entered
	read := make(chan error, 1)
	go func() {
		_, err := f.Get(rec.Object)
		if _, ok := f.Stat(rec.Object); !ok && err == nil {
			err = errors.New("Stat missed the record")
		}
		if _, lerr := f.List(); err == nil {
			err = lerr
		}
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Get waited for a writer's fsync")
	}
	close(g.release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
}

// TestFilePutAllocations: a write allocates nothing once the log has
// made its first batches: its queued frame comes from the free list, and
// its batch is laid out in the leader's buffer. It cost the frame and
// the batch's buffer before they were reused, and the one-file store's
// Put 13.
func TestFilePutAllocations(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(1)
	rec.Rep = make([]byte, 1100)
	it := MoveIntent{Object: rec.Object, Dest: 2, Epoch: 2}
	for _, tc := range []struct {
		name  string
		write func() error
		want  float64
	}{
		{"Put", func() error { rec.Version++; return f.Put(rec) }, 0},
		{"PutIntent", func() error { return f.PutIntent(it) }, 0},
		{"PutIntent+DeleteIntent", func() error {
			if err := f.PutIntent(it); err != nil {
				return err
			}
			return f.DeleteIntent(it.Object)
		}, 0},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if werr := tc.write(); werr != nil {
				err = werr
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs > tc.want {
			t.Errorf("%s: %.0f allocations, want at most %.0f", tc.name, allocs, tc.want)
		}
	}
}

// TestFileLetsGoOfALargeRecord: the log holds nothing of a record once
// its Put has returned — not the frame, which goes back to the free list
// zeroed, nor the batch's buffer, which is kept for the next batch only
// up to maxBatchBuffer. So collecting after a Put of a 1 MiB record, and
// again after small ones follow it, leaves the heap within 256 KiB of
// where it was before. The log is on disk, so the medium holds no bytes
// in the heap.
func TestFileLetsGoOfALargeRecord(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	small := sampleRec(1)
	if err := f.Put(small); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	putLarge := func() error {
		rec := sampleRec(1)
		rec.Rep = make([]byte, 1<<20)
		return f.Put(rec)
	}
	before := heap()
	if err := putLarge(); err != nil {
		t.Fatal(err)
	}
	const slack = 256 << 10
	if held := heap() - before; held > slack {
		t.Errorf("after a Put of 1 MiB the heap holds %d B more than before it", held)
	}
	for v := uint64(2); v < 10; v++ {
		small.Version = v
		if err := f.Put(small); err != nil {
			t.Fatal(err)
		}
	}
	if held := heap() - before; held > slack {
		t.Errorf("after a Put of 1 MiB and 8 small ones the heap holds %d B more than before them", held)
	}
}

// ---- Close ----

// TestFileCloseReleasesDescriptors: opening and closing a store leaves no
// file descriptor behind.
func TestFileCloseReleasesDescriptors(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd")
	}
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before := fds()
	for i := 0; i < 1000; i++ {
		f, err := NewFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := fds(); after > before {
		t.Errorf("%d descriptors open after 1000 opens and closes, %d before", after, before)
	}
}

func TestFileClosedRefusesEverything(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(1)
	if err := f.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, getErr := f.Get(rec.Object)
	_, listErr := f.List()
	_, intentsErr := f.ListIntents()
	for name, err := range map[string]error{
		"Put":          f.Put(sampleRec(1)),
		"Get":          getErr,
		"Delete":       f.Delete(rec.Object),
		"List":         listErr,
		"PutIntent":    f.PutIntent(MoveIntent{Object: rec.Object}),
		"DeleteIntent": f.DeleteIntent(rec.Object),
		"ListIntents":  intentsErr,
		"Close":        f.Close(),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
	if _, ok := f.Stat(rec.Object); ok {
		t.Error("Stat after Close found a record")
	}
}

// ---- benchmarks ----

// BenchmarkFilePutParallel puts distinct records from parallel writers;
// fsyncs/op below 1 is group commit at work.
func BenchmarkFilePutParallel(b *testing.B) {
	f, err := NewFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rec := sampleRec(1)
		for pb.Next() {
			rec.Object = gen.Next()
			if err := f.Put(rec); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(f.fsyncs.Load())/float64(b.N), "fsyncs/op")
}

// BenchmarkFileStat looks objects up in a store of 10⁴ records from
// parallel goroutines, half of them objects the store does not hold: the
// directory's read path, which Stat, Get and every Put's staleness check
// take.
func BenchmarkFileStat(b *testing.B) {
	dir, ids := writeLog(b, 10_000)
	f, err := NewFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	keys := make([]edenid.ID, 0, 2*len(ids))
	for _, id := range ids {
		if _, ok := f.Stat(id); !ok {
			b.Fatalf("no record of %v", id)
		}
		miss := gen.Next()
		if _, ok := f.Stat(miss); ok {
			b.Fatalf("a record of %v, never written", miss)
		}
		keys = append(keys, id, miss)
	}
	rand.New(rand.NewPCG(1981, 0)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var start, hits atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i, n := int(start.Add(1))*7919, int64(0)
		for pb.Next() {
			if _, ok := f.Stat(keys[i%len(keys)]); ok {
				n++
			}
			i++
		}
		hits.Add(n)
	})
	b.ReportMetric(float64(hits.Load())/float64(b.N), "hits/op")
}

// BenchmarkFileOpen opens a log of 10⁴ records: the restart scan.
func BenchmarkFileOpen(b *testing.B) {
	dir := b.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	recs := make(chan Record)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range recs {
				if err := f.Put(rec); err != nil {
					b.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 10_000; i++ {
		recs <- sampleRec(1)
	}
	close(recs)
	wg.Wait()
	f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := NewFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}
