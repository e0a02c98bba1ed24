package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	for _, rec := range []Record{a, b} {
		if err := f.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	torn := f.recs[b.Object].loc
	for _, cut := range []int64{torn.off + 3, torn.off + frameHeader, torn.off + int64(torn.size) - 1} {
		crashed := copyLog(t, dir, cut)
		g, err := NewFile(crashed)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if _, ok := g.Stat(b.Object); ok {
			t.Errorf("cut at %d: the torn record survived", cut)
		}
		if got, err := g.Get(a.Object); err != nil || !bytes.Equal(got.Rep, a.Rep) {
			t.Errorf("cut at %d: the record before the tear: %v", cut, err)
		}
		if info, err := os.Stat(g.segmentPath(1)); err != nil || info.Size() != torn.off {
			t.Errorf("cut at %d: segment is %d bytes after open, want %d", cut, info.Size(), torn.off)
		}
		c := sampleRec(1)
		if err := g.Put(c); err != nil {
			t.Fatal(err)
		}
		if at := g.recs[c.Object].loc; at.off != torn.off {
			t.Errorf("cut at %d: next Put at %d, want the clean tail %d", cut, at.off, torn.off)
		}
		g.Close()
		if g, err = NewFile(crashed); err != nil {
			t.Fatal(err)
		}
		checkDirectory(t, g, crashed, fmt.Sprintf("cut at %d, reopened", cut))
		g.Close()
	}
}

// TestFileGroupCommitDurablePrefix: a batch of several frames cut at any
// point opens to a prefix of it. Nothing acknowledged by an earlier batch
// is lost, and no frame appears without every frame before it.
func TestFileGroupCommitDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	start := f.recs[batch[0].Object].off
	if f.recs[batch[1].Object].off <= start {
		t.Fatal("the batch is not in queue order")
	}
	var cuts []int64
	for _, rec := range batch {
		at := f.recs[rec.Object].loc
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
			at := f.recs[rec.Object].loc
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
		checkDirectory(t, g, crashed, fmt.Sprintf("cut at %d", cut))
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
					at = f.recs[rec.Object].loc
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
// of the returned store seals that segment and compacts it.
func compactable(t *testing.T, dir string) *File {
	t.Helper()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	return f
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
	f := compactable(t, dir)
	var want string
	f.hooks.compacted = func() error {
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
	checkDirectory(t, f, dir, "after compaction")
	g, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, g); got != want {
		t.Errorf("reopened after compaction:\n%s\nwant\n%s", got, want)
	}
}

// TestFileCrashMidCompaction: a crash after the copies are durable but
// before the old segment is removed leaves both; reopen gives the same
// directory as before the compaction, and the next one finishes the job.
func TestFileCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	f := compactable(t, dir)
	var crashed, want string
	f.hooks.compacted = func() error {
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
	checkDirectory(t, g, crashed, "reopened mid-compaction")
	// The stopped store is only longer; its next seal compacts again.
	f.hooks.compacted = nil
	f.segSize = f.head().size + 1
	if err := f.Put(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if f.segs[0].num == 1 {
		t.Error("the next seal left the first segment")
	}
	checkDirectory(t, f, dir, "after the next seal")
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
	checkDirectory(t, f, dir, "after the load")
}

// ---- group commit ----

// TestFileGroupCommit: the Puts that arrive while one fsync runs share
// the next: eight Puts, the first held in its fsync, cost two.
func TestFileGroupCommit(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	if f, err = NewFile(dir); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := f.Get(rec.Object); err != nil {
			t.Errorf("after reopen: %v", err)
		}
	}
}

// TestFileStaleAgainstFramesInFlight: a Put is checked against the newest
// version accepted into the log, batches still being written included,
// so log order stays version order for each object.
func TestFileStaleAgainstFramesInFlight(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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

// TestFileGetNotBlockedByWriter: a Put held in its fsync holds nothing a
// reader needs.
func TestFileGetNotBlockedByWriter(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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

// TestFilePutAllocations: a write costs its queued frame and its batch's
// buffer, sized once — the one-file store's Put paid 13.
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
		{"Put", func() error { rec.Version++; return f.Put(rec) }, 2},
		{"PutIntent", func() error { return f.PutIntent(it) }, 2},
		{"PutIntent+DeleteIntent", func() error {
			if err := f.PutIntent(it); err != nil {
				return err
			}
			return f.DeleteIntent(it.Object)
		}, 4},
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
