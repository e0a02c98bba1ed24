package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"eden/internal/edenid"
)

// FuzzFileOpen opens arbitrary bytes as a log of one to three segments on
// the in-memory medium: the bytes a crash, a torn write or a bad disk may
// leave. The open fails with ErrFailed, or it succeeds; then the
// directory is what a replay of what the open left gives, and every Get
// decodes or fails with ErrFailed. Nothing panics.
func FuzzFileOpen(f *testing.F) {
	for _, seed := range crashSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m := medium("").(*memFS)
		for i, seg := range splitSegments(in) {
			mf := new(memFile)
			mf.data.writeAt(seg, 0)
			mf.durable = int64(len(mf.data))
			m.files[segmentName(uint32(i+1))] = mf
		}
		g, err := openFile("", m)
		if err != nil {
			if !errors.Is(err, ErrFailed) {
				t.Fatalf("open = %v, want success or ErrFailed", err)
			}
			return
		}
		defer g.Close()
		for id, want := range checkReplay(t, g, "after open") {
			got, err := g.Get(id)
			switch {
			case want.Forward:
				if !errors.Is(err, ErrNotFound) {
					t.Errorf("Get(%v) of a forward = %+v, %v; want ErrNotFound", id, got.Meta(), err)
				}
			case err == nil && got.Meta() != want:
				t.Errorf("Get(%v) = %+v, want %+v", id, got.Meta(), want)
			case err != nil && !errors.Is(err, ErrFailed):
				t.Errorf("Get(%v) = %v, want a record or ErrFailed", id, err)
			}
		}
	})
}

// splitSegments cuts a fuzz input into segment files: its first byte
// says one, two or three, and each but the last is as long as the two
// bytes before it say, as far as the input goes. An empty input is no
// segment at all.
func splitSegments(in []byte) [][]byte {
	if len(in) == 0 {
		return nil
	}
	k := 1 + int(in[0])%3
	in = in[1:]
	var segs [][]byte
	for len(segs) < k-1 && len(in) >= 2 {
		n := min(int(binary.BigEndian.Uint16(in)), len(in)-2)
		segs = append(segs, in[2:2+n])
		in = in[2+n:]
	}
	return append(segs, in)
}

// joinSegments is splitSegments' inverse.
func joinSegments(segs [][]byte) []byte {
	in := []byte{byte(len(segs) - 1)}
	for _, seg := range segs[:len(segs)-1] {
		in = binary.BigEndian.AppendUint16(in, uint16(len(seg)))
		in = append(in, seg...)
	}
	return append(in, segs[len(segs)-1]...)
}

// crashSeeds are the crash matrix's logs as fuzz inputs: a log of records
// (one with a checksite policy), intents and tombstones over sealed and compacted segments, whole; its
// last segment torn inside each frame's header and body; and its first
// segment, sealed, with a byte flipped and cut one byte short.
func crashSeeds(tb testing.TB) [][]byte {
	f, err := NewFile("")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	f.segSize = 300 // three segments, the first compacted away and renumbered
	a, b, c, d := sampleRec(1), sampleRec(1), sampleRec(1), sampleRec(1)
	// A backup that carries its object's checksite policy.
	b.Backup, b.Home, b.Level, b.Sites, b.Ex = true, 4, 2, []uint32{3, 5}, []uint32{2}
	// A record a forward replaces, and a forward with no record before it.
	e := forwardOf(sampleRec(2))
	for _, rec := range []Record{a, b, c, d, forwardOf(d), e} {
		if err := f.Put(rec); err != nil {
			tb.Fatal(err)
		}
	}
	for v := uint64(2); v <= 8; v++ {
		a.Version = v
		if err := f.Put(a); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.PutIntent(MoveIntent{Object: b.Object, Dest: 2, Epoch: 2}); err != nil {
		tb.Fatal(err)
	}
	if err := f.Delete(c.Object); err != nil {
		tb.Fatal(err)
	}
	a.Version++
	if err := f.Put(a); err != nil {
		tb.Fatal(err)
	}
	segs := segmentBytes(tb, f)
	segs = segs[:min(len(segs), 3)]
	seeds := [][]byte{{}, joinSegments(segs)}
	last := len(segs) - 1
	tail := segs[last]
	for off := 0; off < len(tail); off += frameHeader + int(binary.BigEndian.Uint32(tail[off:])) {
		for _, cut := range []int{off + 3, off + frameHeader, off + frameHeader + 10} {
			torn := slices.Clone(segs)
			torn[last] = tail[:min(cut, len(tail))]
			seeds = append(seeds, joinSegments(torn))
		}
	}
	if last > 0 {
		flipped, short := slices.Clone(segs), slices.Clone(segs)
		flipped[0] = slices.Clone(segs[0])
		flipped[0][len(flipped[0])-1] ^= 0xFF
		short[0] = segs[0][:len(segs[0])-1]
		seeds = append(seeds, joinSegments(flipped), joinSegments(short))
	}
	return seeds
}

// FuzzFileCrash runs a short program of writes on a log in memory, under
// a fault layer that dies inside one of the program's fsyncs, then
// reopens the log twice. The input is three bytes, then two for each
// operation:
//
//	crash | tear | segment | (op | arg)...
//
// crash names the fsync the layer dies in (0: none; the program runs to
// its end). tear seeds the layer, which draws whether the batch being
// synced is lost whole or torn, and where. segment sets the length at
// which the head is sealed, short enough that segments seal and compact
// under the program. Of op, the low three bits are the kind (opKinds),
// the next two the object, one of four, the next one makes a Put of the
// first three kinds a forward, and the top bit says that the operation
// joins the batch before it: it is queued while that batch's fsync is
// held. arg is a Put's version (high nibble) and length (low), a
// forward's version and epoch, and an intent's destination.
//
// The oracle: the reopened log holds every acknowledged write and, of the
// writes that failed, some prefix in the order they were queued, each
// record whole (so no unacknowledged record is partly visible); a Put is
// refused as stale exactly when the writes accepted before it hold its
// version or a newer one (a forward: its epoch); the directory is what a
// replay of the log gives; and a second reopen changes nothing.
func FuzzFileCrash(f *testing.F) {
	for _, seed := range crashPrograms() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		ops := decodeCrashProgram(in[3:])
		fl := NewFaults(FaultConfig{Seed: int64(in[1]) + 1})
		hook := &syncHook{crashAt: int(in[0]) % 24}
		fl.trigger = hook.trip(fl)
		g, err := fl.Open("")
		if err != nil {
			t.Fatal(err)
		}
		g.segSize = 128 + int64(in[2])*8
		errs := runCrashProgram(g, hook, ops)

		// What the writes accepted so far hold decides whether a Put is
		// stale; a write that failed otherwise may yet be on the log.
		admitted, acked := newLogState(), newLogState()
		var failed []crashOp
		for i, op := range ops {
			stale := op.kind == kindRecord && admitted.holds(op.rec)
			switch {
			case errors.Is(errs[i], ErrStale):
				if !stale {
					t.Fatalf("op %d, %v: ErrStale, but the log holds no version as new", i, op)
				}
				continue
			case errs[i] == nil && stale:
				t.Fatalf("op %d, %v: accepted over the version the log holds", i, op)
			case errs[i] == nil:
				acked.apply(op)
			default:
				failed = append(failed, op)
			}
			admitted.apply(op)
		}

		fl.trigger = nil
		fl.Crash() // if the program ran to its end, nothing is held
		g.Close()
		h, err := g.Reopen()
		if err != nil {
			t.Fatalf("reopen after the crash: %v", err)
		}
		got := readLogState(t, h)
		want := acked.clone()
		for k := 0; !want.equal(got); k++ {
			if k == len(failed) {
				t.Fatalf("the reopened log holds %v; acknowledged were %v, and the failed writes %v", got, acked, failed)
			}
			want.apply(failed[k])
		}
		checkDirectory(t, h, "after the reopen")
		segs := segmentBytes(t, h)
		h.Close()
		h, err = h.Reopen()
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		defer h.Close()
		if again := readLogState(t, h); !again.equal(got) {
			t.Fatalf("a second reopen holds %v, the first %v", again, got)
		}
		if again := segmentBytes(t, h); !slices.EqualFunc(again, segs, bytes.Equal) {
			t.Fatal("a second reopen changed the log's segments")
		}
	})
}

// opKinds are the kinds of frame an op byte's low three bits name. The
// fourth Put is one longer than maxBatchBuffer.
var opKinds = [8]byte{kindRecord, kindRecord, kindRecord, kindRecord, kindRecordGone, kindRecordGone, kindIntent, kindIntentGone}

// crashOp is one operation of a FuzzFileCrash program.
type crashOp struct {
	kind  byte // the frame it writes
	joins bool // queued behind the batch before it
	rec   Record
	it    MoveIntent
}

func (op crashOp) String() string {
	switch op.kind {
	case kindRecord:
		if op.rec.Forward {
			return fmt.Sprintf("Forward(%x v%d e%d)", op.rec.Object[15], op.rec.Version, op.rec.Epoch)
		}
		return fmt.Sprintf("Put(%x v%d, %d B)", op.rec.Object[15], op.rec.Version, len(op.rec.Rep))
	case kindRecordGone:
		return fmt.Sprintf("Delete(%x)", op.rec.Object[15])
	case kindIntent:
		return fmt.Sprintf("PutIntent(%x → %d)", op.it.Object[15], op.it.Dest)
	}
	return fmt.Sprintf("DeleteIntent(%x)", op.it.Object[15])
}

// do runs op on f.
func (op crashOp) do(f *File) error {
	switch op.kind {
	case kindRecord:
		return f.Put(op.rec)
	case kindRecordGone:
		return f.Delete(op.rec.Object)
	case kindIntent:
		return f.PutIntent(op.it)
	}
	return f.DeleteIntent(op.it.Object)
}

// decodeCrashProgram reads the operations of a FuzzFileCrash input, at
// most 48. Each record's bytes follow from its place in the program, so
// that no two Puts write the same representation.
func decodeCrashProgram(in []byte) []crashOp {
	var ops []crashOp
	for i := 0; i+1 < len(in) && len(ops) < 48; i += 2 {
		code, arg := in[i], in[i+1]
		id := edenid.New(1, 1, uint32(code>>3&3))
		op := crashOp{kind: opKinds[code&7], joins: code&0x80 != 0}
		op.rec.Object, op.it.Object = id, id
		switch op.kind {
		case kindRecord:
			if code&0x20 != 0 && code&7 != 3 {
				op.rec.Forward, op.rec.Home, op.rec.Version, op.rec.Epoch = true, 2, uint64(arg>>4), uint64(arg&15)
				break
			}
			n := int(arg&15) * 29
			if code&7 == 3 {
				n = maxBatchBuffer + 1 + int(arg)
			}
			rep := make([]byte, n)
			for j := range rep {
				rep[j] = byte(len(ops)*31 + j)
			}
			op.rec.TypeName, op.rec.Version, op.rec.Rep = "fuzz", uint64(arg>>4), rep
		case kindIntent:
			op.it.Dest, op.it.Epoch = uint32(arg), uint64(len(ops))
		}
		ops = append(ops, op)
	}
	return ops
}

// runCrashProgram runs ops on f in order and returns what each returned.
// An operation that joins the one before it is started while that one's
// batch is held in its fsync, and is waited for until it is queued or
// has returned, so every batch holds the same frames however the
// goroutines are scheduled.
func runCrashProgram(f *File, hook *syncHook, ops []crashOp) []error {
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	start := func(i int) chan struct{} {
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			errs[i] = ops[i].do(f)
		}()
		return done
	}
	var release chan struct{} // non-nil while a batch is held
	for i, op := range ops {
		if op.joins && release != nil {
			queued := queuedFrames(f)
			done := start(i)
			for queuedFrames(f) == queued {
				select {
				case <-done:
					queued = -1 // refused without a frame
				default:
					runtime.Gosched()
				}
			}
			continue
		}
		if release != nil {
			close(release)
			wg.Wait()
			release = nil
		}
		if i+1 == len(ops) || !ops[i+1].joins {
			errs[i] = op.do(f)
			continue
		}
		hold, entered := hook.arm()
		select {
		case <-entered:
			release = hold
		case <-start(i):
			hook.disarm() // refused before it reached the log
		}
	}
	if release != nil {
		close(release)
		wg.Wait()
	}
	return errs
}

// queuedFrames is how many frames wait for f's next batch.
func queuedFrames(f *File) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}

// syncHook is FuzzFileCrash's trigger on the fault layer: it counts
// fsyncs, holds the next one when armed until released, and crashes the
// layer inside the crashAt-th.
type syncHook struct {
	crashAt int

	mu      sync.Mutex
	syncs   int
	hold    chan struct{}
	entered chan struct{}
}

// arm makes the next fsync wait until hold is closed; entered is closed
// once it does.
func (h *syncHook) arm() (hold, entered chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hold, h.entered = make(chan struct{}), make(chan struct{})
	return h.hold, h.entered
}

func (h *syncHook) disarm() {
	h.mu.Lock()
	h.hold, h.entered = nil, nil
	h.mu.Unlock()
}

func (h *syncHook) trip(fl *Faults) func(op string) error {
	return func(op string) error {
		if op != "sync" {
			return nil
		}
		h.mu.Lock()
		h.syncs++
		crash := h.syncs == h.crashAt
		hold, entered := h.hold, h.entered
		h.hold, h.entered = nil, nil
		h.mu.Unlock()
		if hold != nil {
			close(entered)
			<-hold
		}
		if crash {
			fl.Crash()
			return errors.New("crashed inside the fsync")
		}
		return nil
	}
}

// logState is what a log holds: each object's record and intent.
type logState struct {
	recs map[edenid.ID]Record
	its  map[edenid.ID]MoveIntent
}

func newLogState() logState {
	return logState{recs: make(map[edenid.ID]Record), its: make(map[edenid.ID]MoveIntent)}
}

// holds reports whether s holds a record of rec's object that rec does
// not supersede.
func (s logState) holds(rec Record) bool {
	have, ok := s.recs[rec.Object]
	if rec.Forward {
		return ok && max(rec.Epoch, 1) <= max(have.Epoch, 1)
	}
	return ok && have.Version >= rec.Version
}

func (s logState) apply(op crashOp) {
	switch op.kind {
	case kindRecord:
		s.recs[op.rec.Object] = op.rec
	case kindRecordGone:
		delete(s.recs, op.rec.Object)
	case kindIntent:
		s.its[op.it.Object] = op.it
	case kindIntentGone:
		delete(s.its, op.it.Object)
	}
}

func (s logState) clone() logState {
	return logState{recs: maps.Clone(s.recs), its: maps.Clone(s.its)}
}

func (s logState) equal(o logState) bool {
	return maps.Equal(s.its, o.its) && maps.EqualFunc(s.recs, o.recs, func(a, b Record) bool {
		return a.Meta() == b.Meta() && a.TypeName == b.TypeName && bytes.Equal(a.Rep, b.Rep)
	})
}

func (s logState) String() string {
	var items []string
	for id, rec := range s.recs {
		if rec.Forward {
			items = append(items, fmt.Sprintf("[%x forward v%d e%d]", id[15], rec.Version, rec.Epoch))
			continue
		}
		items = append(items, fmt.Sprintf("[%x v%d %d B]", id[15], rec.Version, len(rec.Rep)))
	}
	for id, it := range s.its {
		items = append(items, fmt.Sprintf("[%x → %d]", id[15], it.Dest))
	}
	slices.Sort(items)
	return strings.Join(items, "")
}

// readLogState reads every record, forward and intent f holds: List and
// Get answer the records, the directory the forwards.
func readLogState(t *testing.T, f *File) logState {
	t.Helper()
	s := newLogState()
	ids, err := f.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if s.recs[id], err = f.Get(id); err != nil {
			t.Fatalf("Get(%v): %v", id, err)
		}
	}
	f.dirMu.RLock()
	for _, e := range f.recs.ents {
		if m := e.v.meta; m.Forward {
			s.recs[e.id] = Record{Object: e.id, Version: m.Version, Epoch: m.Epoch, Home: m.Home, Forward: true}
		}
	}
	f.dirMu.RUnlock()
	its, err := f.ListIntents()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range its {
		s.its[it.Object] = it
	}
	return s
}

// crashPrograms are FuzzFileCrash's seeds: batches of several frames
// torn at each of their fsyncs, records over maxBatchBuffer among small
// ones, and programs that seal and compact short segments.
func crashPrograms() [][]byte {
	put := func(obj, ver, size byte) []byte { return []byte{obj << 3, ver<<4 | size} }
	join := func(op []byte) []byte { return []byte{op[0] | 0x80, op[1]} }
	var batches []byte
	for v := byte(1); v < 6; v++ {
		batches = append(batches, put(0, v, 3)...)
		batches = append(batches, join(put(1, v, 5))...)
		batches = append(batches, join([]byte{2<<3 | 6, v})...) // PutIntent
		batches = append(batches, join([]byte{0<<3 | 4, 0})...) // Delete
		batches = append(batches, join(put(0, v, 1))...)
		batches = append(batches, join([]byte{2<<3 | 7, 0})...) // DeleteIntent
		batches = append(batches, join(put(1, v-1, 2))...)      // stale
	}
	var huge []byte
	for v := byte(1); v < 5; v++ {
		huge = append(huge, put(v&3, v, 15)...)
		huge = append(huge, join([]byte{3<<3 | 3, v<<4 | 2})...) // over maxBatchBuffer
		huge = append(huge, put(2, v, 4)...)
	}
	// Forwards: each replaces a record by its epoch, and a record replaces
	// it by its version; one at a lower epoch, and a record at the
	// forward's version, are stale.
	fwd := func(obj, ver, epoch byte) []byte { return []byte{obj<<3 | 0x20, ver<<4 | epoch} }
	var forwards []byte
	for v := byte(1); v < 6; v++ {
		forwards = append(forwards, put(0, 2*v, 3)...)
		forwards = append(forwards, join(fwd(0, 2*v, v+1))...)
		forwards = append(forwards, join(fwd(0, 2*v, v))...)      // stale
		forwards = append(forwards, join(put(0, 2*v, 2))...)      // stale
		forwards = append(forwards, join([]byte{0<<3 | 6, v})...) // PutIntent
		forwards = append(forwards, fwd(1, v, v)...)
		forwards = append(forwards, join(put(2, v, 15))...)
	}
	churn := []byte{3<<3 | 6, 9} // an intent, live while its segment is compacted
	for v := byte(1); v < 16; v++ {
		churn = append(churn, put(v&3, v, 15)...)
		churn = append(churn, put(v&3, v, 15)...) // stale
	}
	var seeds [][]byte
	for crash := byte(0); crash < 8; crash++ {
		for _, prog := range [][]byte{batches, huge, churn, forwards} {
			seeds = append(seeds, append([]byte{crash, crash * 37, 4}, prog...))
		}
	}
	return seeds
}
