package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"eden/internal/edenid"
)

// File is a Store kept as an append-only log in one directory: numbered
// segment files holding CRC-checked frames, and in memory the directory
// of where each object's newest record and intent lie — two flat tables
// keyed by id (idTable), about 70 B of heap for each record, which is
// what a passive object costs its home node. A write is group-committed
// — the frames queued while one batch is being made durable go out
// together, in one write and one fsync — and a reader takes no lock that
// a writer holds across I/O. One process owns the directory at a time.
type File struct {
	dir     string
	fs      fsys  // the I/O seam: the operating system, memory, or a fault layer over either
	segSize int64 // a head segment this long is sealed: segmentSize, except in tests

	// The write side. mu guards the queue of frames waiting for a batch,
	// inflight — the newest frame accepted for each object whose frames
	// are not all published yet — the free frames and the flags. The
	// appender that finds no batch being written leads: until it hands
	// back under mu, it alone touches the log's tail (the head segment,
	// sealing and compaction), the segments' byte counts and buf.
	mu       sync.Mutex
	turn     sync.Cond // broadcast when a batch is done
	queue    []*pending
	spare    []*pending // the previous batch's slice, for the next queue
	free     []*pending // zeroed frames that no appender, batch or inflight entry holds
	inflight map[frameKey]*pending
	buf      []byte // the leader's batch buffer, at most maxBatchBuffer long
	writing  bool   // a leader is writing a batch
	broken   error  // set when a failed batch could not be cut off the log; fails every later write
	closed   bool
	fsyncs   atomic.Int64

	// The read side. dirMu guards the directory (recs, intents) and the
	// segment list. Writers hold it only to look a version up or to
	// publish what is already durable, never across I/O.
	dirMu   sync.RWMutex
	recs    idTable[dirEntry]
	intents idTable[intentEntry]
	segs    []*segFile // oldest first; the last, the head, is the one appended to; nil once closed

	types typeNames // the type names Get has returned

	tel fileTel // set by Instrument; until then nothing is counted
}

// typeNames interns the type names of records read back: a node holds
// objects of a few types, so Get returns a name it has returned before
// instead of allocating it again. The table is copied on write, so a
// lookup takes no lock; it holds each distinct name read once. It is a
// slice, not a map: a scan of a few names costs less than a map lookup,
// and keeps the frames Get adds to a serving goroutine's stack small.
type typeNames struct {
	mu    sync.Mutex
	names atomic.Pointer[[]string]
}

// intern returns string(b), without the allocation when b is a name
// returned before.
func (t *typeNames) intern(b []byte) string {
	if s, ok := t.lookup(b); ok {
		return s
	}
	return t.add(b)
}

// lookup returns the table's copy of b.
func (t *typeNames) lookup(b []byte) (string, bool) {
	if p := t.names.Load(); p != nil {
		for _, s := range *p {
			if s == string(b) {
				return s, true
			}
		}
	}
	return "", false
}

// add copies b into the table, unless another Get added it first.
func (t *typeNames) add(b []byte) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.lookup(b); ok {
		return s
	}
	s := string(b)
	var next []string
	if p := t.names.Load(); p != nil {
		next = append(next, *p...)
	}
	next = append(next, s)
	t.names.Store(&next)
	return s
}

// segFile is one numbered segment file of the log.
type segFile struct {
	num  uint32
	fh   segIO
	size int64 // bytes of whole frames
	live int64 // bytes of the frames the directory points at
	// refs counts the log's own reference and every Get reading the
	// segment; the file is closed when it drops to zero.
	refs atomic.Int32
}

// release drops one reference to s, closing its file with the last.
func (s *segFile) release() error {
	if s.refs.Add(-1) == 0 {
		return s.fh.Close()
	}
	return nil
}

// loc is where a frame lies in the log.
type loc struct {
	seg  uint32
	size uint32 // the whole frame, header included
	off  int64
}

// dirEntry is what the directory knows about an object's newest record.
type dirEntry struct {
	meta Meta
	loc
}

// intentEntry is an object's move intent and where its frame lies.
type intentEntry struct {
	it MoveIntent
	loc
}

// frameKey names the record or the intent of one object: the two are
// versioned, deleted and compacted independently.
type frameKey struct {
	id     edenid.ID
	intent bool
}

// pending is one frame on its way into the log.
type pending struct {
	kind byte
	id   edenid.ID
	rec  Record     // kindRecord; replay fills in the header fields only
	it   MoveIntent // kindIntent
	at   loc        // where its batch put it
	done bool
	err  error
}

func (p *pending) key() frameKey { return frameKey{p.id, p.kind >= kindIntent} }

// The log's layout. A frame is
//
//	len(4) | crc32c(4) | kind(1) | body
//
// where len counts the body and the checksum covers kind and body.
const (
	frameHeader = 9
	segmentExt  = ".log"
	// segmentSize is the length at which the head segment is sealed and
	// a new one begun.
	segmentSize = 16 << 20
	// maxRecord bounds a record's type name and representation together,
	// well inside what a frame's length can say.
	maxRecord = 1 << 30
	// scanBuffer is the open pass's read size; a longer frame is read
	// into its own buffer.
	scanBuffer = 256 << 10
	// maxBatchBuffer bounds the batch buffer the leader keeps from batch
	// to batch, as msg's largest pooled frame bounds a frame: a longer
	// batch is laid out in a buffer of its own, dropped once written, so
	// one huge record pins nothing.
	maxBatchBuffer = 65 << 10
)

// The kinds of frame.
const (
	kindRecord     byte = iota + 1 // body: a record (appendRecord)
	kindRecordGone                 // body: the id whose record was deleted
	kindIntent                     // body: a move intent (appendIntent)
	kindIntentGone                 // body: the id whose intent was deleted
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var _ Store = (*File)(nil)

// fileMagic heads every record. CKP3 added the residency epoch; CKP2
// added the flags byte's backup bit and the home field. Records with an
// older magic fail decode rather than misparse.
const fileMagic = "EDENCKP3"

// intentMagic heads every move intent.
const intentMagic = "EDENMVI1"

// NewFile opens (creating if needed) the log-structured store in dir. It
// reads each segment once, in order, checking every frame's CRC, and
// replays the frames into the directory. In the last segment a frame that
// is short or fails its check ends the log and is cut off: it is the torn
// tail of a batch whose fsync never returned, so nothing after it was
// ever acknowledged. In a sealed segment it is damage, and NewFile fails
// with ErrFailed. A directory that still holds a record or intent file of
// the one-file-per-record layout is refused, so that a store never opens
// silently empty. An empty dir keeps the log in process memory, on a
// medium of its own that survives Close for Reopen to replay.
func NewFile(dir string) (*File, error) { return openFile(dir, medium(dir)) }

// medium is where the log in dir lives: the disk, or memory when dir is
// empty.
func medium(dir string) fsys {
	if dir == "" {
		return &memFS{files: make(map[string]*memFile)}
	}
	return osFS{}
}

// Reopen opens f's log anew on the medium f was opened on, through the
// same fault layer if any, as a restarted node does: it reads and replays
// what the medium kept. f may be closed.
func (f *File) Reopen() (*File, error) {
	fs := f.fs
	if v, ok := fs.(*faultView); ok {
		fs = v.fl.view(v.fsys)
	}
	return openFile(f.dir, fs)
}

// openFile is NewFile with fs under the log.
func openFile(dir string, fs fsys) (*File, error) {
	if err := fs.mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names, err := fs.list(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var nums []uint32
	for _, name := range names {
		if ext := filepath.Ext(name); ext == ".ckp" || ext == ".mvi" {
			return nil, fmt.Errorf("store: %s holds %s, a file of the one-file-per-record layout, which this store does not read", dir, name)
		}
		if n, ok := segmentNum(name); ok {
			nums = append(nums, n)
		}
	}
	slices.Sort(nums)
	f := &File{
		dir:      dir,
		fs:       fs,
		segSize:  segmentSize,
		inflight: make(map[frameKey]*pending),
	}
	f.turn.L = &f.mu
	if len(nums) == 0 {
		if err := f.newSegment(1); err != nil {
			return nil, err
		}
		return f, nil
	}
	br := bufio.NewReaderSize(nil, scanBuffer)
	for i, num := range nums {
		if i > 0 && num != nums[i-1]+1 {
			err = fmt.Errorf("%w: %s has no segment between %s and %s", ErrFailed, dir, segmentName(nums[i-1]), segmentName(num))
		} else {
			err = f.load(num, i == len(nums)-1, br)
		}
		if err != nil {
			closeAll(f.segs)
			return nil, err
		}
	}
	return f, nil
}

func segmentName(num uint32) string { return fmt.Sprintf("%010d%s", num, segmentExt) }

// segmentNum parses a segment's file name back into its number.
func segmentNum(name string) (uint32, bool) {
	digits, ok := strings.CutSuffix(name, segmentExt)
	if !ok || len(digits) != 10 {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 32)
	return uint32(n), err == nil && n > 0
}

func (f *File) segmentPath(num uint32) string { return filepath.Join(f.dir, segmentName(num)) }

// load opens segment num and replays it. The last segment stays open for
// writing, and what follows its last intact frame is cut off.
func (f *File) load(num uint32, last bool, br *bufio.Reader) error {
	path := f.segmentPath(num)
	flag := os.O_RDONLY
	if last {
		flag = os.O_RDWR
	}
	fh, size, err := f.fs.open(path, flag)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s := &segFile{num: num, fh: fh}
	s.refs.Store(1)
	f.segs = append(f.segs, s)
	br.Reset(fh)
	bad, err := f.replay(s, br, size)
	if err != nil || bad == "" {
		return err
	}
	if !last {
		return fmt.Errorf("%w: %s: %s at offset %d", ErrFailed, path, bad, s.size)
	}
	if err := fh.Truncate(s.size); err != nil {
		return fmt.Errorf("store: cutting the torn tail off %s: %w", path, err)
	}
	if err := fh.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// replay applies s's frames, read from br, to the directory in log order,
// advancing s.size past each. If something other than the end of the
// file stops it, it says what.
func (f *File) replay(s *segFile, br *bufio.Reader, size int64) (bad string, err error) {
	for s.size < size {
		hdr, err := br.Peek(frameHeader)
		if err == io.EOF {
			return "short frame header", nil
		} else if err != nil {
			return "", fmt.Errorf("store: %w", err)
		}
		n := frameHeader + int64(binary.BigEndian.Uint32(hdr))
		if n > size-s.size {
			return "frame runs past the end of the segment", nil
		}
		var frame []byte
		if n <= int64(br.Size()) {
			frame, err = br.Peek(int(n))
		} else {
			frame = make([]byte, n)
			_, err = io.ReadFull(br, frame)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return "frame runs past the end of the segment", nil
		} else if err != nil {
			return "", fmt.Errorf("store: %w", err)
		}
		if crc32.Checksum(frame[8:], castagnoli) != binary.BigEndian.Uint32(frame[4:]) {
			return "frame fails its checksum", nil
		}
		p, err := decodeFrame(frame[8], frame[frameHeader:])
		if err != nil {
			// The checksum holds, so this is what was written: no tear
			// explains it.
			return "", fmt.Errorf("%w: %s at offset %d: %v", ErrFailed, f.segmentPath(s.num), s.size, err)
		}
		p.at = loc{seg: s.num, off: s.size, size: uint32(n)}
		f.install(&p)
		if n <= int64(br.Size()) {
			br.Discard(int(n))
		}
		s.size += n
	}
	return "", nil
}

// decodeFrame parses an intact frame's body. A record's is parsed as far
// as its header: the directory needs no more.
func decodeFrame(kind byte, body []byte) (pending, error) {
	p := pending{kind: kind}
	var err error
	switch kind {
	case kindRecord:
		p.rec, _, err = decodeHeader(body)
		p.id = p.rec.Object
	case kindIntent:
		p.it, err = decodeIntent(body)
		p.id = p.it.Object
	case kindRecordGone, kindIntentGone:
		var rest []byte
		p.id, rest, err = edenid.Decode(body)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d bytes after a tombstone's id", len(rest))
		}
	default:
		err = fmt.Errorf("unknown frame kind %d", kind)
	}
	return p, err
}

// install points the directory at p, which is durable at p.at, and moves
// the bytes of whatever p replaces from the live count to the dead.
// Caller holds dirMu for writing, or is NewFile.
func (f *File) install(p *pending) {
	var old loc
	var had bool
	switch p.kind {
	case kindRecord:
		e, ok := f.recs.put(p.id, dirEntry{meta: p.rec.Meta(), loc: p.at})
		old, had = e.loc, ok
	case kindRecordGone:
		e, ok := f.recs.delete(p.id)
		old, had = e.loc, ok
	case kindIntent:
		e, ok := f.intents.put(p.id, intentEntry{it: p.it, loc: p.at})
		old, had = e.loc, ok
	case kindIntentGone:
		e, ok := f.intents.delete(p.id)
		old, had = e.loc, ok
	}
	if had {
		f.segment(old.seg).live -= int64(old.size)
	}
	if p.kind == kindRecord || p.kind == kindIntent {
		f.segment(p.at.seg).live += int64(p.at.size)
	}
}

// segment returns segment num, which the log holds. Caller holds dirMu
// or leads.
func (f *File) segment(num uint32) *segFile { return f.segs[num-f.segs[0].num] }

// head is the segment being appended to. Caller leads, or is NewFile.
func (f *File) head() *segFile { return f.segs[len(f.segs)-1] }

// newSegment creates segment num as the new head and makes its name
// durable.
func (f *File) newSegment(num uint32) error {
	path := f.segmentPath(num)
	fh, _, err := f.fs.open(path, os.O_RDWR|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := f.fs.syncDir(f.dir); err != nil {
		fh.Close()
		f.fs.remove(path)
		return fmt.Errorf("store: %w", err)
	}
	s := &segFile{num: num, fh: fh}
	s.refs.Store(1)
	f.dirMu.Lock()
	f.segs = append(f.segs, s)
	f.dirMu.Unlock()
	return nil
}

// closeAll drops the log's reference to each segment and returns the
// first error closing one.
func closeAll(segs []*segFile) error {
	var first error
	for _, s := range segs {
		if err := s.release(); err != nil && first == nil {
			first = fmt.Errorf("store: %w", err)
		}
	}
	return first
}

// Put implements Store. It returns once the record is durable and Get
// finds it, having shared its write and fsync with every Put, Delete and
// intent change that queued while the previous batch was being written.
func (f *File) Put(rec Record) error {
	return f.append(pending{kind: kindRecord, id: rec.Object, rec: rec})
}

// Delete implements Store. Deleting a record that is absent, and has no
// deletion on its way to the log, writes nothing.
func (f *File) Delete(id edenid.ID) error {
	return f.append(pending{kind: kindRecordGone, id: id})
}

// PutIntent implements Store: an intent is a frame of the log like a
// record, and as durable when PutIntent returns.
func (f *File) PutIntent(it MoveIntent) error {
	return f.append(pending{kind: kindIntent, id: it.Object, it: it})
}

// DeleteIntent implements Store. Removing an absent intent is not an
// error, and writes nothing unless a removal of it is on its way to the
// log: recovery may race a concurrent resolution to the same verdict.
func (f *File) DeleteIntent(id edenid.ID) error {
	return f.append(pending{kind: kindIntentGone, id: id})
}

// append queues a frame holding what fr says and returns once the batch
// carrying it is durable and published, or has failed. The frame comes
// from the free list and goes back to it zeroed, so that a write
// allocates no frame and the list holds no record's bytes: by the time
// the frame is done, lead has taken it out of its batch and of inflight.
func (f *File) append(fr pending) error {
	start := f.tel.putLat.Start()
	f.mu.Lock()
	var p *pending
	if n := len(f.free); n > 0 {
		p, f.free = f.free[n-1], f.free[:n-1]
	} else {
		p = new(pending)
	}
	*p = fr
	queued, err := f.admit(p)
	for queued && !p.done {
		if f.writing {
			f.turn.Wait()
		} else {
			f.lead()
		}
	}
	if queued {
		err = p.err
	}
	*p = pending{}
	f.free = append(f.free, p)
	f.mu.Unlock()
	f.tel.wrote(fr.kind, len(fr.rec.Rep), start, err)
	return err
}

// admit checks p against the newest state accepted into the log for its
// object — a frame still on its way there, or else the directory — and
// queues it. So log order is version order for every object, batches in
// flight included. A deletion of something the directory lacks needs no
// frame: admit reports it unqueued, with no error. One of something that
// only a deletion on its way to the log removed is queued all the same,
// so that it is acknowledged no sooner than that deletion is durable, and
// fails if it fails. A record too long for the log is refused. Caller
// holds mu.
func (f *File) admit(p *pending) (bool, error) {
	if f.closed {
		return false, ErrClosed
	}
	if f.broken != nil {
		return false, f.broken
	}
	k := p.key()
	q, inFlight := f.inflight[k]
	var present bool
	var have Meta
	if inFlight {
		present, have = q.kind == kindRecord || q.kind == kindIntent, q.rec.Meta()
	} else {
		f.dirMu.RLock()
		if k.intent {
			_, present = f.intents.get(k.id)
		} else {
			var e dirEntry
			e, present = f.recs.get(k.id)
			have = e.meta
		}
		f.dirMu.RUnlock()
	}
	switch p.kind {
	case kindRecord:
		if n := len(p.rec.TypeName) + len(p.rec.Rep); n > maxRecord {
			return false, fmt.Errorf("store: a record of %d bytes is too long for the log", n)
		}
		// A forward carries the version it replaces: its epoch orders it.
		if present && (p.rec.Forward && max(p.rec.Epoch, 1) <= max(have.Epoch, 1) || !p.rec.Forward && p.rec.Version <= have.Version) {
			return false, fmt.Errorf("%w: have v%d e%d, got v%d e%d", ErrStale, have.Version, have.Epoch, p.rec.Version, p.rec.Epoch)
		}
	case kindRecordGone, kindIntentGone:
		if !present && !inFlight {
			return false, nil
		}
	}
	f.inflight[k] = p
	f.queue = append(f.queue, p)
	return true, nil
}

// lead writes every queued frame as one batch and reports the outcome to
// each. Caller holds mu, which lead lets go for the I/O.
func (f *File) lead() {
	f.writing = true
	batch := f.queue
	f.queue = f.spare
	f.mu.Unlock()
	err := f.commit(batch)
	f.mu.Lock()
	for _, p := range batch {
		p.done, p.err = true, err
		if k := p.key(); f.inflight[k] == p {
			delete(f.inflight, k)
		}
	}
	if err != nil {
		// The frames queued behind the batch were admitted against a
		// state it was to create; it does not exist, so they fail too.
		for _, p := range f.queue {
			p.done, p.err = true, err
		}
		clear(f.queue)
		f.queue = f.queue[:0]
		clear(f.inflight)
	}
	clear(batch)
	f.spare = batch[:0]
	f.writing = false
	f.turn.Broadcast()
}

// commit appends batch to the head segment with one write and one fsync,
// publishes it, and seals the head if that filled it. The leader calls
// it.
func (f *File) commit(batch []*pending) error {
	head := f.head()
	n := 0
	for _, p := range batch {
		n += frameLen(p)
	}
	buf := f.batchBuffer(n)
	for _, p := range batch {
		start := len(buf)
		buf = appendFrame(buf, p)
		p.at = loc{seg: head.num, off: head.size + int64(start), size: uint32(len(buf) - start)}
	}
	if err := f.write(head, buf); err != nil {
		return err
	}
	f.dirMu.Lock()
	for _, p := range batch {
		f.install(p)
	}
	f.dirMu.Unlock()
	if head.size >= f.segSize {
		f.seal()
	}
	return nil
}

// batchBuffer returns an empty buffer with room for n bytes: the
// leader's own, grown if it is too small, or for n over maxBatchBuffer a
// new one, which is not kept. The leader calls it.
func (f *File) batchBuffer(n int) []byte {
	if n > maxBatchBuffer {
		return make([]byte, 0, n)
	}
	if cap(f.buf) < n {
		f.buf = make([]byte, 0, min(max(n, 2*cap(f.buf)), maxBatchBuffer))
	}
	return f.buf[:0]
}

// write appends b to segment s, the head, and makes it durable. If either
// step fails it cuts s back to where b began, so the log ends where it
// did; if the cut fails too, where the log ends is unknown, and the store
// takes no more writes. The leader calls it.
func (f *File) write(s *segFile, b []byte) error {
	_, err := s.fh.WriteAt(b, s.size)
	if err == nil {
		err = f.sync(s)
	}
	if err == nil {
		s.size += int64(len(b))
		return nil
	}
	if terr := s.fh.Truncate(s.size); terr != nil {
		f.mu.Lock()
		f.broken = fmt.Errorf("%w: %s could not be cut back after a failed write (%v); the store takes no more writes", ErrFailed, f.segmentPath(s.num), terr)
		f.mu.Unlock()
	}
	return fmt.Errorf("store: %w", err)
}

func (f *File) sync(s *segFile) error {
	f.fsyncs.Add(1)
	return s.fh.Sync()
}

// seal begins a new head segment, then compacts: while the log holds more
// dead bytes than live ones, it copies the live frames of the oldest
// segment forward and removes that segment. Only the segments sealed
// before the call are compacted, so one call copies a live frame at most
// once, and afterwards the log is at most about twice its live bytes plus
// a segment. A failure stops it and leaves the log correct, only longer —
// the batch that filled the head is durable and stays acknowledged — and
// the next seal tries again. The leader calls it.
func (f *File) seal() {
	if f.newSegment(f.head().num+1) != nil {
		return
	}
	last := f.head().num
	for f.segs[0].num < last && f.deadOverLive() {
		if f.compactOldest() != nil {
			return
		}
	}
}

// deadOverLive reports whether the log holds more dead bytes than live.
func (f *File) deadOverLive() bool {
	var size, live int64
	for _, s := range f.segs {
		size, live = size+s.size, live+s.live
	}
	return size-live > live
}

// compactOldest copies the live frames of the oldest segment to the head
// — a frame holds no position, so it is copied as it is — makes them
// durable, points the directory at them and removes the old segment. Its
// tombstones are dropped: the oldest segment has nothing older to delete.
func (f *File) compactOldest() error {
	old, head := f.segs[0], f.head()
	type move struct {
		k        frameKey
		from, to loc
	}
	var moves []move
	for _, e := range f.recs.ents {
		if e.v.seg == old.num {
			moves = append(moves, move{k: frameKey{id: e.id}, from: e.v.loc})
		}
	}
	for _, e := range f.intents.ents {
		if e.v.seg == old.num {
			moves = append(moves, move{k: frameKey{id: e.id, intent: true}, from: e.v.loc})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].from.off < moves[j].from.off })
	n := 0
	for _, m := range moves {
		n += int(m.from.size)
	}
	buf := f.batchBuffer(n)[:n] // the batch that sealed the head is written
	start := 0
	for i := range moves {
		m := &moves[i]
		frame := buf[start : start+int(m.from.size)]
		if _, err := old.fh.ReadAt(frame, m.from.off); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := checkFrame(frame); err != nil {
			return fmt.Errorf("%w: %s at offset %d: %v", ErrFailed, f.segmentPath(old.num), m.from.off, err)
		}
		m.to = loc{seg: head.num, off: head.size + int64(start), size: m.from.size}
		start += len(frame)
	}
	if len(buf) > 0 {
		if err := f.write(head, buf); err != nil {
			return err
		}
	}
	f.dirMu.Lock()
	for _, m := range moves {
		if m.k.intent {
			f.intents.ref(m.k.id).loc = m.to
		} else {
			f.recs.ref(m.k.id).loc = m.to
		}
		head.live += int64(m.to.size)
	}
	f.segs = slices.Delete(f.segs, 0, 1)
	f.dirMu.Unlock()
	err := f.fs.remove(f.segmentPath(old.num))
	if err == nil {
		err = f.fs.syncDir(f.dir)
	}
	if err != nil {
		err = fmt.Errorf("store: %w", err)
	}
	old.release() // a Get still reading it closes it
	if head.size >= f.segSize {
		// A head that cannot be sealed stays the head, only longer.
		_ = f.newSegment(head.num + 1)
	}
	return err
}

// checkFrame checks that b is one whole, intact frame and returns what
// its checksum covers: the kind byte, then the body.
func checkFrame(b []byte) ([]byte, error) {
	if len(b) < frameHeader || int(binary.BigEndian.Uint32(b)) != len(b)-frameHeader {
		return nil, fmt.Errorf("frame length is not %d", len(b))
	}
	if crc32.Checksum(b[8:], castagnoli) != binary.BigEndian.Uint32(b[4:]) {
		return nil, fmt.Errorf("frame fails its checksum")
	}
	return b[8:], nil
}

// Stat implements Store from the directory: no file is touched.
func (f *File) Stat(id edenid.ID) (Meta, bool) {
	f.dirMu.RLock()
	e, ok := f.recs.get(id)
	f.dirMu.RUnlock()
	return e.meta, ok
}

// Get implements Store with one read of exactly the frame the directory
// names, into one buffer that the result's Rep aliases. It holds dirMu
// only to look the record up, and pins the segment so that compaction
// cannot close it under the read. A frame that fails its checksum, is
// not a record, or names another object is a media failure.
func (f *File) Get(id edenid.ID) (rec Record, err error) {
	defer f.tel.read(f.tel.getLat.Start(), &err)
	f.dirMu.RLock()
	if f.segs == nil {
		f.dirMu.RUnlock()
		return Record{}, ErrClosed
	}
	e, ok := f.recs.get(id)
	var s *segFile
	if ok && !e.meta.Forward {
		s = f.segment(e.seg)
		s.refs.Add(1)
	}
	f.dirMu.RUnlock()
	if s == nil {
		return Record{}, &notFound{id: id} // a forward is answered as a missing record
	}
	b := make([]byte, e.size)
	_, err = s.fh.ReadAt(b, e.off)
	s.release() // only read: a failed close loses nothing
	if err == io.EOF {
		return Record{}, fmt.Errorf("%w: the record of %v is cut short", ErrFailed, id)
	} else if err != nil {
		return Record{}, fmt.Errorf("store: %w", err)
	}
	body, err := checkFrame(b)
	if err == nil && body[0] != kindRecord {
		err = fmt.Errorf("frame of kind %d", body[0])
	}
	if err != nil {
		return Record{}, fmt.Errorf("%w: the record of %v: %v", ErrFailed, id, err)
	}
	rec, err = decodeRecord(body[1:], &f.types)
	if err != nil {
		return Record{}, err
	}
	if rec.Object != id {
		return Record{}, fmt.Errorf("%w: the record of %v names %v", ErrFailed, id, rec.Object)
	}
	return rec, nil
}

// List implements Store from the directory.
func (f *File) List() ([]edenid.ID, error) {
	f.dirMu.RLock()
	if f.segs == nil {
		f.dirMu.RUnlock()
		f.tel.errs.Inc()
		return nil, ErrClosed
	}
	out := make([]edenid.ID, 0, len(f.recs.ents))
	for _, e := range f.recs.ents {
		if !e.v.meta.Forward {
			out = append(out, e.id)
		}
	}
	f.dirMu.RUnlock()
	slices.SortFunc(out, edenid.Compare)
	return out, nil
}

// ListIntents implements Store from memory: the open pass read every
// intent, and a damaged one in a sealed segment failed it, so boot-time
// recovery never silently drops an in-doubt move.
func (f *File) ListIntents() ([]MoveIntent, error) {
	f.dirMu.RLock()
	if f.segs == nil {
		f.dirMu.RUnlock()
		f.tel.errs.Inc()
		return nil, ErrClosed
	}
	out := make([]MoveIntent, 0, len(f.intents.ents))
	for _, e := range f.intents.ents {
		out = append(out, e.v.it)
	}
	f.dirMu.RUnlock()
	slices.SortFunc(out, func(a, b MoveIntent) int { return edenid.Compare(a.Object, b.Object) })
	return out, nil
}

// Close waits for the batches already queued, then closes the segment
// files, each once no Get is reading it. Every later call fails — Stat
// with a miss, the rest with ErrClosed. A node's Crash closes its log,
// Restart opens it anew, and System.Close closes the one open then.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.closed = true
	for f.writing || len(f.queue) > 0 {
		f.turn.Wait()
	}
	f.mu.Unlock()
	f.dirMu.Lock()
	segs := f.segs
	f.segs, f.recs, f.intents = nil, idTable[dirEntry]{}, idTable[intentEntry]{}
	f.dirMu.Unlock()
	return closeAll(segs)
}

// frameLen is the length of p's frame.
func frameLen(p *pending) int {
	switch p.kind {
	case kindRecord:
		return frameHeader + recordOverhead + p.rec.Policy.Len() + len(p.rec.TypeName) + len(p.rec.Rep)
	case kindIntent:
		return frameHeader + intentLen
	}
	return frameHeader + edenid.Size
}

// appendFrame appends p's frame to dst.
func appendFrame(dst []byte, p *pending) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, p.kind)
	switch p.kind {
	case kindRecord:
		dst = appendRecord(dst, p.rec)
	case kindIntent:
		dst = appendIntent(dst, p.it)
	default:
		dst = p.id.Encode(dst)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeader))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], castagnoli))
	return dst
}

// appendRecord lays a record out as:
// magic | id | version(8) | epoch(8) | flags(1) | home(4) [policy] | typeLen(4) type | repLen(4) rep
// where flags bit 0 is Frozen, bit 1 is Backup, bit 2 says the checksite
// policy follows home, laid out as Policy.Append does, and bit 3 is
// Forward.
// recordOverhead is all but the policy, the type name and the
// representation.
const recordOverhead = len(fileMagic) + edenid.Size + 8 + 8 + 1 + 4 + 4 + 4

func appendRecord(dst []byte, rec Record) []byte {
	dst = append(dst, fileMagic...)
	dst = rec.Object.Encode(dst)
	dst = binary.BigEndian.AppendUint64(dst, rec.Version)
	dst = binary.BigEndian.AppendUint64(dst, rec.Epoch)
	var flags byte
	if rec.Frozen {
		flags |= 1
	}
	if rec.Backup {
		flags |= 2
	}
	if rec.Forward {
		flags |= 8
	}
	if rec.Sited() {
		flags |= 4
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, rec.Home)
	dst = rec.Policy.Append(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.TypeName)))
	dst = append(dst, rec.TypeName...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Rep)))
	return append(dst, rec.Rep...)
}

// decodeHeader parses the header at the front of b, the checksite policy
// included, into a record without type name or representation, returning
// what follows it.
func decodeHeader(b []byte) (Record, []byte, error) {
	var rec Record
	if len(b) < len(fileMagic) || string(b[:len(fileMagic)]) != fileMagic {
		return rec, nil, fmt.Errorf("%w: bad magic", ErrFailed)
	}
	id, b, err := edenid.Decode(b[len(fileMagic):])
	if err != nil {
		return rec, nil, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	rec.Object = id
	if len(b) < 21 {
		return rec, nil, fmt.Errorf("%w: truncated header", ErrFailed)
	}
	rec.Version = binary.BigEndian.Uint64(b)
	rec.Epoch = binary.BigEndian.Uint64(b[8:])
	rec.Frozen = b[16]&1 != 0
	rec.Backup = b[16]&2 != 0
	rec.Forward = b[16]&8 != 0
	rec.Home = binary.BigEndian.Uint32(b[17:])
	if b[16]&4 == 0 {
		return rec, b[21:], nil
	}
	rec.Policy, b, err = DecodePolicy(b[21:])
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrFailed, err)
	}
	return rec, b, err
}

// decodeRecord parses one record. The result's Rep aliases b, and its
// type name comes from types.
func decodeRecord(b []byte, types *typeNames) (Record, error) {
	rec, b, err := decodeHeader(b)
	if err != nil {
		return rec, err
	}
	if len(b) < 4 {
		return rec, fmt.Errorf("%w: truncated header", ErrFailed)
	}
	tl := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if tl < 0 || len(b) < tl+4 {
		return rec, fmt.Errorf("%w: truncated type name", ErrFailed)
	}
	name, b := b[:tl], b[tl:]
	rl := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if rl < 0 || len(b) != rl {
		return rec, fmt.Errorf("%w: representation length mismatch", ErrFailed)
	}
	rec.TypeName, rec.Rep = types.intern(name), b
	return rec, nil
}

// appendIntent lays an intent out as:
// magic | id | dest(4) | epoch(8)
const intentLen = len(intentMagic) + edenid.Size + 4 + 8

func appendIntent(dst []byte, it MoveIntent) []byte {
	dst = append(dst, intentMagic...)
	dst = it.Object.Encode(dst)
	dst = binary.BigEndian.AppendUint32(dst, it.Dest)
	return binary.BigEndian.AppendUint64(dst, it.Epoch)
}

func decodeIntent(b []byte) (MoveIntent, error) {
	var it MoveIntent
	if len(b) < len(intentMagic) || string(b[:len(intentMagic)]) != intentMagic {
		return it, fmt.Errorf("%w: bad intent magic", ErrFailed)
	}
	id, b, err := edenid.Decode(b[len(intentMagic):])
	if err != nil {
		return it, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	it.Object = id
	if len(b) != 12 {
		return it, fmt.Errorf("%w: truncated intent", ErrFailed)
	}
	it.Dest = binary.BigEndian.Uint32(b)
	it.Epoch = binary.BigEndian.Uint64(b[4:])
	return it, nil
}
