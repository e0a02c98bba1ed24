package store

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"eden/internal/telemetry"
)

// fsys is File's I/O seam: the calls the log makes on its directory.
// osFS is the operating system; a Faults layer stands in for it in crash
// tests.
type fsys interface {
	list(dir string) ([]string, error)
	create(path string) (segIO, error)                  // a new file, which must not exist
	open(path string, write bool) (segIO, int64, error) // and its length
	remove(path string) error
	syncDir(dir string) error
}

// segIO is a segment file as the log uses it. *os.File is one.
type segIO interface {
	io.Reader // the open pass's scan
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// osFS is the seam's real side.
type osFS struct{}

func (osFS) list(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

func (osFS) create(path string) (segIO, error) {
	fh, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return fh, nil
}

func (osFS) open(path string, write bool) (segIO, int64, error) {
	flag := os.O_RDONLY
	if write {
		flag = os.O_RDWR
	}
	fh, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, 0, err
	}
	info, err := fh.Stat()
	if err != nil {
		fh.Close()
		return nil, 0, err
	}
	return fh, info.Size(), nil
}

func (osFS) remove(path string) error { return os.Remove(path) }

// syncDir makes the creation or removal of a name in dir durable.
func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrInjected is what a call the fault layer chose to fail returns. It
// wraps ErrFailed, so a caller that tolerates a failing medium tolerates
// an injected failure the same way.
var ErrInjected = fmt.Errorf("%w: injected", ErrFailed)

// errCrashed is what a segment returns once Crash has killed it: the
// process that made the call is dead, and the call never returns.
var errCrashed = fmt.Errorf("%w: the fault layer crashed this file", ErrFailed)

// FaultConfig tunes a fault layer. The zero value injects nothing: the
// layer then only holds what was written since the last fsync, for a
// crash to tear.
type FaultConfig struct {
	// Seed makes the schedule reproducible: the same seed, configuration
	// and order of calls give the same faults. 0 picks a fixed default.
	Seed int64
	// FailProb is the chance that a read, write or fsync of a segment
	// fails with ErrInjected.
	FailProb float64
	// DelayProb is the chance that a read, write or fsync of a segment
	// stalls for up to MaxDelay first.
	DelayProb float64
	// MaxDelay bounds one stall (default 5ms when DelayProb is set).
	MaxDelay time.Duration
	// SyncLie makes every fsync of a segment return at once with nothing
	// made durable: what was written stays held until a crash tears it.
	SyncLie bool
	// Telemetry, when non-nil, counts the faults injected
	// (store.fault.*).
	Telemetry *telemetry.Registry
}

// FaultCounters tallies a fault layer's schedule and what it injected.
type FaultCounters struct {
	Ops     uint64 // reads, writes and fsyncs of segments: the calls the schedule covers
	Fail    uint64 // calls failed with ErrInjected
	Delay   uint64 // calls stalled
	SyncLie uint64 // fsyncs that made nothing durable
	Dropped uint64 // held tails a crash lost whole
	Torn    uint64 // held tails a crash cut short, leaving a prefix on disk
}

// Faults is a fault layer under the Files opened through it. For each
// segment it holds in process memory the bytes written since the last
// honest fsync, and reads see them; an honest fsync writes them through
// and syncs, a lying one keeps them held. It fails and stalls reads,
// writes and fsyncs on a seeded schedule, and Crash tears every held
// tail. A process killed outright loses what is held the same way, so
// one layer models both an in-process crash and a SIGKILL. Directory
// calls pass through to the operating system unfaulted, but a File
// opened before a crash can no longer create, open or remove a segment.
type Faults struct {
	cfg FaultConfig
	// trigger, set only by this package's tests, runs before every read,
	// write, truncate and fsync of a segment and every creation or
	// removal of one, with the call's name; an error fails the call.
	trigger func(op string) error

	mu     sync.Mutex
	rng    *rand.Rand
	counts FaultCounters
	segs   []*heldFile // the segments of the Files opened since the last crash, oldest first
	epoch  uint64      // the crashes so far

	cFail, cDelay, cLie, cDropped, cTorn *telemetry.Counter
}

// NewFaults returns a fault layer with the schedule cfg describes.
func NewFaults(cfg FaultConfig) *Faults {
	if cfg.Seed == 0 {
		cfg.Seed = 1981
	}
	if cfg.DelayProb > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	return &Faults{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		cFail:    cfg.Telemetry.Counter("store.fault.injected.fail"),
		cDelay:   cfg.Telemetry.Counter("store.fault.injected.delay"),
		cLie:     cfg.Telemetry.Counter("store.fault.injected.synclie"),
		cDropped: cfg.Telemetry.Counter("store.fault.dropped"),
		cTorn:    cfg.Telemetry.Counter("store.fault.torn"),
	}
}

// Open opens the log in dir, as NewFile does, with the layer under it.
func (fl *Faults) Open(dir string) (*File, error) {
	fl.mu.Lock()
	v := &faultView{fl: fl, epoch: fl.epoch}
	fl.mu.Unlock()
	return openFile(dir, v)
}

// Crash is a power failure under every File opened through the layer:
// each segment's held tail is lost whole or torn, with a seeded prefix of
// it, never all, reaching the disk; and every later call on those
// segments fails, as a dead process's call never returns, as does every
// creation, opening or removal of a segment by those Files. A File opened
// through the layer afterwards reads what the disk kept.
func (fl *Faults) Crash() {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.epoch++
	for _, h := range fl.segs {
		if n := int64(len(h.held)); n > 0 {
			// Two draws a tail: whether it tears, and where.
			tear, at := fl.rng.Intn(2) == 1, fl.rng.Int63()
			keep := int64(0)
			if tear && n > 1 {
				keep = 1 + at%(n-1)
			}
			if keep == 0 {
				fl.counts.Dropped++
				fl.cDropped.Inc()
			} else {
				fl.counts.Torn++
				fl.cTorn.Inc()
				_, _ = h.fh.WriteAt(h.held[:keep], h.base) // a crash reports to no one
			}
		}
		h.dead, h.held = true, nil
		_ = h.fh.Close() // nor does anyone learn how the close went
	}
	fl.segs = nil
}

// Counters snapshots the layer's tallies.
func (fl *Faults) Counters() FaultCounters {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.counts
}

// trip runs the test trigger, if one is set.
func (fl *Faults) trip(op string) error {
	if fl.trigger != nil {
		return fl.trigger(op)
	}
	return nil
}

// inject trips the trigger, then draws op's slice of the schedule: two
// numbers, and a third when a stall is drawn, so that the schedule
// depends only on the seed, the configuration and the order of calls. A
// layer that neither fails nor stalls draws nothing, so its crashes tear
// the same way however many calls came first.
func (fl *Faults) inject(op string) error {
	if err := fl.trip(op); err != nil {
		return err
	}
	fl.mu.Lock()
	fl.counts.Ops++
	if fl.cfg.FailProb <= 0 && fl.cfg.DelayProb <= 0 {
		fl.mu.Unlock()
		return nil
	}
	fail := fl.rng.Float64() < fl.cfg.FailProb
	var delay time.Duration
	if fl.rng.Float64() < fl.cfg.DelayProb {
		delay = time.Duration(fl.rng.Int63n(int64(fl.cfg.MaxDelay) + 1))
		fl.counts.Delay++
		fl.cDelay.Inc()
	}
	if fail {
		fl.counts.Fail++
		fl.cFail.Inc()
	}
	fl.mu.Unlock()
	time.Sleep(delay)
	if fail {
		return ErrInjected
	}
	return nil
}

// faultView is the layer as one File sees it: the File opened in epoch,
// which dies with the epoch's crash.
type faultView struct {
	osFS  // list and syncDir, which change nothing a crash could lose
	fl    *Faults
	epoch uint64
}

var _ fsys = (*faultView)(nil)

// live locks the layer if v's File has outlived no crash; otherwise it
// returns errCrashed with the layer unlocked.
func (v *faultView) live() error {
	v.fl.mu.Lock()
	if v.epoch != v.fl.epoch {
		v.fl.mu.Unlock()
		return errCrashed
	}
	return nil
}

func (v *faultView) create(path string) (segIO, error) {
	if err := v.fl.trip("create"); err != nil {
		return nil, err
	}
	if err := v.live(); err != nil {
		return nil, err
	}
	defer v.fl.mu.Unlock()
	fh, err := osFS{}.create(path)
	if err != nil {
		return nil, err
	}
	return v.fl.hold(fh, 0), nil
}

func (v *faultView) open(path string, write bool) (segIO, int64, error) {
	if err := v.live(); err != nil {
		return nil, 0, err
	}
	defer v.fl.mu.Unlock()
	fh, size, err := osFS{}.open(path, write)
	if err != nil {
		return nil, 0, err
	}
	return v.fl.hold(fh, size), size, nil
}

func (v *faultView) remove(path string) error {
	if err := v.fl.trip("remove"); err != nil {
		return err
	}
	if err := v.live(); err != nil {
		return err
	}
	defer v.fl.mu.Unlock()
	return os.Remove(path)
}

// hold registers fh, size bytes long on disk, as a segment of the layer.
// Caller holds fl.mu.
func (fl *Faults) hold(fh segIO, size int64) *heldFile {
	h := &heldFile{fl: fl, fh: fh, base: size}
	fl.segs = append(fl.segs, h)
	return h
}

// heldFile is a segment under the fault layer: the disk file up to base,
// then what is held. The layer's mu guards it.
type heldFile struct {
	fl   *Faults
	fh   segIO  // the file on disk
	base int64  // where what is held begins; the disk holds at least this much
	held []byte // written since the last honest fsync, from base on
	pos  int64  // Read's offset
	dead bool   // closed, or killed by Crash
}

// readAt reads the segment as its writer sees it. Caller holds fl.mu.
func (h *heldFile) readAt(b []byte, off int64) (int, error) {
	if h.dead {
		return 0, errCrashed
	}
	n := 0
	if off < h.base {
		k, err := h.fh.ReadAt(b[:min(int64(len(b)), h.base-off)], off)
		if n = k; err != nil {
			return n, err
		}
	}
	if at := off + int64(n) - h.base; n < len(b) && at < int64(len(h.held)) {
		n += copy(b[n:], h.held[at:])
	}
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// Read serves the open pass's scan, unfaulted.
func (h *heldFile) Read(b []byte) (int, error) {
	h.fl.mu.Lock()
	defer h.fl.mu.Unlock()
	n, err := h.readAt(b, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *heldFile) ReadAt(b []byte, off int64) (int, error) {
	if err := h.fl.inject("read"); err != nil {
		return 0, err
	}
	h.fl.mu.Lock()
	defer h.fl.mu.Unlock()
	return h.readAt(b, off)
}

// WriteAt holds b.
func (h *heldFile) WriteAt(b []byte, off int64) (int, error) {
	if err := h.fl.inject("write"); err != nil {
		return 0, err
	}
	h.fl.mu.Lock()
	defer h.fl.mu.Unlock()
	if h.dead {
		return 0, errCrashed
	}
	if off < h.base {
		// The log writes only past what it made durable, but one that
		// failed to cut a torn tail would not; the disk then keeps what
		// b overwrites until an fsync, as a disk does.
		under := make([]byte, h.base-off)
		if _, err := h.fh.ReadAt(under, off); err != nil {
			return 0, err
		}
		h.held, h.base = append(under, h.held...), off
	}
	h.resize(max(off+int64(len(b)), h.base+int64(len(h.held))))
	copy(h.held[off-h.base:], b)
	return len(b), nil
}

// resize makes what is held end at size, which is at least base, with
// zeros where it grows. Caller holds fl.mu.
func (h *heldFile) resize(size int64) {
	n, old := int(size-h.base), len(h.held)
	if n <= old {
		h.held = h.held[:n]
		return
	}
	h.held = slices.Grow(h.held, n-old)[:n]
	clear(h.held[old:])
}

// Truncate cuts what is held, or below base the disk file itself.
func (h *heldFile) Truncate(size int64) error {
	if err := h.fl.trip("truncate"); err != nil {
		return err
	}
	h.fl.mu.Lock()
	defer h.fl.mu.Unlock()
	if h.dead {
		return errCrashed
	}
	if size >= h.base {
		h.resize(size)
		return nil
	}
	h.held, h.base = h.held[:0], size
	return h.fh.Truncate(size)
}

// Sync writes what is held through and syncs it, unless the layer lies.
func (h *heldFile) Sync() error {
	if err := h.fl.inject("sync"); err != nil {
		return err
	}
	fl := h.fl
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if h.dead {
		return errCrashed
	}
	if fl.cfg.SyncLie {
		fl.counts.SyncLie++
		fl.cLie.Inc()
		return nil
	}
	if _, err := h.fh.WriteAt(h.held, h.base); err != nil {
		return err
	}
	h.base += int64(len(h.held))
	h.held = h.held[:0]
	return h.fh.Sync()
}

// Close hands what is held to the operating system unsynced, as closing
// a file does. A segment Crash killed is closed already.
func (h *heldFile) Close() error {
	fl := h.fl
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if h.dead {
		return nil
	}
	h.dead = true
	fl.segs = slices.DeleteFunc(fl.segs, func(o *heldFile) bool { return o == h })
	_, err := h.fh.WriteAt(h.held, h.base)
	if cerr := h.fh.Close(); err == nil {
		err = cerr
	}
	return err
}
