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
	// Telemetry, when non-nil, reads the layer's Counters
	// (store.fault.*).
	Telemetry *telemetry.Registry
}

// FaultCounters tallies a fault layer's schedule and what it injected.
type FaultCounters struct {
	Ops     uint64 `metric:"store.fault.ops"`              // reads, writes and fsyncs of segments: the calls the schedule covers
	Fail    uint64 `metric:"store.fault.injected.fail"`    // calls failed with ErrInjected
	Delay   uint64 `metric:"store.fault.injected.delay"`   // calls stalled
	SyncLie uint64 `metric:"store.fault.injected.synclie"` // fsyncs that made nothing durable
	Dropped uint64 `metric:"store.fault.dropped"`          // held tails a crash lost whole
	Torn    uint64 `metric:"store.fault.torn"`             // held tails a crash cut short, leaving a prefix on the medium
}

// Faults is a fault layer under the Files opened through it. For each
// segment it holds in process memory the bytes written since the last
// honest fsync, and reads see them; an honest fsync writes them through
// and syncs, a lying one keeps them held. It fails and stalls reads,
// writes and fsyncs on a seeded schedule, and Crash tears every held
// tail. A process killed outright loses what is held the same way, so
// one layer models both an in-process crash and a SIGKILL. The layer runs
// over the medium its Files were opened on, the disk or memory. Directory
// calls pass through to it unfaulted, but a File opened before a crash can
// no longer create, open or remove a segment.
type Faults struct {
	cfg FaultConfig
	// trigger, set only by this package's tests, runs before every read,
	// write, truncate and fsync of a segment and every creation or
	// removal of one, with the call's name; an error fails the call.
	trigger func(op string) error

	mu     sync.Mutex
	rng    *rand.Rand
	counts FaultCounters
	fail   error       // what FailWith armed; nil when healed
	segs   []*heldFile // the segments of the Files opened since the last crash, oldest first
	mem    []*memFS    // the in-memory media of the Files opened through the layer
	epoch  uint64      // the crashes so far
}

// NewFaults returns a fault layer with the schedule cfg describes.
func NewFaults(cfg FaultConfig) *Faults {
	if cfg.Seed == 0 {
		cfg.Seed = 1981
	}
	if cfg.DelayProb > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	fl := &Faults{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	cfg.Telemetry.Report(func() any { return fl.Counters() }) // for the layer's life: it has no Close
	return fl
}

// Open opens the log in dir, as NewFile does, with the layer under it. An
// empty dir keeps the log in memory, on a medium of its own that Crash
// power-fails too.
func (fl *Faults) Open(dir string) (*File, error) {
	return openFile(dir, fl.view(medium(dir)))
}

// view is the layer over m as a File opened now sees it.
func (fl *Faults) view(m fsys) *faultView {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if mem, ok := m.(*memFS); ok && !slices.Contains(fl.mem, mem) {
		fl.mem = append(fl.mem, mem)
	}
	return &faultView{fsys: m, fl: fl, epoch: fl.epoch}
}

// FailWith makes every read, write and fsync of a segment through the
// layer fail with err until FailWith(nil) heals it. Cutting a failed write
// back still succeeds, so the log ends where it did and takes writes again
// once healed.
func (fl *Faults) FailWith(err error) {
	fl.mu.Lock()
	fl.fail = err
	fl.mu.Unlock()
}

// Crash is a power failure under every File opened through the layer:
// each segment's held tail is lost whole or torn, with a seeded prefix of
// it, never all, reaching the medium; and every later call on those
// segments fails, as a dead process's call never returns, as does every
// creation, opening or removal of a segment by those Files. An in-memory
// medium also loses what was written without an fsync before its File
// closed. A File opened through the layer afterwards reads what the medium
// kept.
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
			} else {
				fl.counts.Torn++
				// A crash reports to no one.
				_, _ = h.fh.WriteAt(h.held[:keep], h.base)
				_ = h.fh.Sync()
			}
		}
		h.dead, h.held = true, nil
		_ = h.fh.Close() // nor does anyone learn how the close went
	}
	fl.segs = nil
	for _, m := range fl.mem {
		m.powerFail()
	}
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

// inject trips the trigger, fails op if FailWith armed the layer, and
// otherwise draws op's slice of the schedule: two numbers, and a third
// when a stall is drawn, so that the schedule depends only on the seed,
// the configuration and the order of calls. A layer that neither fails
// nor stalls draws nothing, so its crashes tear the same way however
// many calls came first.
func (fl *Faults) inject(op string) error {
	if err := fl.trip(op); err != nil {
		return err
	}
	fl.mu.Lock()
	fl.counts.Ops++
	if err := fl.fail; err != nil {
		fl.mu.Unlock()
		return err
	}
	if fl.cfg.FailProb <= 0 && fl.cfg.DelayProb <= 0 {
		fl.mu.Unlock()
		return nil
	}
	fail := fl.rng.Float64() < fl.cfg.FailProb
	var delay time.Duration
	if fl.rng.Float64() < fl.cfg.DelayProb {
		delay = time.Duration(fl.rng.Int63n(int64(fl.cfg.MaxDelay) + 1))
		fl.counts.Delay++
	}
	if fail {
		fl.counts.Fail++
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
	fsys  // the medium; mkdirAll, list and syncDir change nothing a crash could lose
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

// open registers the segment it opens, size bytes long on the medium, as
// one the layer holds.
func (v *faultView) open(path string, flag int) (segIO, int64, error) {
	if flag&os.O_CREATE != 0 {
		if err := v.fl.trip("create"); err != nil {
			return nil, 0, err
		}
	}
	if err := v.live(); err != nil {
		return nil, 0, err
	}
	defer v.fl.mu.Unlock()
	fh, size, err := v.fsys.open(path, flag)
	if err != nil {
		return nil, 0, err
	}
	h := &heldFile{fl: v.fl, fh: fh, base: size}
	v.fl.segs = append(v.fl.segs, h)
	return h, size, nil
}

func (v *faultView) remove(path string) error {
	if err := v.fl.trip("remove"); err != nil {
		return err
	}
	if err := v.live(); err != nil {
		return err
	}
	defer v.fl.mu.Unlock()
	return v.fsys.remove(path)
}

// heldFile is a segment under the fault layer: the medium's file up to base,
// then what is held. The layer's mu guards it.
type heldFile struct {
	fl   *Faults
	fh   segIO    // the file on the medium
	base int64    // where what is held begins; the medium holds at least this much
	held memBytes // written since the last honest fsync, from base on
	dead bool     // closed, or killed by Crash
}

// Read serves the open pass's scan, unfaulted: it reads the medium, since
// the scan runs before anything is held.
func (h *heldFile) Read(b []byte) (int, error) { return h.fh.Read(b) }

// ReadAt reads the segment as its writer sees it.
func (h *heldFile) ReadAt(b []byte, off int64) (int, error) {
	if err := h.fl.inject("read"); err != nil {
		return 0, err
	}
	h.fl.mu.Lock()
	defer h.fl.mu.Unlock()
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
	if n < len(b) {
		n += h.held.readAt(b[n:], off+int64(n)-h.base)
	}
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
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
		// failed to cut a torn tail would not; the medium then keeps
		// what b overwrites until an fsync, as a disk does.
		under := make([]byte, h.base-off)
		if _, err := h.fh.ReadAt(under, off); err != nil {
			return 0, err
		}
		h.held, h.base = append(under, h.held...), off
	}
	h.held.writeAt(b, off-h.base)
	return len(b), nil
}

// Truncate cuts what is held, or below base the medium's file itself.
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
		h.held.resize(size - h.base)
		return nil
	}
	h.held, h.base = nil, size
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
		return nil
	}
	if _, err := h.fh.WriteAt(h.held, h.base); err != nil {
		return err
	}
	h.base += int64(len(h.held))
	h.held.resize(0)
	return h.fh.Sync()
}

// Close hands what is held to the medium unsynced, as closing a file
// does. A segment Crash killed is closed already.
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
