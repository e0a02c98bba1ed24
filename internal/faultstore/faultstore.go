// Package faultstore wraps a store.Store with deterministic fault
// injection: the storage half of the crash harness.
//
// The store's contract — a reader sees the previous checkpoint or the
// new one, never a torn mixture — is exactly what reincarnation
// trusts, and exactly what real media violate in interesting ways.
// This wrapper injects those violations on a seeded, reproducible
// schedule:
//
//   - failed I/O: operations return ErrInjected (wrapping
//     store.ErrFailed), modeling a dead or erroring medium;
//   - delayed I/O: operations stall for a bounded random time,
//     modeling a congested or degrading device;
//   - torn writes: a Put reports success but leaves a corrupt record,
//     modeling an interrupted in-place write (what the file store's
//     checksummed log frames exist to catch);
//   - fsync lies: a Put is acknowledged but retained only in a
//     volatile overlay, modeling a device (or filesystem) that
//     acknowledges sync before data is durable. The process sees its
//     own writes (as it would through the page cache); a crash —
//     Crash or DropUnsynced — loses them.
//
// Every injected fault is counted and logged, so a harness can
// reconcile "faults the schedule injected" against "failures the
// system observed", and any breach artifact can name the seed that
// reproduces it.
package faultstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"eden/internal/edenid"
	"eden/internal/store"
	"eden/internal/telemetry"
)

// ErrInjected is the error returned by operations the schedule chose
// to fail. It wraps store.ErrFailed, so callers that tolerate media
// failure tolerate injected failure identically.
var ErrInjected = fmt.Errorf("%w: injected", store.ErrFailed)

// Kind classifies one injected fault.
type Kind uint8

const (
	// KindFail is a failed operation (ErrInjected).
	KindFail Kind = iota
	// KindDelay is a delayed operation.
	KindDelay
	// KindTorn is a Put that wrote a corrupt record while reporting
	// success.
	KindTorn
	// KindSyncLie is a Put acknowledged into the volatile overlay
	// only.
	KindSyncLie
	// KindDropped is an unsynced record lost by Crash/DropUnsynced.
	KindDropped
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KindFail:
		return "fail"
	case KindDelay:
		return "delay"
	case KindTorn:
		return "torn"
	case KindSyncLie:
		return "sync-lie"
	case KindDropped:
		return "dropped"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one entry of the fault schedule, recorded as it happens.
type Event struct {
	// Seq is the 1-based position in the store's operation sequence.
	Seq uint64
	// Op is the operation the fault hit ("put", "get", "delete",
	// "list", "crash").
	Op string
	// Kind is the fault injected.
	Kind Kind
	// Object names the checkpoint record the fault hit, as a hex
	// string (zero-valued for list-wide faults).
	Object string
}

// Counters tallies injected faults by kind.
type Counters struct {
	Fail    uint64
	Delay   uint64
	Torn    uint64
	SyncLie uint64
	Dropped uint64
}

// Config tunes the fault schedule. The zero value injects nothing —
// the wrapper is then a transparent pass-through with an overlay only
// if SyncLie is set.
type Config struct {
	// Seed makes the schedule reproducible: the same seed, config and
	// operation sequence produce the same faults. 0 picks a fixed
	// default.
	Seed int64
	// FailProb is the probability an operation fails with ErrInjected.
	FailProb float64
	// DelayProb is the probability an operation is delayed by up to
	// MaxDelay.
	DelayProb float64
	// MaxDelay bounds one injected delay (default 5ms when DelayProb
	// is set).
	MaxDelay time.Duration
	// TornProb is the probability a Put tears: the inner store
	// receives a corrupt record while the caller sees success.
	TornProb float64
	// SyncLie makes every Put lie about durability: acknowledged
	// writes live in a volatile overlay until Sync is called; Crash
	// and DropUnsynced lose them.
	SyncLie bool
	// Telemetry, when non-nil, receives fault counters
	// (store.fault.injected.* and the store.fault.unsynced gauge).
	Telemetry *telemetry.Registry
}

// Metric names reported when Config.Telemetry is set.
const (
	metricFail     = "store.fault.injected.fail"
	metricDelay    = "store.fault.injected.delay"
	metricTorn     = "store.fault.injected.torn"
	metricSyncLie  = "store.fault.injected.synclie"
	metricDropped  = "store.fault.dropped"
	metricUnsynced = "store.fault.unsynced"
)

// overlayRec is one unsynced record (or tombstone) in the volatile
// overlay.
type overlayRec struct {
	rec store.Record
	del bool
}

// Store wraps an inner store.Store with the fault schedule. It
// implements store.Store and is safe for concurrent use; the schedule
// is deterministic for a serial operation sequence (concurrent callers
// interleave their draws in arrival order).
type Store struct {
	inner store.Store
	cfg   Config

	mu       sync.Mutex
	rng      *rand.Rand
	seq      uint64
	events   []Event
	counts   Counters
	unsynced map[edenid.ID]overlayRec

	cFail, cDelay, cTorn, cLie, cDropped *telemetry.Counter
	gUnsynced                            *telemetry.Gauge
}

var _ store.Store = (*Store)(nil)

// maxEvents bounds the schedule log; counters keep exact totals beyond
// it.
const maxEvents = 8192

// Wrap decorates inner with the fault schedule described by cfg.
func Wrap(inner store.Store, cfg Config) *Store {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1981
	}
	if cfg.DelayProb > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	s := &Store{
		inner:    inner,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		unsynced: make(map[edenid.ID]overlayRec),

		cFail:     cfg.Telemetry.Counter(metricFail),
		cDelay:    cfg.Telemetry.Counter(metricDelay),
		cTorn:     cfg.Telemetry.Counter(metricTorn),
		cLie:      cfg.Telemetry.Counter(metricSyncLie),
		cDropped:  cfg.Telemetry.Counter(metricDropped),
		gUnsynced: cfg.Telemetry.Gauge(metricUnsynced),
	}
	return s
}

// Unwrap exposes the inner store (store.Unwrap peels this wrapper like
// the telemetry one).
func (s *Store) Unwrap() store.Store { return s.inner }

// decision is one operation's slice of the schedule, drawn under the
// lock so the draw order matches the operation order.
type decision struct {
	fail  bool
	delay time.Duration
	torn  bool
}

// draw consumes a fixed number of random values per operation (three
// floats, plus one for a delay duration when a delay fires), so the
// schedule depends only on seed, config and operation order.
func (s *Store) draw(op string, id edenid.ID) decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	f1, f2, f3 := s.rng.Float64(), s.rng.Float64(), s.rng.Float64()
	var d decision
	if s.cfg.FailProb > 0 && f1 < s.cfg.FailProb {
		d.fail = true
		s.counts.Fail++
		s.cFail.Inc()
		s.record(op, KindFail, id)
	}
	if s.cfg.DelayProb > 0 && f2 < s.cfg.DelayProb {
		d.delay = time.Duration(s.rng.Int63n(int64(s.cfg.MaxDelay) + 1))
		s.counts.Delay++
		s.cDelay.Inc()
		s.record(op, KindDelay, id)
	}
	if op == "put" && s.cfg.TornProb > 0 && f3 < s.cfg.TornProb {
		d.torn = true
		s.counts.Torn++
		s.cTorn.Inc()
		s.record(op, KindTorn, id)
	}
	return d
}

// record appends one schedule event. Caller holds s.mu.
func (s *Store) record(op string, k Kind, id edenid.ID) {
	if len(s.events) < maxEvents {
		obj := ""
		if !id.IsNil() {
			obj = fmt.Sprintf("%v", id)
		}
		s.events = append(s.events, Event{Seq: s.seq, Op: op, Kind: k, Object: obj})
	}
}

// Put implements store.Store under the fault schedule.
func (s *Store) Put(rec store.Record) error {
	d := s.draw("put", rec.Object)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		return ErrInjected
	}
	if d.torn {
		// The write "succeeds" but the medium retains a mutilated
		// record: the version header lands, the representation does
		// not. Only records that would have been accepted tear — a
		// stale Put is rejected before touching the medium.
		if err := s.staleCheck(rec); err != nil {
			return err
		}
		torn := rec
		torn.Rep = tearBytes(rec.Rep)
		if err := s.inner.Put(torn); err != nil {
			return err
		}
		s.dropOverlay(rec.Object)
		return nil
	}
	if s.cfg.SyncLie {
		if err := s.staleCheck(rec); err != nil {
			return err
		}
		s.mu.Lock()
		rec.Rep = append([]byte(nil), rec.Rep...)
		s.unsynced[rec.Object] = overlayRec{rec: rec}
		n := int64(len(s.unsynced))
		s.counts.SyncLie++
		s.mu.Unlock()
		s.cLie.Inc()
		s.gUnsynced.Set(n)
		return nil
	}
	return s.inner.Put(rec)
}

// staleCheck enforces the version-advance contract against the merged
// overlay+inner view, so a lying or tearing store still rejects stale
// checkpoints exactly like a healthy one.
func (s *Store) staleCheck(rec store.Record) error {
	if cur, ok := s.Stat(rec.Object); ok && rec.Version <= cur.Version {
		return fmt.Errorf("%w: have v%d, got v%d", store.ErrStale, cur.Version, rec.Version)
	}
	return nil
}

// dropOverlay removes any unsynced overlay entry for id (a torn write
// replaced it on the medium). Takes s.mu.
func (s *Store) dropOverlay(id edenid.ID) {
	s.mu.Lock()
	delete(s.unsynced, id)
	n := int64(len(s.unsynced))
	s.mu.Unlock()
	s.gUnsynced.Set(n)
}

// tearBytes mutilates an encoded representation the way an interrupted
// write would: a prefix survives, the tail is gone.
func tearBytes(b []byte) []byte {
	if len(b) < 2 {
		return []byte{0xde}
	}
	return append([]byte(nil), b[:len(b)/2]...)
}

// Get implements store.Store: the overlay (unsynced but acknowledged
// writes, visible to the writing process as they would be through a
// page cache) shadows the inner store.
func (s *Store) Get(id edenid.ID) (store.Record, error) {
	d := s.draw("get", id)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		return store.Record{}, ErrInjected
	}
	return s.peek(id)
}

// peek reads like Get but consumes no schedule draw and injects no
// fault, so a check made through it cannot perturb (or be perturbed by)
// the schedule.
func (s *Store) peek(id edenid.ID) (store.Record, error) {
	s.mu.Lock()
	o, ok := s.unsynced[id]
	s.mu.Unlock()
	if ok {
		if o.del {
			return store.Record{}, fmt.Errorf("%w: %v", store.ErrNotFound, id)
		}
		rec := o.rec
		rec.Rep = append([]byte(nil), rec.Rep...)
		return rec, nil
	}
	return s.inner.Get(id)
}

// Stat implements store.Store over the same merged view as Get: an
// unsynced record or tombstone shadows the inner store, and a torn
// record answers as the medium holds it. It asks about the store rather
// than reading the medium, so like peek it consumes no schedule draw
// and injects no fault.
func (s *Store) Stat(id edenid.ID) (store.Meta, bool) {
	s.mu.Lock()
	o, ok := s.unsynced[id]
	s.mu.Unlock()
	if ok {
		return o.rec.Meta(), !o.del
	}
	return s.inner.Stat(id)
}

// Delete implements store.Store. Under SyncLie the deletion is itself
// unsynced: a tombstone shadows the inner record until Sync, and a
// crash resurrects it.
func (s *Store) Delete(id edenid.ID) error {
	d := s.draw("delete", id)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		return ErrInjected
	}
	if s.cfg.SyncLie {
		s.mu.Lock()
		s.unsynced[id] = overlayRec{del: true}
		n := int64(len(s.unsynced))
		s.counts.SyncLie++
		s.mu.Unlock()
		s.cLie.Inc()
		s.gUnsynced.Set(n)
		return nil
	}
	return s.inner.Delete(id)
}

// List implements store.Store, merging overlay and inner views.
func (s *Store) List() ([]edenid.ID, error) {
	d := s.draw("list", edenid.ID{})
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		return nil, ErrInjected
	}
	ids, err := s.inner.List()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	merged := make(map[edenid.ID]bool, len(ids)+len(s.unsynced))
	for _, id := range ids {
		merged[id] = true
	}
	for id, o := range s.unsynced {
		if o.del {
			delete(merged, id)
		} else {
			merged[id] = true
		}
	}
	s.mu.Unlock()
	out := make([]edenid.ID, 0, len(merged))
	for id := range merged {
		out = append(out, id)
	}
	slices.SortFunc(out, edenid.Compare)
	return out, nil
}

// PutIntent implements store.Store under the fault schedule. Intents
// get fail and delay injection only: the torn and sync-lie modes hold
// their overlay keyed by object ID, which a move intent shares with the
// object's checkpoint record, so modeling them here would corrupt the
// checkpoint overlay. The file store writes intents as checksummed log
// frames, as it does checkpoints, so a torn intent is a torn tail it
// cuts off, never one it reads back.
func (s *Store) PutIntent(it store.MoveIntent) error {
	d := s.draw("put-intent", it.Object)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		return ErrInjected
	}
	return s.inner.PutIntent(it)
}

// DeleteIntent implements store.Store under the fault schedule.
func (s *Store) DeleteIntent(id edenid.ID) error {
	d := s.draw("delete-intent", id)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		return ErrInjected
	}
	return s.inner.DeleteIntent(id)
}

// ListIntents implements store.Store under the fault schedule.
func (s *Store) ListIntents() ([]store.MoveIntent, error) {
	d := s.draw("list-intents", edenid.ID{})
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		return nil, ErrInjected
	}
	return s.inner.ListIntents()
}

// Sync flushes the unsynced overlay to the inner store — the moment a
// lying fsync would finally make the data durable. It reports the
// first flush error; flushed entries are removed even on partial
// failure (they are gone from the overlay either way on real media).
func (s *Store) Sync() error {
	s.mu.Lock()
	pending := s.unsynced
	s.unsynced = make(map[edenid.ID]overlayRec)
	s.mu.Unlock()
	s.gUnsynced.Set(0)
	var firstErr error
	for id, o := range pending {
		var err error
		if o.del {
			err = s.inner.Delete(id)
		} else {
			err = s.inner.Put(o.rec)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DropUnsynced models the crash consequence of the fsync lie: every
// acknowledged-but-unsynced write (and unsynced deletion) is lost, and
// the inner store's older state resurfaces. It returns how many
// records were dropped.
func (s *Store) DropUnsynced() int {
	s.mu.Lock()
	n := len(s.unsynced)
	s.unsynced = make(map[edenid.ID]overlayRec)
	s.counts.Dropped += uint64(n)
	s.seq++
	if n > 0 {
		s.record("crash", KindDropped, edenid.ID{})
	}
	s.mu.Unlock()
	s.cDropped.Add(int64(n))
	s.gUnsynced.Set(0)
	return n
}

// UnsyncedLen reports how many acknowledged writes are currently held
// only in the volatile overlay.
func (s *Store) UnsyncedLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.unsynced)
}

// Counters snapshots the per-kind fault tallies.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

// Events returns the recorded fault schedule (capped; Counters keeps
// exact totals).
func (s *Store) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Ops reports how many store operations have consumed a schedule slot.
func (s *Store) Ops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}
