package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/edenid"
	"eden/internal/telemetry"
)

// diskSize sums the lengths on disk of the log's segments in dir.
func diskSize(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, name := range segmentFiles(t, dir) {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// crashAtSync makes the n-th fsync through fl a crash: the layer dies
// inside it, and the fsync never returns success.
func crashAtSync(fl *Faults, n int64) {
	var syncs atomic.Int64
	fl.trigger = func(op string) error {
		if op == "sync" && syncs.Add(1) == n {
			fl.Crash()
			return errors.New("crashed inside the fsync")
		}
		return nil
	}
}

// TestFaultsDeterministic: the same seed, configuration and calls give
// the same faults.
func TestFaultsDeterministic(t *testing.T) {
	run := func() (string, FaultCounters) {
		fl := NewFaults(FaultConfig{Seed: 7, FailProb: 0.3, DelayProb: 0.3, MaxDelay: 100 * time.Microsecond})
		f, err := fl.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var trace strings.Builder
		rec := sampleRec(0)
		for i := 0; i < 40; i++ {
			rec.Version++
			perr := f.Put(rec)
			_, gerr := f.Get(rec.Object)
			fmt.Fprintf(&trace, "%v/%v ", perr != nil, gerr != nil)
		}
		return trace.String(), fl.Counters()
	}
	trace1, c1 := run()
	trace2, c2 := run()
	if trace1 != trace2 || c1 != c2 {
		t.Errorf("same seed, different schedules:\n%s %+v\n%s %+v", trace1, c1, trace2, c2)
	}
	if c1.Fail == 0 || c1.Delay == 0 {
		t.Errorf("nothing injected: %+v", c1)
	}
}

// TestFaultsInjectedWrapsErrFailed: an injected failure is a store
// failure to every caller that checks for one.
func TestFaultsInjectedWrapsErrFailed(t *testing.T) {
	if !errors.Is(ErrInjected, ErrFailed) {
		t.Fatal("ErrInjected does not wrap ErrFailed")
	}
}

// TestFaultsDelayInjection: with a stall drawn on every call, each
// read, write and fsync stalls once and still completes, and the
// layer and telemetry both count every stall.
func TestFaultsDelayInjection(t *testing.T) {
	reg := telemetry.New()
	fl := NewFaults(FaultConfig{Seed: 3, DelayProb: 1, MaxDelay: time.Millisecond, Telemetry: reg})
	f, err := fl.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := sampleRec(0)
	for i := 0; i < 5; i++ {
		rec.Version++
		if err := f.Put(rec); err != nil {
			t.Fatalf("Put under stalls: %v", err)
		}
		if _, err := f.Get(rec.Object); err != nil {
			t.Fatalf("Get under stalls: %v", err)
		}
	}
	c := fl.Counters()
	if c.Fail != 0 || c.Ops == 0 || c.Delay != c.Ops {
		t.Fatalf("counters = %+v, want a stall on each of Ops and no failure", c)
	}
	if got := reg.Counter("store.fault.injected.delay").Value(); uint64(got) != c.Delay {
		t.Fatalf("store.fault.injected.delay = %d, want %d", got, c.Delay)
	}
}

// TestFaultsCountersReconcile: every failure a caller sees is one the
// layer counted, each read, write and fsync draws once, and the
// telemetry counters agree.
func TestFaultsCountersReconcile(t *testing.T) {
	reg := telemetry.New()
	fl := NewFaults(FaultConfig{Seed: 3, FailProb: 0.2, DelayProb: 0.2, MaxDelay: 50 * time.Microsecond, Telemetry: reg})
	f, err := fl.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var calls uint64
	fl.trigger = func(op string) error {
		switch op {
		case "read", "write", "sync":
			calls++
		}
		return nil
	}
	var seen uint64
	rec := sampleRec(0)
	for i := 0; i < 100; i++ {
		rec.Version++
		if err := f.Put(rec); errors.Is(err, ErrInjected) {
			seen++
		} else if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Get(rec.Object); errors.Is(err, ErrInjected) {
			seen++
		}
	}
	c := fl.Counters()
	if c.Fail != seen || c.Ops != calls {
		t.Errorf("counted %d failures over %d draws; callers saw %d over %d calls", c.Fail, c.Ops, seen, calls)
	}
	if c.Delay == 0 {
		t.Error("no stall injected")
	}
	for name, want := range map[string]uint64{"store.fault.injected.fail": c.Fail, "store.fault.injected.delay": c.Delay} {
		if got := reg.Counter(name).Value(); uint64(got) != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestFaultsSyncLie: a lying fsync acknowledges a write the disk never
// sees, though reads do; the crash loses it, and the reopened log is
// what the disk kept. Closing hands what is held to the disk.
func TestFaultsSyncLie(t *testing.T) {
	dir := t.TempDir()
	fl := NewFaults(FaultConfig{Seed: 5, SyncLie: true})
	f, err := fl.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{sampleRec(1), sampleRec(1), sampleRec(1)}
	for _, rec := range recs {
		if err := f.Put(rec); err != nil {
			t.Fatal(err)
		}
		if got, err := f.Get(rec.Object); err != nil || !bytes.Equal(got.Rep, rec.Rep) {
			t.Fatalf("Get of an acknowledged record: %v", err)
		}
	}
	if c := fl.Counters(); c.SyncLie != uint64(len(recs)) {
		t.Errorf("%d lying fsyncs for %d Puts", c.SyncLie, len(recs))
	}
	if n := diskSize(t, dir); n != 0 {
		t.Errorf("%d bytes on disk under lying fsyncs", n)
	}
	fl.Crash()
	f.Close()
	if c := fl.Counters(); c.Dropped+c.Torn != 1 {
		t.Errorf("the crash lost %d tails and tore %d, want one in all", c.Dropped, c.Torn)
	}
	g, err := fl.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Stat(recs[len(recs)-1].Object); ok {
		t.Error("the last acknowledged record survived a crash under lying fsyncs")
	}
	checkDirectory(t, g, "after the crash")
	last := sampleRec(1)
	if err := g.Put(last); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, ok := h.Stat(last.Object); !ok {
		t.Error("a record held when its store closed never reached the disk")
	}
}

// TestFaultsCrashTearsTail: a crash inside a batch's fsync leaves none
// of the batch on disk, or a torn prefix of it; the reopen cuts the torn
// frame off, keeps the acknowledged record before it, and the next Put
// appends at the clean tail. Seeds are tried until both have happened.
func TestFaultsCrashTearsTail(t *testing.T) {
	var seen FaultCounters
	for seed := int64(1); seen.Torn == 0 || seen.Dropped == 0; seed++ {
		if seed > 64 {
			t.Fatalf("64 crashes: %d torn, %d dropped", seen.Torn, seen.Dropped)
		}
		dir := t.TempDir()
		fl := NewFaults(FaultConfig{Seed: seed})
		f, err := fl.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		acked := sampleRec(1)
		if err := f.Put(acked); err != nil {
			t.Fatal(err)
		}
		end := f.head().size
		if n := diskSize(t, dir); n != end {
			t.Fatalf("seed %d: %d bytes on disk after an acknowledged Put, want %d", seed, n, end)
		}
		crashAtSync(fl, 1)
		lost := sampleRec(1)
		lost.Rep = bytes.Repeat([]byte{7}, 200)
		if err := f.Put(lost); err == nil {
			t.Fatalf("seed %d: a Put whose fsync crashed succeeded", seed)
		}
		f.Close()
		fl.trigger = nil
		c := fl.Counters()
		torn := diskSize(t, dir) - end
		if c.Torn+c.Dropped != 1 || (torn > 0) != (c.Torn == 1) {
			t.Fatalf("seed %d: %d bytes past the acknowledged end, counters %+v", seed, torn, c)
		}
		g, err := fl.Open(dir)
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		if n := diskSize(t, dir); n != end {
			t.Errorf("seed %d: %d bytes on disk after the reopen, want the clean tail %d", seed, n, end)
		}
		if got, err := g.Get(acked.Object); err != nil || !bytes.Equal(got.Rep, acked.Rep) {
			t.Errorf("seed %d: the acknowledged record: %v", seed, err)
		}
		if _, ok := g.Stat(lost.Object); ok {
			t.Errorf("seed %d: the crashed batch survived", seed)
		}
		next := sampleRec(1)
		if err := g.Put(next); err != nil {
			t.Fatal(err)
		}
		if at := recordAt(t, g, next.Object).off; at != end {
			t.Errorf("seed %d: next Put at %d, want the clean tail %d", seed, at, end)
		}
		g.Close()
		seen.Torn += c.Torn
		seen.Dropped += c.Dropped
	}
}

// TestFaultsCrashFencesDeadFile: a crash that lands between a batch's
// fsync and the seal that batch begins leaves the dead File unable to
// start a segment or write to its head. Nothing it attempts afterwards
// reaches the disk, and the reopened log holds the acknowledged batch.
func TestFaultsCrashFencesDeadFile(t *testing.T) {
	dir := t.TempDir()
	f, fl := openFaulty(t, dir)
	f.segSize = 1 // the first batch fills the head
	fl.trigger = func(op string) error {
		if op == "create" {
			fl.Crash()
		}
		return nil
	}
	acked := sampleRec(1)
	if err := f.Put(acked); err != nil {
		t.Fatalf("the batch made durable before the crash: %v", err)
	}
	fl.trigger = nil
	durable := diskSize(t, dir)
	late := sampleRec(1)
	if err := f.Put(late); err == nil {
		t.Error("a Put through the crashed File succeeded")
	}
	f.Close()
	if segs := segmentFiles(t, dir); len(segs) != 1 {
		t.Errorf("segments after the crash: %v, want only the first", segs)
	}
	if n := diskSize(t, dir); n != durable {
		t.Errorf("%d bytes on disk after the crashed File's Put and Close, want %d", n, durable)
	}
	g, err := fl.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, ok := g.Stat(acked.Object); !ok {
		t.Error("the batch acknowledged before the crash is gone")
	}
	if _, ok := g.Stat(late.Object); ok {
		t.Error("the crashed File's Put survived")
	}
	checkDirectory(t, g, "after the crash")
}

// loopRec is version v of object id in the crash loop: its length and
// every byte of it follow from v, so a read can tell it is whole.
func loopRec(id edenid.ID, v uint64) Record {
	return Record{Object: id, TypeName: "loop", Version: v, Rep: bytes.Repeat([]byte{byte(v)}, int(v*37%300))}
}

// TestFaultsCrashLoop crash-loops a log of small segments under
// concurrent writers, on each medium: each cycle the layer dies inside a
// seeded fsync, and the reopened log must hold every acknowledged record
// whole and replay to its own directory. Segments seal and compact across
// cycles, so a torn tail the reopen left in place ends up inside a sealed
// one.
func TestFaultsCrashLoop(t *testing.T) {
	for _, m := range []struct{ name, dir string }{{"disk", t.TempDir()}, {"memory", ""}} {
		t.Run(m.name, func(t *testing.T) { crashLoop(t, m.dir) })
	}
}

func crashLoop(t *testing.T, dir string) {
	const seed, cycles, writers, perWriter = 31, 40, 3, 4
	rng := rand.New(rand.NewSource(seed))
	fl := NewFaults(FaultConfig{Seed: seed, DelayProb: 0.2, MaxDelay: 200 * time.Microsecond})
	ids := make([]edenid.ID, writers*perWriter)
	for i := range ids {
		ids[i] = gen.Next()
	}
	next := make([]uint64, len(ids)) // the last version written; each writer owns its ids'
	var mu sync.Mutex
	acked := make([]uint64, len(ids))
	f, err := fl.Open(dir)
	for cycle := 1; ; cycle++ {
		if err != nil {
			t.Fatalf("cycle %d (seed %d): reopen: %v", cycle, seed, err)
		}
		f.segSize = 2 << 10
		for i, id := range ids {
			if acked[i] == 0 {
				continue
			}
			got, err := f.Get(id)
			if want := loopRec(id, got.Version); err != nil || got.Version < acked[i] || !bytes.Equal(got.Rep, want.Rep) {
				t.Fatalf("cycle %d (seed %d): acknowledged v%d reads v%d, %v", cycle, seed, acked[i], got.Version, err)
			}
		}
		checkDirectory(t, f, fmt.Sprintf("cycle %d (seed %d)", cycle, seed))
		if cycle > cycles {
			f.Close()
			break
		}
		crashAtSync(fl, int64(1+rng.Intn(12)))
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 20; n++ {
					i := w*perWriter + n%perWriter
					next[i]++
					if err := f.Put(loopRec(ids[i], next[i])); err != nil {
						return // the crash
					}
					mu.Lock()
					acked[i] = next[i]
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		fl.trigger = nil
		fl.Crash() // if the writers finished first, nothing is held
		f.Close()
		f, err = f.Reopen()
	}
	c := fl.Counters()
	t.Logf("seed %d: %d cycles, %d torn and %d dropped tails, %d stalls", seed, cycles, c.Torn, c.Dropped, c.Delay)
	if c.Torn == 0 || c.Dropped == 0 {
		t.Errorf("the loop tore %d tails and dropped %d: it no longer crashes inside a batch", c.Torn, c.Dropped)
	}
}

// TestFaultsFailWith: while FailWith arms the layer, Put and Get fail
// with a media failure; once healed, the File is not broken, and both
// succeed again on the log the failure left.
func TestFaultsFailWith(t *testing.T) {
	for _, m := range []struct{ name, dir string }{{"disk", t.TempDir()}, {"memory", ""}} {
		t.Run(m.name, func(t *testing.T) {
			fl := NewFaults(FaultConfig{})
			f, err := fl.Open(m.dir)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rec := sampleRec(1)
			if err := f.Put(rec); err != nil {
				t.Fatal(err)
			}
			fl.FailWith(ErrFailed)
			if err := f.Put(sampleRec(1)); !errors.Is(err, ErrFailed) {
				t.Errorf("Put while armed: %v, want ErrFailed", err)
			}
			if _, err := f.Get(rec.Object); !errors.Is(err, ErrFailed) {
				t.Errorf("Get while armed: %v, want ErrFailed", err)
			}
			fl.FailWith(nil)
			f.mu.Lock()
			broken := f.broken
			f.mu.Unlock()
			if broken != nil {
				t.Fatalf("healed File is broken: %v", broken)
			}
			next := sampleRec(1)
			if err := f.Put(next); err != nil {
				t.Errorf("Put after heal: %v", err)
			}
			for _, id := range []edenid.ID{rec.Object, next.Object} {
				if _, err := f.Get(id); err != nil {
					t.Errorf("Get after heal: %v", err)
				}
			}
			checkDirectory(t, f, "after heal")
		})
	}
}

// TestFaultsMemoryCrashIsExact: on the in-memory medium a crash loses
// every byte no fsync covered, even those a File handed over when it
// closed, and keeps every byte one did.
func TestFaultsMemoryCrashIsExact(t *testing.T) {
	fl := NewFaults(FaultConfig{})
	f, err := fl.Open("")
	if err != nil {
		t.Fatal(err)
	}
	kept := sampleRec(1)
	if err := f.Put(kept); err != nil {
		t.Fatal(err)
	}
	fl.mu.Lock()
	fl.cfg.SyncLie = true
	fl.mu.Unlock()
	lost := sampleRec(1)
	if err := f.Put(lost); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // hands the lied write over unsynced
		t.Fatal(err)
	}
	fl.Crash()
	g, err := f.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, ok := g.Stat(kept.Object); !ok {
		t.Error("the crash lost a record an fsync covered")
	}
	if _, ok := g.Stat(lost.Object); ok {
		t.Error("a record no fsync covered survived the crash")
	}
	checkDirectory(t, g, "after the crash")
}
