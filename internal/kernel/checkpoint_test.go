package kernel

import (
	"bytes"
	"runtime/debug"
	"sync"
	"testing"

	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/telemetry"
)

// keepingStore is a Store that keeps the Rep of every record it is Put,
// as a store that records what it is given does: it is not one that
// store.CopiesRep vouches for, so a checkpoint must hand it an encoding
// that nothing writes again.
type keepingStore struct {
	*store.File
	mu   sync.Mutex
	kept []store.Record
}

func (s *keepingStore) Put(rec store.Record) error {
	err := s.File.Put(rec)
	if err == nil {
		s.mu.Lock()
		s.kept = append(s.kept, rec)
		s.mu.Unlock()
	}
	return err
}

// counterAt decodes a counter's encoding and returns its count.
func counterAt(t *testing.T, rep []byte) uint64 {
	t.Helper()
	r, _, err := segment.Decode(rep)
	if err != nil {
		t.Fatalf("a kept encoding does not decode: %v", err)
	}
	n, err := r.Data("n")
	if err != nil {
		t.Fatal(err)
	}
	return fromU64(n)
}

// TestCheckpointLendsOnlyToACopyingStore: a store that keeps what Put is
// given keeps, for every checkpoint, the state that checkpoint wrote,
// after 50 more were encoded. A kernel that lent such a store its pooled
// encoding buffer would find a later checkpoint's bytes there, or under
// the race detector the poison a freed buffer is overwritten with.
func TestCheckpointLendsOnlyToACopyingStore(t *testing.T) {
	s := newSys(t)
	mustRegister(t, s.reg, counterType(nil))
	f, _ := memLog(t)
	st := &keepingStore{File: f}
	k := s.bootNode(1, st, nil)
	if k.lendRep {
		t.Error("the kernel lends its encodings to a store that keeps them")
	}
	cap, err := k.Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := k.Object(cap.ID())
	want := make(map[uint64]uint64) // checkpoint version -> count written
	for i := 1; i <= 50; i++ {
		count := fromU64(mustInvoke(t, k, cap, "inc", nil).Data)
		if err := obj.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want[obj.Version()] = count
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.kept) < 50 {
		t.Fatalf("the store kept %d records, want at least 50", len(st.kept))
	}
	for _, rec := range st.kept {
		count, ok := want[rec.Version]
		if !ok {
			continue // Create's own checkpoint
		}
		if got := counterAt(t, rec.Rep); got != count {
			t.Errorf("the record of checkpoint v%d now holds count %d, want %d", rec.Version, got, count)
		}
	}
}

// TestLentCheckpointsSurviveReopen: checkpoints lent to the log, from
// several objects at once so that they share batches, with every
// seventh round failed by the medium, reopen as exactly the encodings
// the last successful checkpoint of each object wrote. A race build
// poisons each lent buffer once Checkpoint returns, so a log that read a
// Rep after its Put returned, on any path, failed batches included,
// would reopen with the poison.
func TestLentCheckpointsSurviveReopen(t *testing.T) {
	s := newSys(t)
	mustRegister(t, s.reg, counterType(nil))
	f, fl := memLog(t)
	k := s.bootNode(1, f, nil)
	if !k.lendRep {
		t.Fatal("the kernel does not lend its encodings to the log")
	}
	const objects, rounds = 4, 50
	objs := make([]*Object, objects)
	want := make([][]byte, objects) // the encoding of each object's last durable checkpoint
	for i := range objs {
		cap, err := k.Create("counter", nil)
		if err != nil {
			t.Fatal(err)
		}
		objs[i], _ = k.Object(cap.ID())
		if err := objs[i].Update(func(r *segment.Representation) error {
			r.SetData("pad", bytes.Repeat([]byte{byte(i)}, 700+300*i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := objs[i].Checkpoint(); err != nil {
			t.Fatal(err)
		}
		objs[i].View(func(r *segment.Representation) { want[i] = r.Encode(nil) })
	}
	failed := 0
	for round := 1; round <= rounds; round++ {
		failing := round%7 == 0
		if failing {
			fl.FailWith(store.ErrFailed)
		}
		var wg sync.WaitGroup
		errs := make([]error, objects)
		for i, o := range objs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var enc []byte
				if errs[i] = o.Update(func(r *segment.Representation) error {
					r.SetData("n", u64(uint64(round)))
					enc = r.Encode(nil)
					return nil
				}); errs[i] != nil {
					return
				}
				if errs[i] = o.Checkpoint(); errs[i] == nil {
					want[i] = enc
				}
			}()
		}
		wg.Wait()
		fl.FailWith(nil)
		for i, err := range errs {
			switch {
			case err != nil && !failing:
				t.Fatalf("round %d, object %d: %v", round, i, err)
			case err != nil:
				failed++
			case failing:
				t.Fatalf("round %d, object %d: a checkpoint succeeded on a failing medium", round, i)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no checkpoint failed: the failed batches went untested")
	}
	k.Close()
	f.Close()
	g, err := f.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i, o := range objs {
		rec, err := g.Get(o.ID())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Rep, want[i]) {
			t.Errorf("object %d reopens as %d bytes unlike the %d its last checkpoint wrote", i, len(rec.Rep), len(want[i]))
		}
	}
}

// TestCheckpointAllocations: a 1 KiB checkpoint on the log allocates
// nothing, with telemetry off or on (the store then instrumented): its
// encoding is lent from msg's pool, and the log copies it. On a store
// that keeps what Put is given it allocates one object, the encoding the
// store keeps. The collector is held off, so that no pooled buffer is
// dropped while counting.
func TestCheckpointAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name      string
		keeping   bool
		telemetry bool
		want      float64
	}{
		{"log", false, false, 0},
		{"log-telemetry", false, true, 0},
		{"keeping-store", true, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys(t)
			mustRegister(t, s.reg, counterType(nil))
			f, _ := memLog(t)
			var st store.Store = f
			if tc.keeping {
				// A store that keeps no more than the one record, so that
				// its own bookkeeping allocates nothing.
				st = &keepingStore{File: f, kept: make([]store.Record, 0, 1)}
			}
			k := s.bootNode(1, st, func(c *Config) {
				if tc.telemetry {
					c.Telemetry = telemetry.New()
				}
			})
			cap, err := k.Create("counter", nil)
			if err != nil {
				t.Fatal(err)
			}
			obj, _ := k.Object(cap.ID())
			if err := obj.Update(func(r *segment.Representation) error {
				r.SetData("kb", make([]byte, 1<<10))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			checkpoint := func() {
				if ks, ok := st.(*keepingStore); ok {
					ks.mu.Lock()
					ks.kept = ks.kept[:0]
					ks.mu.Unlock()
				}
				if err := obj.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(100, checkpoint); got != tc.want {
				t.Errorf("a 1 KiB checkpoint allocates %.0f objects, want %.0f", got, tc.want)
			}
		})
	}
}
