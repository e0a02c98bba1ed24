package store

import (
	"errors"
	"testing"
)

func TestIntentRoundTrip(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		it := MoveIntent{Object: gen.Next(), Dest: 7, Epoch: 42}
		if err := s.PutIntent(it); err != nil {
			t.Fatal(err)
		}
		got, err := s.ListIntents()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != it {
			t.Fatalf("ListIntents = %+v, want [%+v]", got, it)
		}
		if err := s.DeleteIntent(it.Object); err != nil {
			t.Fatal(err)
		}
		got, err = s.ListIntents()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("after delete, ListIntents = %+v, want empty", got)
		}
	})
}

func TestIntentDeleteAbsent(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		if err := s.DeleteIntent(gen.Next()); err != nil {
			t.Fatalf("deleting absent intent: %v, want nil", err)
		}
	})
}

func TestIntentOverwrite(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		id := gen.Next()
		if err := s.PutIntent(MoveIntent{Object: id, Dest: 2, Epoch: 5}); err != nil {
			t.Fatal(err)
		}
		if err := s.PutIntent(MoveIntent{Object: id, Dest: 3, Epoch: 6}); err != nil {
			t.Fatal(err)
		}
		got, err := s.ListIntents()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Dest != 3 || got[0].Epoch != 6 {
			t.Fatalf("ListIntents = %+v, want one intent to node 3 at epoch 6", got)
		}
	})
}

func TestIntentListSorted(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		for i := 0; i < 8; i++ {
			if err := s.PutIntent(MoveIntent{Object: gen.Next(), Dest: uint32(i), Epoch: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.ListIntents()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 8 {
			t.Fatalf("ListIntents len = %d, want 8", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Object.String() >= got[i].Object.String() {
				t.Fatalf("intents not sorted at %d: %v >= %v", i, got[i-1].Object, got[i].Object)
			}
		}
	})
}

func TestIntentSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	it := MoveIntent{Object: gen.Next(), Dest: 9, Epoch: 3}
	if err := fs.PutIntent(it); err != nil {
		t.Fatal(err)
	}
	// A checkpoint record beside it must not leak into the intent scan,
	// nor the intent into the checkpoint scan.
	rec := sampleRec(1)
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}

	re, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.ListIntents()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != it {
		t.Fatalf("after reopen, ListIntents = %+v, want [%+v]", got, it)
	}
	ids, err := re.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != rec.Object {
		t.Fatalf("after reopen, List = %v, want [%v]", ids, rec.Object)
	}
}

// TestIntentCorruptFileFailsScan: an intent damaged in a sealed segment
// fails the open pass, so boot-time recovery never silently drops an
// in-doubt move.
func TestIntentCorruptFileFailsScan(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.segSize = 1 // every batch seals its segment
	it := MoveIntent{Object: gen.Next(), Dest: 4, Epoch: 2}
	if err := fs.PutIntent(it); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	fs.dirMu.RLock()
	e, ok := fs.intents.get(it.Object)
	fs.dirMu.RUnlock()
	if !ok {
		t.Fatal("the directory holds no intent")
	}
	at := e.loc
	if at.seg == fs.head().num {
		t.Fatal("the intent's segment is not sealed")
	}
	flipByte(t, fs.segmentPath(at.seg), at.off+int64(at.size)-1)
	if _, err := NewFile(dir); !errors.Is(err, ErrFailed) {
		t.Fatalf("open over a damaged intent: %v, want ErrFailed", err)
	}
}

func TestRecordEpochRoundTrip(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		rec := sampleRec(1)
		rec.Epoch = 17
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.Object)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != 17 {
			t.Fatalf("Epoch = %d, want 17", got.Epoch)
		}
	})
}

func TestIntentCodecRoundTrip(t *testing.T) {
	it := MoveIntent{Object: gen.Next(), Dest: 0xdeadbeef, Epoch: 1<<40 + 7}
	b := appendIntent(nil, it)
	got, err := decodeIntent(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != it {
		t.Fatalf("codec round trip: %+v, want %+v", got, it)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := decodeIntent(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}
