package store

import (
	"encoding/hex"
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"eden/internal/edenid"
	"eden/internal/segment"
)

var gen = edenid.NewGenerator(1)

func sampleRec(version uint64) Record {
	rep := segment.New()
	rep.SetData("state", []byte("checkpointed state"))
	return Record{
		Object:   gen.Next(),
		TypeName: "counter",
		Version:  version,
		Rep:      rep.Encode(nil),
	}
}

// forEachStore runs the same conformance suite against the log on both
// media: memory, and a directory on disk.
func forEachStore(t *testing.T, f func(t *testing.T, s Store)) {
	for _, m := range []struct{ name, dir string }{{"memory", ""}, {"file", t.TempDir()}} {
		t.Run(m.name, func(t *testing.T) {
			fs, err := NewFile(m.dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			f(t, fs)
		})
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		rec := sampleRec(1)
		rec.Frozen = true
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.Object)
		if err != nil {
			t.Fatal(err)
		}
		if got.Object != rec.Object || got.TypeName != rec.TypeName ||
			got.Version != rec.Version || got.Frozen != rec.Frozen ||
			string(got.Rep) != string(rec.Rep) {
			t.Errorf("round trip changed record:\n%+v\n%+v", rec, got)
		}
	})
}

func TestGetMissing(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		if _, err := s.Get(gen.Next()); !errors.Is(err, ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	})
}

func TestVersionMonotonicity(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		rec := sampleRec(5)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		stale := rec
		stale.Version = 5
		if err := s.Put(stale); !errors.Is(err, ErrStale) {
			t.Errorf("equal version accepted: %v", err)
		}
		stale.Version = 3
		if err := s.Put(stale); !errors.Is(err, ErrStale) {
			t.Errorf("older version accepted: %v", err)
		}
		newer := rec
		newer.Version = 6
		newer.Rep = []byte("newer")
		if err := s.Put(newer); err != nil {
			t.Fatalf("newer version rejected: %v", err)
		}
		got, _ := s.Get(rec.Object)
		if got.Version != 6 || string(got.Rep) != "newer" {
			t.Errorf("got %+v", got)
		}
	})
}

func TestDelete(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		rec := sampleRec(1)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(rec.Object); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(rec.Object); !errors.Is(err, ErrNotFound) {
			t.Errorf("record survived Delete: %v", err)
		}
		// Deleting a missing record is a no-op.
		if err := s.Delete(gen.Next()); err != nil {
			t.Errorf("Delete of absent record: %v", err)
		}
		// After deletion, any version may be checkpointed again.
		rec.Version = 1
		if err := s.Put(rec); err != nil {
			t.Errorf("re-Put after Delete: %v", err)
		}
	})
}

func TestListSorted(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		for i := 0; i < 5; i++ {
			if err := s.Put(sampleRec(1)); err != nil {
				t.Fatal(err)
			}
		}
		ids, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 5 {
			t.Fatalf("List returned %d ids", len(ids))
		}
		for i := 1; i < len(ids); i++ {
			if edenid.Compare(ids[i-1], ids[i]) >= 0 {
				t.Error("List not sorted")
			}
		}
	})
}

func TestPutCopiesRep(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		rec := sampleRec(1)
		buf := append([]byte(nil), rec.Rep...)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		rec.Rep[0] ^= 0xFF // caller mutates its buffer after Put
		got, _ := s.Get(rec.Object)
		if string(got.Rep) != string(buf) {
			t.Error("store aliased the caller's representation buffer")
		}
		got.Rep[0] ^= 0xFF // reader mutates its copy
		again, _ := s.Get(rec.Object)
		if string(again.Rep) != string(buf) {
			t.Error("Get returned aliased storage")
		}
	})
}

func TestConcurrentPutsDistinctObjects(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := s.Put(sampleRec(1)); err != nil {
						t.Errorf("Put: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		ids, _ := s.List()
		if len(ids) != 160 {
			t.Errorf("List returned %d ids, want 160", len(ids))
		}
	})
}

func TestFileSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRec(7)
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	// "Restart": a brand-new store over the same directory.
	fs2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Get(rec.Object)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || string(got.Rep) != string(rec.Rep) {
		t.Errorf("record after reopen: %+v", got)
	}
	ids, err := fs2.List()
	if err != nil || len(ids) != 1 || ids[0] != rec.Object {
		t.Errorf("List after reopen: %v %v", ids, err)
	}
}

func TestFileIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	fs, _ := NewFile(dir)
	if err := fs.Put(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	// Junk that neither List nor the open pass may take for the log.
	for _, name := range []string{"README", "ckp-leftover-tmp", "0000000001.log.bak", "segment.log"} {
		if err := writeFile(t, dir, name); err != nil {
			t.Fatal(err)
		}
	}
	for _, reopen := range []bool{false, true} {
		if reopen {
			var err error
			if fs, err = NewFile(dir); err != nil {
				t.Fatal(err)
			}
		}
		ids, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 {
			t.Errorf("reopen=%v: List = %d ids, want 1", reopen, len(ids))
		}
	}
}

func TestRecordCodecRejectsDamage(t *testing.T) {
	rec := sampleRec(3)
	buf := appendRecord(nil, rec)
	if _, err := decodeRecord(buf, new(typeNames)); err != nil {
		t.Fatalf("decode of intact record: %v", err)
	}
	for _, n := range []int{0, 4, 10, len(buf) - 1} {
		if _, err := decodeRecord(buf[:n], new(typeNames)); err == nil {
			t.Errorf("accepted truncation to %d bytes", n)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := decodeRecord(bad, new(typeNames)); err == nil {
		t.Error("accepted bad magic")
	}
}

func writeFile(t *testing.T, dir, name string) error {
	t.Helper()
	return writeRaw(dir+"/"+name, []byte("junk"))
}

// Property: decodeRecord never panics on arbitrary bytes (a corrupted
// checkpoint file must be an error, not a crash).
func TestQuickDecodeRecordNeverPanics(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decodeRecord panicked on %x: %v", b, r)
				ok = false
			}
		}()
		_, _ = decodeRecord(b, new(typeNames))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// And with a valid record corrupted at one position.
func TestQuickDecodeRecordCorrupted(t *testing.T) {
	base := appendRecord(nil, sampleRec(5))
	f := func(pos uint16, val byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decodeRecord panicked: %v", r)
				ok = false
			}
		}()
		buf := append([]byte(nil), base...)
		buf[int(pos)%len(buf)] = val
		_, _ = decodeRecord(buf, new(typeNames))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRecordLayoutWithoutPolicy pins the frame of a record that carries no
// checksite policy — every record of a local-policy object — to the bytes
// it had before records could carry one, and checks that a policy
// round-trips.
func TestRecordLayoutWithoutPolicy(t *testing.T) {
	id := edenid.New(3, 0x0102030405060708, 9)
	for _, c := range []struct {
		rec  Record
		want string
	}{
		{Record{Object: id, TypeName: "counter", Version: 7, Epoch: 2, Rep: []byte("rep")},
			"0000003f651bd9f4014544454e434b50330000000301020304050607080000093200000000000000070000000000000002000000000000000007636f756e74657200000003726570"},
		{Record{Object: id, TypeName: "counter", Version: 7, Epoch: 2, Frozen: true, Backup: true, Home: 4, Rep: []byte("rep")},
			"0000003f145a17c2014544454e434b50330000000301020304050607080000093200000000000000070000000000000002030000000400000007636f756e74657200000003726570"},
	} {
		p := &pending{kind: kindRecord, id: id, rec: c.rec}
		frame := appendFrame(nil, p)
		if got := hex.EncodeToString(frame); got != c.want {
			t.Errorf("record encodes as\n%s, want\n%s", got, c.want)
		}
		if len(frame) != frameLen(p) {
			t.Errorf("frame of %d bytes, frameLen %d", len(frame), frameLen(p))
		}
	}
	sited := Record{Object: id, TypeName: "counter", Version: 7, Epoch: 2, Backup: true, Home: 4,
		Policy: Policy{Level: 2, Sites: []uint32{3, 4}, Ex: []uint32{5}}, Rep: []byte("rep")}
	p := &pending{kind: kindRecord, id: id, rec: sited}
	frame := appendFrame(nil, p)
	if len(frame) != frameLen(p) {
		t.Errorf("sited frame of %d bytes, frameLen %d", len(frame), frameLen(p))
	}
	body, err := checkFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var types typeNames
	got, err := decodeRecord(body[1:], &types)
	if err != nil || got.Level != 2 || !slices.Equal(got.Sites, sited.Sites) || !slices.Equal(got.Ex, sited.Ex) ||
		!got.Meta().Sited || got.Home != 4 || string(got.Rep) != "rep" {
		t.Errorf("a sited record decodes as %+v, %v", got, err)
	}
}
