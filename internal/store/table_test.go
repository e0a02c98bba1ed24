package store

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"eden/internal/edenid"
)

// probes reports the longest probe a lookup of a present id makes in t
// and the mean, counting the slots it reads, its own included.
func (t *idTable[V]) probes() (longest int, mean float64) {
	mask := len(t.idx) - 1
	sum := 0
	for i, p := range t.idx {
		if p != 0 {
			h, _ := t.hash(t.ents[t.pos(p)].id, mask)
			n := (i-h)&mask + 1
			longest, sum = max(longest, n), sum+n
		}
	}
	if len(t.ents) > 0 {
		mean = float64(sum) / float64(len(t.ents))
	}
	return longest, mean
}

// checkModel fails t at step unless tb holds exactly model's entries,
// each found through the index.
func checkModel(t *testing.T, tb *idTable[uint64], model map[edenid.ID]uint64, ids []edenid.ID, step int) {
	t.Helper()
	if len(tb.ents) != len(model) {
		t.Fatalf("step %d: table holds %d entries, the model %d", step, len(tb.ents), len(model))
	}
	for _, id := range ids {
		want, wok := model[id]
		if got, ok := tb.get(id); ok != wok || got != want {
			t.Fatalf("step %d: get(%v) = %d, %v; the model %d, %v", step, id, got, ok, want, wok)
		}
	}
}

// TestIDTableModel runs random puts, gets and deletes against a Go map.
// The ids are those of one creator with consecutive sequence numbers —
// the keys a node's own objects have. The key space is filled and
// emptied twice, so the index grows from 8 slots to 4 096 across the
// first fill and every probe run is closed up by deletions. A lookup
// must read few slots: about 2.5 on average at a load of ¾. The longest
// probe has a heavy tail — over 2 000 seeds at 3 000 keys in 4 096
// slots its median was 53 slots and its worst 217 — so its bound is
// loose, and only a hash that clusters the ids breaks it.
func TestIDTableModel(t *testing.T) {
	const keys = 3000
	ids := make([]edenid.ID, keys)
	for i := range ids {
		ids[i] = edenid.New(1, 7, uint32(i+1))
	}
	rng := rand.New(rand.NewPCG(1981, 32))
	var tb idTable[uint64]
	model := make(map[edenid.ID]uint64)
	var grows, longest int
	var worstMean float64
	check := func(step int) {
		t.Helper()
		checkModel(t, &tb, model, ids, step)
		l, m := tb.probes()
		longest, worstMean = max(longest, l), max(worstMean, m)
	}
	step := 0
	for round := 0; round < 2; round++ {
		// p is the chance that an update is a put: high while filling,
		// low while emptying.
		for _, p := range []float64{0.9, 0.5, 0.1} {
			for n := 0; n < 4*keys; n++ {
				step++
				id := ids[rng.IntN(keys)]
				want, wok := model[id]
				switch r := rng.Float64(); {
				case r < 0.2:
					if got, ok := tb.get(id); ok != wok || got != want {
						t.Fatalf("step %d: get(%v) = %d, %v; the model %d, %v", step, id, got, ok, want, wok)
					}
				case r < 0.2+0.8*p:
					v := rng.Uint64()
					slots := len(tb.idx)
					if old, had := tb.put(id, v); had != wok || old != want {
						t.Fatalf("step %d: put(%v) replaced %d, %v; the model held %d, %v", step, id, old, had, want, wok)
					}
					model[id] = v
					if len(tb.idx) != slots {
						grows++
					}
				default:
					if old, had := tb.delete(id); had != wok || old != want {
						t.Fatalf("step %d: delete(%v) = %d, %v; the model held %d, %v", step, id, old, had, want, wok)
					}
					delete(model, id)
				}
				if 4*len(tb.ents) > 3*len(tb.idx) {
					t.Fatalf("step %d: %d entries in %d slots", step, len(tb.ents), len(tb.idx))
				}
				if n%97 == 0 {
					check(step)
				}
			}
			check(step)
		}
	}
	for id := range model {
		tb.delete(id)
		delete(model, id)
	}
	check(step)
	t.Logf("%d growths; longest probe %d slots, worst mean %.2f", grows, longest, worstMean)
	if grows < 9 {
		t.Errorf("the index grew %d times, want it taken from 8 slots to 4 096", grows)
	}
	if worstMean > 4 {
		t.Errorf("a lookup probes %.2f slots on average, want at most 4", worstMean)
	}
	if longest > 512 {
		t.Errorf("a lookup probes up to %d slots, want at most 512", longest)
	}
}

// TestIDTableWrapsAround fills a probe run that wraps past the end of the
// index and deletes from it: backward shift must carry entries back
// across the end.
func TestIDTableWrapsAround(t *testing.T) {
	var tb idTable[uint64]
	seq := uint32(1)
	next := func() edenid.ID { seq++; return edenid.New(1, 7, seq) }
	first := next()
	tb.put(first, 0) // draws the seed and allocates an index of 8 slots
	tb.delete(first)
	const mask = 7
	home := func(id edenid.ID) int { h, _ := tb.hash(id, mask); return h }
	homed := func(h int) edenid.ID {
		for {
			if id := next(); home(id) == h {
				return id
			}
		}
	}
	a, b, c, d := homed(mask), homed(mask), homed(mask), homed(0)
	model := map[edenid.ID]uint64{a: 1, b: 2, c: 3, d: 4}
	ids := []edenid.ID{a, b, c, d}
	for _, id := range ids {
		tb.put(id, model[id])
	}
	slots := func() []uint64 {
		var out []uint64
		for _, i := range []int{mask, 0, 1, 2} {
			if p := tb.idx[i]; p == 0 {
				out = append(out, 0)
			} else {
				out = append(out, tb.ents[tb.pos(p)].v)
			}
		}
		return out
	}
	want := func(step int, vs ...uint64) {
		t.Helper()
		if got := slots(); !slices.Equal(got, vs) {
			t.Errorf("step %d: slots 7, 0, 1, 2 hold %v, want %v", step, got, vs)
		}
		checkModel(t, &tb, model, ids, step)
	}
	want(1, 1, 2, 3, 4)
	if l, _ := tb.probes(); l != 3 {
		t.Errorf("longest probe %d slots, want 3 (slot 7 to slot 1)", l)
	}
	tb.delete(a)
	delete(model, a)
	want(2, 2, 3, 4, 0)
	tb.delete(c)
	delete(model, c)
	want(3, 2, 4, 0, 0)
	tb.put(a, 5)
	model[a] = 5
	want(4, 2, 4, 5, 0)
}

// TestFileDirectoryFootprint pins what a passive object costs its home
// node in RAM: the directory entry of its record. That is the heap a File
// opened on a log of n records holds beyond one opened on a log of one —
// about 10 KB is not per record, most of it the 8 KB buffer that reading
// the directory leaves in package os's sync.Pool — and, at sizes a test
// cannot cheaply write a log of, what an idTable alone holds for n
// entries. A Go map of the same entries (56-byte slots) measured 130, 131
// and 104 B at 10³, 4·10³ and 10⁴ records (Go 1.24, amd64). The table
// measures 65–77 B: a 56-byte entry, the index's 4-byte slots at a load
// of ¾ at most, and the dense slice's spare capacity.
func TestFileDirectoryFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what an allocation costs")
	}
	const bound = 80
	one := openHeap(t, 1)
	for _, n := range []int{1_000, 4_000, 10_000} {
		per := (openHeap(t, n) - one) / int64(n-1)
		t.Logf("%d records: %d B of heap per record", n, per)
		if per > bound {
			t.Errorf("%d records: %d B of heap per record, want at most %d", n, per, bound)
		}
	}
	for _, n := range []int{100_000, 1_000_000} {
		var tb idTable[dirEntry]
		per := heapGrowth(func() {
			for i := 0; i < n; i++ {
				tb.put(edenid.New(1, uint64(i>>24), uint32(i)), dirEntry{})
			}
		}) / int64(n)
		runtime.KeepAlive(&tb)
		t.Logf("%d entries: %d B of heap per entry", n, per)
		if per > bound {
			t.Errorf("%d entries: %d B of heap per entry, want at most %d", n, per, bound)
		}
	}
}

// openHeap returns the heap a File opened on a log of n records holds.
func openHeap(t *testing.T, n int) int64 {
	t.Helper()
	dir, _ := writeLog(t, n)
	var f *File
	grown := heapGrowth(func() {
		var err error
		if f, err = NewFile(dir); err != nil {
			t.Fatal(err)
		}
	})
	if got := len(f.recs.ents); got != n {
		t.Fatalf("the directory holds %d records, want %d", got, n)
	}
	f.Close()
	return grown
}

// heapGrowth returns the live heap that build adds. What build keeps must
// stay reachable after it returns. The first two collections empty
// sync.Pool's caches, which the second would otherwise free inside the
// window.
func heapGrowth(build func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}
