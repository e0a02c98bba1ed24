package store

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"
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
			if got, err := g.Get(id); err == nil && got.Meta() != want {
				t.Errorf("Get(%v) = %+v, want %+v", id, got.Meta(), want)
			} else if err != nil && !errors.Is(err, ErrFailed) {
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
	a, b, c := sampleRec(1), sampleRec(1), sampleRec(1)
	// A backup that carries its object's checksite policy.
	b.Backup, b.Home, b.Level, b.Sites, b.Ex = true, 4, 2, []uint32{3, 5}, []uint32{2}
	for _, rec := range []Record{a, b, c} {
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
