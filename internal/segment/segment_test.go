package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/rights"
)

var gen = edenid.NewGenerator(1)

func sampleRep() *Representation {
	r := New()
	r.SetData("state", []byte("hello, eden"))
	r.SetData("empty", nil)
	r.SetCaps("refs", capability.List{
		capability.New(gen.Next(), rights.All),
		capability.New(gen.Next(), rights.Invoke),
	})
	return r
}

func TestSetGetData(t *testing.T) {
	r := New()
	r.SetData("s", []byte{1, 2, 3})
	got, err := r.Data("s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Data = %v", got)
	}
	// The returned slice must be a copy.
	got[0] = 99
	again, _ := r.Data("s")
	if again[0] != 1 {
		t.Error("Data returned aliased storage")
	}
}

func TestSetDataCopiesInput(t *testing.T) {
	b := []byte{1, 2, 3}
	r := New()
	r.SetData("s", b)
	b[0] = 99
	got, _ := r.Data("s")
	if got[0] != 1 {
		t.Error("SetData aliased caller's slice")
	}
}

func TestSetGetCaps(t *testing.T) {
	c := capability.New(gen.Next(), rights.Invoke)
	r := New()
	r.SetCaps("refs", capability.List{c})
	got, err := r.Caps("refs")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != c {
		t.Errorf("Caps = %v", got)
	}
}

func TestKindMismatch(t *testing.T) {
	r := sampleRep()
	if _, err := r.Caps("state"); !errors.Is(err, ErrKind) {
		t.Errorf("Caps on data segment: err = %v, want ErrKind", err)
	}
	if _, err := r.Data("refs"); !errors.Is(err, ErrKind) {
		t.Errorf("Data on caps segment: err = %v, want ErrKind", err)
	}
}

func TestNoSuchSegment(t *testing.T) {
	r := New()
	if _, err := r.Data("missing"); !errors.Is(err, ErrNoSegment) {
		t.Errorf("err = %v, want ErrNoSegment", err)
	}
	if _, err := r.Caps("missing"); !errors.Is(err, ErrNoSegment) {
		t.Errorf("err = %v, want ErrNoSegment", err)
	}
}

func TestDeleteAndHas(t *testing.T) {
	r := sampleRep()
	if !r.Has("state") {
		t.Error("Has(state) = false")
	}
	r.Delete("state")
	if r.Has("state") {
		t.Error("segment survives Delete")
	}
	r.Delete("state") // deleting absent segment is a no-op
}

func TestNamesSorted(t *testing.T) {
	r := sampleRep()
	names := r.Names()
	want := []string{"empty", "refs", "state"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	r := New()
	if r.Size() != 0 {
		t.Errorf("empty Size = %d", r.Size())
	}
	r.SetData("a", make([]byte, 100))
	r.SetCaps("b", capability.List{capability.New(gen.Next(), rights.All)})
	want := 100 + capability.EncodedSize
	if r.Size() != want {
		t.Errorf("Size = %d, want %d", r.Size(), want)
	}
	// Replacing shrinks accounting too.
	r.SetData("a", make([]byte, 10))
	if r.Size() != 10+capability.EncodedSize {
		t.Errorf("Size after replace = %d", r.Size())
	}
}

func TestCapabilitiesAcrossSegments(t *testing.T) {
	a := capability.New(gen.Next(), rights.All)
	b := capability.New(gen.Next(), rights.Invoke)
	r := New()
	r.SetCaps("zz", capability.List{b})
	r.SetCaps("aa", capability.List{a})
	r.SetData("dd", []byte("x"))
	got := r.Capabilities()
	if len(got) != 2 {
		t.Fatalf("Capabilities len = %d", len(got))
	}
	// Deterministic (sorted by segment name) order: aa before zz.
	if got[0] != a || got[1] != b {
		t.Errorf("Capabilities order = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := sampleRep()
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.SetData("state", []byte("mutated"))
	if r.Equal(c) {
		t.Error("mutating clone changed original (or Equal is broken)")
	}
	orig, _ := r.Data("state")
	if string(orig) != "hello, eden" {
		t.Error("clone shares storage with original")
	}
}

func TestEqual(t *testing.T) {
	a, b := sampleRep(), sampleRep()
	// sampleRep mints fresh capability IDs each call, so b differs.
	if a.Equal(b) {
		t.Error("representations with different capabilities compare equal")
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("clone compares unequal")
	}
	c.Delete("empty")
	if a.Equal(c) {
		t.Error("missing segment not detected")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleRep()
	buf := r.Encode(nil)
	got, rest, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(rest) != 0 {
		t.Errorf("%d residual bytes", len(rest))
	}
	if !r.Equal(got) {
		t.Error("round trip changed representation")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := sampleRep()
	a := r.Encode(nil)
	b := r.Clone().Encode(nil)
	if !bytes.Equal(a, b) {
		t.Error("encoding is not deterministic across clones")
	}
}

func TestEncodeEmpty(t *testing.T) {
	r := New()
	got, rest, err := Decode(r.Encode(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("Decode empty: %v", err)
	}
	if got.NumSegments() != 0 {
		t.Errorf("empty round trip has %d segments", got.NumSegments())
	}
}

func TestDecodeWithTail(t *testing.T) {
	buf := append(sampleRep().Encode(nil), 1, 2, 3)
	_, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 3 {
		t.Errorf("rest = %d bytes, want 3", len(rest))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	buf := sampleRep().Encode(nil)
	for _, i := range []int{0, 5, 9, len(buf) / 2, len(buf) - 1} {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x20
		if _, _, err := Decode(bad); err == nil {
			t.Errorf("Decode accepted corruption at byte %d", i)
		}
	}
	for _, n := range []int{0, 4, 7, len(buf) - 1} {
		if _, _, err := Decode(buf[:n]); err == nil {
			t.Errorf("Decode accepted truncation to %d bytes", n)
		}
	}
}

// Property: encode→decode is the identity for arbitrary data contents.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a, b []byte, nCaps uint8) bool {
		r := New()
		r.SetData("a", a)
		r.SetData("b", b)
		l := make(capability.List, int(nCaps)%10)
		for i := range l {
			l[i] = capability.New(gen.Next(), rights.Set(i))
		}
		r.SetCaps("c", l)
		got, rest, err := Decode(r.Encode(nil))
		return err == nil && len(rest) == 0 && r.Equal(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeSizesOnce: the encoding is written into one buffer of its
// exact size, so Encode(nil) allocates one buffer more than an Encode
// into a buffer with exactly enough room.
func TestEncodeSizesOnce(t *testing.T) {
	r := sampleRep()
	if buf := r.Encode(nil); len(buf) != cap(buf) {
		t.Errorf("Encode(nil): len %d, cap %d", len(buf), cap(buf))
	}
	exact := make([]byte, 0, len(r.Encode(nil)))
	fresh := testing.AllocsPerRun(100, func() { _ = r.Encode(nil) })
	into := testing.AllocsPerRun(100, func() { _ = r.Encode(exact) })
	if fresh-into != 1 {
		t.Errorf("Encode(nil) %.0f allocs, into an exact buffer %.0f: want one buffer between them", fresh, into)
	}
}

// TestEncodePartialMergesOntoBase: a partial encoding of some changed
// segments, merged onto the old state with the removed ones, is the new
// state. Names may be absent, repeated or unsorted.
func TestEncodePartialMergesOntoBase(t *testing.T) {
	base := sampleRep()
	r := base.Clone()
	r.SetData("state", []byte("changed"))
	r.SetData("new", []byte("added"))
	r.Delete("empty")
	sub, rest, err := Decode(r.EncodePartial([]string{"state", "new", "gone", "state"}, nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("Decode partial: %v, %d bytes left", err, len(rest))
	}
	if sub.NumSegments() != 2 {
		t.Errorf("partial holds %v, want [new state]", sub.Names())
	}
	base.Merge(sub, []string{"empty"})
	if !base.Equal(r) {
		t.Errorf("merged %v, want %v", base.Names(), r.Names())
	}
}

func TestCopyData(t *testing.T) {
	r := sampleRep()
	if n, err := r.CopyData(nil, "state"); err != nil || n != len("hello, eden") {
		t.Fatalf("CopyData(nil) = %d, %v", n, err)
	}
	short := make([]byte, 5)
	if n, err := r.CopyData(short, "state"); err != nil || n != len("hello, eden") || string(short) != "hello" {
		t.Errorf("CopyData(short) = %d %q, %v", n, short, err)
	}
	if _, err := r.CopyData(nil, "missing"); !errors.Is(err, ErrNoSegment) {
		t.Errorf("missing segment: %v", err)
	}
	if _, err := r.CopyData(nil, "refs"); !errors.Is(err, ErrKind) {
		t.Errorf("caps segment: %v", err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Representation
	r.SetData("x", []byte("y"))
	if got, err := r.Data("x"); err != nil || string(got) != "y" {
		t.Errorf("zero-value Representation unusable: %v %q", err, got)
	}
}

func BenchmarkEncode4K(b *testing.B) {
	r := New()
	r.SetData("state", make([]byte, 4096))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Encode(nil)
	}
}

func BenchmarkDecode4K(b *testing.B) {
	r := New()
	r.SetData("state", make([]byte, 4096))
	buf := r.Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", b, r)
				ok = false
			}
		}()
		_, _, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Decode also survives structured-looking prefixes: a valid
// encoding with arbitrary corruption spliced into the middle.
func TestQuickDecodeCorruptedValid(t *testing.T) {
	base := sampleRep().Encode(nil)
	f := func(pos uint16, val byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked: %v", r)
				ok = false
			}
		}()
		buf := append([]byte(nil), base...)
		buf[int(pos)%len(buf)] = val
		_, _, _ = Decode(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// checkDecoded asserts what Decode promises of an input it accepts: its
// data segments lie inside the consumed input (each capacity-clipped),
// the result is clean, and encoding it gives the consumed input back
// byte for byte. It reports whether src decoded at all.
func checkDecoded(t *testing.T, src []byte) bool {
	t.Helper()
	pristine := append([]byte(nil), src...)
	r, rest, err := Decode(src)
	if err != nil {
		return false
	}
	used := len(src) - len(rest)
	if r.HasDirty() {
		t.Errorf("decoded representation has dirty segments %v", r.dirty)
	}
	if enc := r.Encode(nil); !bytes.Equal(enc, pristine[:used]) {
		t.Errorf("Encode(Decode(x)) = %x, want %x", enc, pristine[:used])
	}
	for name, s := range r.segs {
		if s.kind != Data || len(s.data) == 0 {
			continue
		}
		if cap(s.data) != len(s.data) {
			t.Errorf("segment %q: cap %d, len %d", name, cap(s.data), len(s.data))
		}
		// Flip the segment's first byte through the segment: exactly one
		// byte of the input, inside what Decode consumed, must change.
		s.data[0] ^= 0xff
		changed := -1
		for i := range src {
			if src[i] != pristine[i] {
				changed = i
				break
			}
		}
		s.data[0] ^= 0xff
		if changed < 0 || changed >= used {
			t.Errorf("segment %q does not lie inside the consumed input (changed byte %d of %d)", name, changed, used)
		}
	}
	return true
}

// TestDecodeAliasesInput: a decoded representation's data is the input's
// own bytes, it comes back clean, and it re-encodes to the input.
func TestDecodeAliasesInput(t *testing.T) {
	full := sampleRep().Encode(nil)
	partial := sampleRep().EncodePartial([]string{"state"}, nil)
	for _, src := range [][]byte{full, append(full, 1, 2, 3), partial, New().Encode(nil)} {
		if !checkDecoded(t, src) {
			t.Errorf("Decode rejected %x", src)
		}
	}
}

// rawEncoding lays segments out in the wire format in the order given,
// with a correct checksum — including orders Encode never writes.
func rawEncoding(names ...string) []byte {
	b := binary.BigEndian.AppendUint32(nil, encMagic)
	b = binary.BigEndian.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
		b = append(b, byte(Data))
		b = binary.BigEndian.AppendUint32(b, 1)
		b = append(b, name[0])
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestDecodeRejectsNonCanonical: an encoding whose names are out of
// order or repeated is one Encode never writes, so Decode refuses it —
// whatever it accepts re-encodes to itself.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	if !checkDecoded(t, rawEncoding("a", "b")) {
		t.Fatal("Decode rejected a canonical encoding")
	}
	for _, names := range [][]string{{"b", "a"}, {"a", "a"}} {
		if _, _, err := Decode(rawEncoding(names...)); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("names %q: err = %v, want ErrBadEncoding", names, err)
		}
	}
}

// FuzzDecode holds Decode to its promises on arbitrary input: it never
// panics, and what it accepts is aliased, clean and canonical.
func FuzzDecode(f *testing.F) {
	f.Add(sampleRep().Encode(nil))
	f.Add(sampleRep().EncodePartial([]string{"refs"}, nil))
	f.Add(New().Encode(nil))
	f.Add(rawEncoding("a", "b"))
	f.Add([]byte("EdR1"))
	f.Fuzz(func(t *testing.T, src []byte) { checkDecoded(t, src) })
}
