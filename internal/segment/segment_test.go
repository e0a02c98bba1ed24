package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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
	if _, err := r.Caps("state"); !errors.Is(err, ErrKind) || err.Error() != `segment: wrong segment kind: "state" is data, not caps` {
		t.Errorf("Caps on data segment: err = %v, want ErrKind naming both kinds", err)
	}
	if _, err := r.Data("refs"); !errors.Is(err, ErrKind) {
		t.Errorf("Data on caps segment: err = %v, want ErrKind", err)
	}
}

func TestNoSuchSegment(t *testing.T) {
	r := New()
	if _, err := r.Data("missing"); !errors.Is(err, ErrNoSegment) || err.Error() != `segment: no such segment: "missing"` {
		t.Errorf("err = %v, want ErrNoSegment naming the segment", err)
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

// TestEncodedSizeIsEncodeLength: EncodedSize is the length Encode
// appends, for an empty representation and after a deletion.
func TestEncodedSizeIsEncodeLength(t *testing.T) {
	r := New()
	for step := 0; step < 3; step++ {
		if got, want := r.EncodedSize(), len(r.Encode(nil)); got != want {
			t.Errorf("step %d: EncodedSize %d, Encode wrote %d bytes", step, got, want)
		}
		switch step {
		case 0:
			r = sampleRep()
		case 1:
			r.Delete(r.Names()[0])
		}
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

// BenchmarkDecode4K decodes a one-segment representation: 2 allocs/op,
// the Representation and its segment table (3 while the names were
// copied out into a string of their own).
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

// TestDecodeAllocations: decoding copies nothing out of its input. Into a
// table the caller made, DecodeInto allocates nothing; Decode allocates
// the Representation and its table.
func TestDecodeAllocations(t *testing.T) {
	r := sampleRep()
	r.SetData("other", []byte("more"))
	r.Delete("refs") // capability lists are decoded into lists of their own
	src := r.Encode(nil)
	var into Representation
	table := make([]Segment, Count(src))
	got := testing.AllocsPerRun(100, func() {
		if _, err := DecodeInto(&into, src, table); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 || &into.segs[0] != &table[0] {
		t.Errorf("DecodeInto a caller's table: %.0f allocs (want 0), decoded into it: %v", got, &into.segs[0] == &table[0])
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, _, err := Decode(src); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("Decode: %.0f allocs, want 2", got)
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
// segments are strictly sorted, its names and data segments lie inside
// the consumed input (each data segment capacity-clipped), the result is
// clean, encoding it gives the consumed input back byte for byte,
// DecodeInto a used representation or into a table of Count's length
// gives the same result, and once every segment is set again no name
// lies inside the input. Of an input Decode refuses,
// DecodeInto leaves its representation as it was. It reports whether src
// decoded at all.
func checkDecoded(t *testing.T, src []byte) bool {
	t.Helper()
	pristine := append([]byte(nil), src...)
	r, rest, err := Decode(src)
	if err != nil {
		kept := sampleRep()
		before := *kept
		if _, err := DecodeInto(kept, src, nil); err == nil || !reflect.DeepEqual(*kept, before) {
			t.Errorf("DecodeInto of what Decode refused: %v, representation changed: %v", err, !reflect.DeepEqual(*kept, before))
		}
		return false
	}
	used := len(src) - len(rest)
	// A table of Count's length, with room to spare, is the one decoded into.
	table := make([]Segment, Count(src), Count(src)+1)
	var tabled Representation
	_, err = DecodeInto(&tabled, src, table)
	same := len(tabled.segs) == len(r.segs) && (len(r.segs) == 0 || reflect.DeepEqual(tabled.segs, r.segs))
	if err != nil || !same || cap(tabled.segs) != cap(table) {
		t.Errorf("DecodeInto a table of %d: %v, decoded into it: %v, same as Decode: %v", len(table), err, cap(tabled.segs) == cap(table), same)
	}
	if r.HasDirty() {
		t.Errorf("decoded representation of %v is dirty", r.Names())
	}
	if enc := r.Encode(nil); !bytes.Equal(enc, pristine[:used]) {
		t.Errorf("Encode(Decode(x)) = %x, want %x", enc, pristine[:used])
	}
	for i := 1; i < len(r.segs); i++ {
		if r.segs[i-1].name >= r.segs[i].name {
			t.Errorf("segments %q and %q out of order", r.segs[i-1].name, r.segs[i].name)
		}
	}
	for i := range r.segs {
		if name := r.segs[i].name; name != "" && !within(name, src[:used]) {
			t.Errorf("name %q does not lie inside the consumed input", name)
		}
	}
	// Decoding into a representation that already holds something
	// replaces all of it, change tracking included.
	reused := sampleRep()
	reused.Delete("state")
	if rest2, err := DecodeInto(reused, src, nil); err != nil || len(rest2) != len(rest) || !reflect.DeepEqual(reused, r) {
		t.Errorf("DecodeInto a used representation = %+v (%d left, %v), Decode = %+v", reused, len(rest2), err, r)
	}
	for i := range r.segs {
		s := &r.segs[i]
		if s.kind != Data || len(s.data) == 0 {
			continue
		}
		if cap(s.data) != len(s.data) {
			t.Errorf("segment %q: cap %d, len %d", s.name, cap(s.data), len(s.data))
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
			t.Errorf("segment %q does not lie inside the consumed input (changed byte %d of %d)", s.name, changed, used)
		}
	}
	// A segment set again holds nothing of the input, its name included.
	for _, name := range r.Names() {
		r.SetData(strings.Clone(name), nil)
	}
	for i := range r.segs {
		if name := r.segs[i].name; name != "" && within(name, src) {
			t.Errorf("name %q still lies inside the input after its segment was set", name)
		}
	}
	return true
}

// within reports whether s's bytes lie inside b's.
func within(s string, b []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
}

// TestDecodeAliasesInput: a decoded representation's data is the input's
// own bytes, it comes back clean, and it re-encodes to the input.
func TestDecodeAliasesInput(t *testing.T) {
	full := sampleRep().Encode(nil)
	sub := subRep("state").Encode(nil)
	for _, src := range [][]byte{full, append(full, 1, 2, 3), sub, New().Encode(nil)} {
		if !checkDecoded(t, src) {
			t.Errorf("Decode rejected %x", src)
		}
	}
}

// subRep is the sample representation with only the named segments
// left.
func subRep(names ...string) *Representation {
	r := sampleRep()
	for _, name := range r.Names() {
		if !slices.Contains(names, name) {
			r.Delete(name)
		}
	}
	return r
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
// panics, and what it accepts is sorted, aliased, clean and canonical,
// and decodes the same into a used representation and into a caller's
// table; its names lie inside the input until their segments are set.
func FuzzDecode(f *testing.F) {
	f.Add(sampleRep().Encode(nil))
	f.Add(subRep("refs").Encode(nil))
	f.Add(New().Encode(nil))
	f.Add(rawEncoding("a", "b"))
	f.Add([]byte("EdR1"))
	f.Fuzz(func(t *testing.T, src []byte) { checkDecoded(t, src) })
}

// TestLookupDoesNotAllocate: a lookup by a name built in a stack buffer
// allocates nothing beyond the copy it returns.
func TestLookupDoesNotAllocate(t *testing.T) {
	r := sampleRep()
	for i := 0; i < 100; i++ {
		r.SetData(fmt.Sprintf("s%03d", i), []byte{byte(i)})
	}
	var buf [16]byte
	n := copy(buf[:], "state")
	dst := make([]byte, 64)
	var ok bool
	lookups := map[string]func(){
		"Has":      func() { ok = r.Has(string(buf[:n])) && !r.Has(string(buf[:n-1])) },
		"CopyData": func() { m, err := r.CopyData(dst, string(buf[:n])); ok = err == nil && m > 0 },
		"Data":     func() { b, err := r.Data(string(buf[:n])); ok = err == nil && len(b) > 0 },
	}
	for what, fn := range lookups {
		want := 0.0
		if what == "Data" {
			want = 1 // the copy
		}
		if got := testing.AllocsPerRun(100, fn); got != want || !ok {
			t.Errorf("%s: %.0f allocs (want %.0f), found %v", what, got, want, ok)
		}
	}
}

// modelRep is the plain-map model TestRepresentationModel checks a
// Representation against: the segments, the number of changes and the
// clean mark.
type modelRep struct {
	segs         map[string]*Segment
	stamp, clean uint64
}

func (m *modelRep) change(name string, s *Segment) {
	m.stamp++
	if s == nil {
		delete(m.segs, name)
	} else {
		m.segs[name] = s
	}
}

// names returns the model's segment names, sorted.
func (m *modelRep) names() []string {
	out := []string{}
	for name := range m.segs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// encode lays the model out in the wire format by hand.
func (m *modelRep) encode() []byte {
	names := m.names()
	b := binary.BigEndian.AppendUint32(nil, encMagic)
	b = binary.BigEndian.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		s := m.segs[name]
		b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
		b = append(b, byte(s.kind))
		if s.kind == Data {
			b = binary.BigEndian.AppendUint32(b, uint32(len(s.data)))
			b = append(b, s.data...)
		} else {
			b = binary.BigEndian.AppendUint32(b, uint32(4+len(s.caps)*capability.EncodedSize))
			b = capability.EncodeList(b, s.caps)
		}
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestRepresentationModel runs random sequences of SetData, SetCaps,
// Delete, Stamp and MarkClean against the model, checking after every
// step the names, each name's presence and bytes, the encoding and
// whether anything changed since the clean mark.
func TestRepresentationModel(t *testing.T) {
	universe := []string{"a", "b", "c", "d", "e", "f"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Representation
		m := &modelRep{segs: map[string]*Segment{}}
		var snaps []uint64
		pick := func() string { return universe[rng.Intn(len(universe))] }
		for step := 0; step < 400; step++ {
			var op string
			switch x := rng.Intn(9); {
			case x < 3:
				name, b := pick(), []byte{byte(rng.Intn(256)), byte(step)}
				op = fmt.Sprintf("SetData(%s)", name)
				r.SetData(name, b)
				m.change(name, &Segment{kind: Data, data: b})
			case x < 4:
				name, l := pick(), capability.List{capability.New(gen.Next(), rights.Invoke)}
				op = fmt.Sprintf("SetCaps(%s)", name)
				r.SetCaps(name, l)
				m.change(name, &Segment{kind: Caps, caps: l})
			case x < 6:
				name := pick()
				op = fmt.Sprintf("Delete(%s)", name)
				r.Delete(name)
				if _, ok := m.segs[name]; ok {
					m.change(name, nil)
				}
			case x < 7:
				op = "Stamp"
				if got := r.Stamp(); got != m.stamp {
					t.Fatalf("seed %d step %d: Stamp = %d, model %d", seed, step, got, m.stamp)
				}
				snaps = append(snaps, r.Stamp())
			default:
				if len(snaps) == 0 {
					continue
				}
				s := snaps[rng.Intn(len(snaps))] // not always the newest: a mark never falls
				op = fmt.Sprintf("MarkClean(%d)", s)
				r.MarkClean(s)
				m.clean = max(m.clean, s)
			}
			where := fmt.Sprintf("seed %d step %d, after %s", seed, step, op)
			if got, want := r.Names(), m.names(); !slices.Equal(got, want) {
				t.Fatalf("%s: Names = %v, model %v", where, got, want)
			}
			for _, name := range universe {
				s, ok := m.segs[name]
				if r.Has(name) != ok {
					t.Fatalf("%s: Has(%s) = %v, model %v", where, name, !ok, ok)
				}
				if b, err := r.Data(name); ok && s.kind == Data && (err != nil || !bytes.Equal(b, s.data)) {
					t.Fatalf("%s: Data(%s) = %x, %v; model %x", where, name, b, err, s.data)
				}
			}
			if got, want := r.Encode(nil), m.encode(); !bytes.Equal(got, want) {
				t.Fatalf("%s: Encode differs from the model's", where)
			}
			if r.HasDirty() != (m.stamp > m.clean) {
				t.Fatalf("%s: HasDirty = %v, model's stamp %d, clean mark %d", where, r.HasDirty(), m.stamp, m.clean)
			}
		}
	}
}
