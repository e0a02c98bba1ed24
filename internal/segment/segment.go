// Package segment implements the representation of an Eden object: the
// "data and capability segments that form the object's long-term
// state".
//
// A Representation is a set of named segments. Data segments hold
// uninterpreted bytes; capability segments hold capability lists (the
// kernel must know where capabilities live so they can be relocated and
// restricted when representations cross trust or machine boundaries).
// Representations have a deterministic binary encoding with a whole-
// representation checksum, which is what the checkpoint machinery
// writes to long-term storage and what move ships between nodes.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"unsafe"

	"eden/internal/capability"
)

// Kind distinguishes the two segment kinds of the iAPX-432-style
// representation model.
type Kind uint8

// Segment kinds.
const (
	// Data is a segment of uninterpreted bytes.
	Data Kind = iota + 1
	// Caps is a segment holding a capability list.
	Caps
)

// String returns "data" or "caps".
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Caps:
		return "caps"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Errors reported by this package.
var (
	// ErrBadEncoding reports a malformed or corrupted encoded
	// representation.
	ErrBadEncoding = errors.New("segment: malformed encoding")
	// ErrKind reports an access to a segment with the wrong kind, e.g.
	// reading a capability list out of a data segment.
	ErrKind = errors.New("segment: wrong segment kind")
	// ErrNoSegment reports an access to a segment name that does not
	// exist in the representation.
	ErrNoSegment = errors.New("segment: no such segment")
)

// Segment is one named piece of an object's long-term state.
type Segment struct {
	name string
	kind Kind
	data []byte          // kind == Data
	caps capability.List // kind == Caps
}

// Kind returns the segment's kind.
func (s *Segment) Kind() Kind { return s.kind }

// Len returns the number of bytes (data segment) or capabilities
// (capability segment) the segment holds.
func (s *Segment) Len() int {
	if s.kind == Caps {
		return len(s.caps)
	}
	return len(s.data)
}

// Representation is the complete long-term state of one object: its
// segments, in one array sorted by name. The zero value is an empty
// representation ready to use. A Representation is not safe for
// concurrent mutation; in Eden the owning object's coordinator
// serializes access.
//
// Every change — SetData, SetCaps, Delete — advances a counter, the
// stamp. The clean mark is the newest stamp a durable copy is known to
// hold, so "changed since the last checkpoint" is a comparison, and a
// checkpoint that fails has nothing to put back.
type Representation struct {
	segs  []Segment // sorted by name
	stamp uint64    // counts the changes
	clean uint64    // the clean mark
}

// New returns an empty representation.
func New() *Representation { return new(Representation) }

// find returns the index of the named segment, or the index at which it
// would be inserted. The search is written out, not sort.Find with a
// closure, so that name does not escape: a name the caller builds in a
// stack buffer stays there.
func (r *Representation) find(name string) (int, bool) {
	lo, hi := 0, len(r.segs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.segs[m].name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.segs) && r.segs[lo].name == name
}

// lookup returns the named segment, or nil when it does not exist.
func (r *Representation) lookup(name string) *Segment {
	if i, ok := r.find(name); ok {
		return &r.segs[i]
	}
	return nil
}

// slot returns the named segment, inserting an empty one in order when
// there is none. Names that arrive in order append. An entry found takes
// the caller's equal name, so that one no longer as decoded holds
// nothing of the encoding it was decoded from; the insert makes name
// escape already, so this costs nothing.
func (r *Representation) slot(name string) *Segment {
	i, ok := r.find(name)
	if !ok {
		r.segs = slices.Insert(r.segs, i, Segment{name: name})
	}
	r.segs[i].name = name
	return &r.segs[i]
}

// change sets s's contents and counts the change.
func (r *Representation) change(s *Segment, kind Kind, data []byte, caps capability.List) {
	r.stamp++
	s.kind, s.data, s.caps = kind, data, caps
}

// SetData installs (or replaces) the named data segment with a copy of
// b. Passing nil b installs an empty data segment.
func (r *Representation) SetData(name string, b []byte) {
	r.change(r.slot(name), Data, append([]byte(nil), b...), nil)
}

// SetCaps installs (or replaces) the named capability segment with a
// copy of l.
func (r *Representation) SetCaps(name string, l capability.List) {
	r.change(r.slot(name), Caps, nil, l.Clone())
}

// get returns the named segment, which must be of kind k. Its error
// holds a clone of name, so name does not escape.
func (r *Representation) get(name string, k Kind) (*Segment, error) {
	s := r.lookup(name)
	if s == nil {
		return nil, &lookupError{name: strings.Clone(name), want: k}
	}
	if s.kind != k {
		return nil, &lookupError{name: strings.Clone(name), has: s.kind, want: k}
	}
	return s, nil
}

// lookupError reports a segment that is missing or of the wrong kind. A
// miss is routine — a type's first Update reads a segment it has yet to
// set — so the message is formatted only when it is read.
type lookupError struct {
	name      string
	has, want Kind // has is zero when there is no such segment
}

func (e *lookupError) Error() string {
	if e.has == 0 {
		return fmt.Sprintf("%v: %q", ErrNoSegment, e.name)
	}
	return fmt.Sprintf("%v: %q is %v, not %v", ErrKind, e.name, e.has, e.want)
}

// Unwrap returns ErrNoSegment or ErrKind.
func (e *lookupError) Unwrap() error {
	if e.has == 0 {
		return ErrNoSegment
	}
	return ErrKind
}

// Data returns a copy of the named data segment's bytes.
func (r *Representation) Data(name string) ([]byte, error) {
	s, err := r.get(name, Data)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), s.data...), nil
}

// CopyData copies the named data segment's bytes into dst and returns
// the segment's length n. When n > len(dst) only len(dst) bytes were
// copied, so a caller that does not know the length asks with a nil dst
// and sizes its buffer from the answer.
func (r *Representation) CopyData(dst []byte, name string) (n int, err error) {
	s, err := r.get(name, Data)
	if err != nil {
		return 0, err
	}
	copy(dst, s.data)
	return len(s.data), nil
}

// Caps returns a copy of the named capability segment's list.
func (r *Representation) Caps(name string) (capability.List, error) {
	s, err := r.get(name, Caps)
	if err != nil {
		return nil, err
	}
	return s.caps.Clone(), nil
}

// Delete removes the named segment if present.
func (r *Representation) Delete(name string) {
	if i, ok := r.find(name); ok {
		r.segs = slices.Delete(r.segs, i, i+1)
		r.stamp++
	}
}

// Has reports whether the named segment exists.
func (r *Representation) Has(name string) bool { return r.lookup(name) != nil }

// Names returns the segment names in sorted order.
func (r *Representation) Names() []string {
	names := make([]string, len(r.segs))
	for i := range r.segs {
		names[i] = r.segs[i].name
	}
	return names
}

// NumSegments returns the number of segments in the representation.
func (r *Representation) NumSegments() int { return len(r.segs) }

// Size returns the total payload size: bytes of data plus encoded bytes
// of capabilities. It is the quantity the node's virtual memory budget
// accounts for.
func (r *Representation) Size() int {
	total := 0
	for i := range r.segs {
		total += len(r.segs[i].data) + len(r.segs[i].caps)*capability.EncodedSize
	}
	return total
}

// Capabilities returns every capability reachable from the
// representation, across all capability segments in name order. The
// kernel uses this to discover inter-object references (e.g. for
// location prefetch).
func (r *Representation) Capabilities() capability.List {
	var out capability.List
	for i := range r.segs {
		out = append(out, r.segs[i].caps...)
	}
	return out
}

// Clone returns a deep copy of the representation, in which every
// segment is a change since the clean mark. The copy's names are its
// own, too: it keeps nothing r was decoded from.
func (r *Representation) Clone() *Representation {
	out := New()
	for i := range r.segs {
		switch s := &r.segs[i]; s.kind {
		case Data:
			out.SetData(strings.Clone(s.name), s.data)
		case Caps:
			out.SetCaps(strings.Clone(s.name), s.caps)
		}
	}
	return out
}

// Equal reports whether two representations have identical segment
// names, kinds and contents.
func (r *Representation) Equal(o *Representation) bool {
	return slices.EqualFunc(r.segs, o.segs, func(s, t Segment) bool {
		return s.name == t.name && s.kind == t.kind && string(s.data) == string(t.data) && slices.Equal(s.caps, t.caps)
	})
}

// Encoding format:
//
//	magic   uint32  'E''d''R''1'
//	nsegs   uint32
//	per segment (in sorted name order, for determinism):
//	  nameLen uint16, name bytes
//	  kind    uint8
//	  bodyLen uint32, body bytes (raw data, or encoded capability list)
//	crc32   uint32 (IEEE, over everything before it)
const encMagic = 0x45645231 // "EdR1"

// Encode appends the deterministic binary form of the representation
// (including its trailing checksum) to dst, growing dst once to the
// exact size.
func (r *Representation) Encode(dst []byte) []byte {
	if size := r.EncodedSize(); cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, encMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.segs)))
	for i := range r.segs {
		s := &r.segs[i]
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.name)))
		dst = append(dst, s.name...)
		dst = append(dst, byte(s.kind))
		dst = binary.BigEndian.AppendUint32(dst, uint32(s.bodyLen()))
		if s.kind == Data {
			dst = append(dst, s.data...)
		} else {
			dst = capability.EncodeList(dst, s.caps)
		}
	}
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// EncodedSize is the length of what Encode appends: a caller that
// encodes into a buffer of its own sizes the buffer by it.
func (r *Representation) EncodedSize() int {
	size := 12 // magic, count, checksum
	for i := range r.segs {
		s := &r.segs[i]
		size += 2 + len(s.name) + 1 + 4 + s.bodyLen()
	}
	return size
}

// bodyLen is the length of the segment's encoded body: its bytes, or a
// count and the capabilities.
func (s *Segment) bodyLen() int {
	if s.kind == Data {
		return len(s.data)
	}
	return 4 + len(s.caps)*capability.EncodedSize
}

// Decode parses a representation from the front of src, returning it
// and the remaining bytes. Any structural damage — truncation, a bad
// magic number, names out of order, an unknown kind, a malformed
// capability list, a failed checksum — yields ErrBadEncoding, and is
// found before anything is built; so an encoding Decode accepts is the
// one Encode writes for its result.
//
// The caller hands src over. The result's names and data segments are
// its bytes — a data segment a capacity-clipped slice of them, a name a
// string over them — so src must not be written afterwards; every other
// method copies as before, so nothing the representation does writes to
// it either. A name is the caller's again once its segment is set, so
// src stays reachable only through segments that are as decoded. The
// result is clean: it is exactly what src holds. Decode allocates the
// Representation and its segment array; capability lists are the only
// others.
func Decode(src []byte) (*Representation, []byte, error) {
	segs, rest, err := decode(src, nil)
	if err != nil {
		return nil, src, err
	}
	return &Representation{segs: segs}, rest, nil
}

// DecodeInto is Decode into a representation the caller owns, such as
// one inside the object that will hold it: on success r is replaced by
// the decoded representation, and on failure it is left as it was.
// table, when its length is the encoding's segment count (Count), is the
// segment array the representation takes, spare capacity and all; it is
// written only on success. Otherwise DecodeInto allocates the array, and
// capability lists are its only other allocations.
func DecodeInto(r *Representation, src []byte, table []Segment) ([]byte, error) {
	segs, rest, err := decode(src, table)
	if err != nil {
		return src, err
	}
	*r = Representation{segs: segs}
	return rest, nil
}

// Count returns the number of segments the encoding at the front of src
// says it holds, as at most len(src), which no true count reaches, or 0
// when src is too short to say. It checks nothing else: it is for sizing
// a table for DecodeInto, which checks.
func Count(src []byte) int {
	if len(src) < 8 {
		return 0
	}
	return int(min(binary.BigEndian.Uint32(src[4:]), uint32(len(src))))
}

// decode checks the encoding at the front of src and then builds its
// segments, in table when it has their number. Names are strings over
// src's bytes: this is the package's one use of unsafe, and Decode's
// contract — src is never written afterwards — is what makes it sound.
func decode(src []byte, table []Segment) ([]Segment, []byte, error) {
	nsegs, end, err := check(src)
	if err != nil {
		return nil, src, err
	}
	segs := table
	if len(segs) != nsegs {
		segs = make([]Segment, nsegs)
	}
	b := src[8:end]
	for i := range segs {
		name, kind, body, rest, _ := segmentAt(b)
		s := Segment{kind: kind}
		if len(name) > 0 {
			s.name = unsafe.String(&name[0], len(name))
		}
		if kind == Data {
			s.data = body[:len(body):len(body)]
		} else if n := len(body) / capability.EncodedSize; n > 0 {
			s.caps = make(capability.List, n)
			for j := range s.caps {
				s.caps[j], _, _ = capability.Decode(body[4+j*capability.EncodedSize:])
			}
		}
		segs[i] = s
		b = rest
	}
	return segs, src[end+4:], nil
}

// check verifies an encoding at the front of src without building
// anything. It returns the segment count and where the checksum starts.
func check(src []byte) (nsegs, end int, err error) {
	if len(src) < 8 {
		return 0, 0, fmt.Errorf("%w: truncated header", ErrBadEncoding)
	}
	if binary.BigEndian.Uint32(src) != encMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrBadEncoding)
	}
	n := binary.BigEndian.Uint32(src[4:])
	b := src[8:]
	var prev []byte
	for i := uint32(0); i < n; i++ {
		name, kind, body, rest, ok := segmentAt(b)
		if !ok {
			return 0, 0, fmt.Errorf("%w: truncated segment %d", ErrBadEncoding, i)
		}
		if i > 0 && string(prev) >= string(name) {
			return 0, 0, fmt.Errorf("%w: segment %q out of order", ErrBadEncoding, name)
		}
		switch kind {
		case Data:
		case Caps:
			if err := checkCaps(body); err != nil {
				return 0, 0, fmt.Errorf("%w: segment %q: %v", ErrBadEncoding, name, err)
			}
		default:
			return 0, 0, fmt.Errorf("%w: segment %q has unknown kind %d", ErrBadEncoding, name, kind)
		}
		prev = name
		b = rest
	}
	if len(b) < 4 {
		return 0, 0, fmt.Errorf("%w: truncated checksum", ErrBadEncoding)
	}
	end = len(src) - len(b)
	if crc32.ChecksumIEEE(src[:end]) != binary.BigEndian.Uint32(b) {
		return 0, 0, fmt.Errorf("%w: checksum mismatch", ErrBadEncoding)
	}
	return int(n), end, nil
}

// segmentAt splits the segment at the front of b into its parts and
// what follows it. ok is false when b ends before the segment does.
func segmentAt(b []byte) (name []byte, kind Kind, body, rest []byte, ok bool) {
	if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b))+1+4 {
		return nil, 0, nil, nil, false
	}
	nameLen := int(binary.BigEndian.Uint16(b))
	name = b[2 : 2+nameLen]
	kind = Kind(b[2+nameLen])
	bodyLen := int(binary.BigEndian.Uint32(b[2+nameLen+1:]))
	rest = b[2+nameLen+1+4:]
	if bodyLen < 0 || len(rest) < bodyLen {
		return nil, 0, nil, nil, false
	}
	return name, kind, rest[:bodyLen], rest[bodyLen:], true
}

// checkCaps verifies an encoded capability list that must fill body
// exactly.
func checkCaps(body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("%w: truncated list header", capability.ErrBadCapability)
	}
	n := int(binary.BigEndian.Uint32(body))
	if (len(body)-4)%capability.EncodedSize != 0 || n != (len(body)-4)/capability.EncodedSize {
		return fmt.Errorf("%w: list of %d in %d bytes", capability.ErrBadCapability, n, len(body)-4)
	}
	for rest := body[4:]; len(rest) > 0; {
		var err error
		if _, rest, err = capability.Decode(rest); err != nil {
			return err
		}
	}
	return nil
}

// ---- change tracking ----
//
// A checkpoint reads Stamp when it takes its snapshot and, once that
// snapshot is durable, raises the clean mark to it with MarkClean;
// changes made meanwhile stay above the mark. The kernel reads HasDirty
// to decide whether an object must be written before it is evicted.

// Stamp returns the newest change's stamp: what a checkpoint taking its
// snapshot now will hand to MarkClean once the snapshot is durable.
func (r *Representation) Stamp() uint64 { return r.stamp }

// HasDirty reports whether anything changed since the clean mark.
func (r *Representation) HasDirty() bool { return r.stamp > r.clean }

// MarkClean records that a durable copy holds every change stamped up
// to stamp, a value Stamp returned. The mark only rises: a checkpoint
// that finishes after a later one leaves it where the later one put it.
func (r *Representation) MarkClean(stamp uint64) { r.clean = max(r.clean, stamp) }
