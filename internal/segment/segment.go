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
	"sort"
	"strings"

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

// Representation is the complete long-term state of one object: a
// mapping from segment names to segments. The zero value is an empty
// representation ready to use. A Representation is not safe for
// concurrent mutation; in Eden the owning object's coordinator
// serializes access.
type Representation struct {
	segs  map[string]*Segment
	dirty map[string]bool // segment-level change tracking; see Dirty
}

// New returns an empty representation.
func New() *Representation {
	return &Representation{segs: make(map[string]*Segment)}
}

func (r *Representation) init() {
	if r.segs == nil {
		r.segs = make(map[string]*Segment)
	}
}

// SetData installs (or replaces) the named data segment with a copy of
// b. Passing nil b installs an empty data segment.
func (r *Representation) SetData(name string, b []byte) {
	r.init()
	r.segs[name] = &Segment{kind: Data, data: append([]byte(nil), b...)}
	r.markDirty(name, false)
}

// SetCaps installs (or replaces) the named capability segment with a
// copy of l.
func (r *Representation) SetCaps(name string, l capability.List) {
	r.init()
	r.segs[name] = &Segment{kind: Caps, caps: l.Clone()}
	r.markDirty(name, false)
}

// Data returns a copy of the named data segment's bytes.
func (r *Representation) Data(name string) ([]byte, error) {
	s, ok := r.segs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSegment, name)
	}
	if s.kind != Data {
		return nil, fmt.Errorf("%w: %q is %v, not data", ErrKind, name, s.kind)
	}
	return append([]byte(nil), s.data...), nil
}

// CopyData copies the named data segment's bytes into dst and returns
// the segment's length n. When n > len(dst) only len(dst) bytes were
// copied, so a caller that does not know the length asks with a nil dst
// and sizes its buffer from the answer.
func (r *Representation) CopyData(dst []byte, name string) (n int, err error) {
	// The errors quote a clone, so name does not escape: a name the
	// caller builds in a stack buffer stays there.
	s, ok := r.segs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSegment, strings.Clone(name))
	}
	if s.kind != Data {
		return 0, fmt.Errorf("%w: %q is %v, not data", ErrKind, strings.Clone(name), s.kind)
	}
	copy(dst, s.data)
	return len(s.data), nil
}

// Caps returns a copy of the named capability segment's list.
func (r *Representation) Caps(name string) (capability.List, error) {
	s, ok := r.segs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSegment, name)
	}
	if s.kind != Caps {
		return nil, fmt.Errorf("%w: %q is %v, not caps", ErrKind, name, s.kind)
	}
	return s.caps.Clone(), nil
}

// Delete removes the named segment if present.
func (r *Representation) Delete(name string) {
	if _, ok := r.segs[name]; ok {
		delete(r.segs, name)
		r.markDirty(name, true)
	}
}

// Has reports whether the named segment exists.
func (r *Representation) Has(name string) bool {
	_, ok := r.segs[name]
	return ok
}

// Names returns the segment names in sorted order.
func (r *Representation) Names() []string {
	names := make([]string, 0, len(r.segs))
	for n := range r.segs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NumSegments returns the number of segments in the representation.
func (r *Representation) NumSegments() int { return len(r.segs) }

// Size returns the total payload size: bytes of data plus encoded bytes
// of capabilities. It is the quantity the node's virtual memory budget
// accounts for.
func (r *Representation) Size() int {
	total := 0
	for _, s := range r.segs {
		if s.kind == Data {
			total += len(s.data)
		} else {
			total += len(s.caps) * capability.EncodedSize
		}
	}
	return total
}

// Capabilities returns every capability reachable from the
// representation, across all capability segments. The kernel uses this
// to discover inter-object references (e.g. for location prefetch).
func (r *Representation) Capabilities() capability.List {
	var out capability.List
	for _, name := range r.Names() {
		if s := r.segs[name]; s.kind == Caps {
			out = append(out, s.caps...)
		}
	}
	return out
}

// Clone returns a deep copy of the representation. Checkpointing
// clones so the object may keep mutating while the snapshot is written.
func (r *Representation) Clone() *Representation {
	out := New()
	for name, s := range r.segs {
		if s.kind == Data {
			out.SetData(name, s.data)
		} else {
			out.SetCaps(name, s.caps)
		}
	}
	return out
}

// Equal reports whether two representations have identical segment
// names, kinds and contents.
func (r *Representation) Equal(o *Representation) bool {
	if len(r.segs) != len(o.segs) {
		return false
	}
	for name, s := range r.segs {
		t, ok := o.segs[name]
		if !ok || s.kind != t.kind {
			return false
		}
		switch s.kind {
		case Data:
			if string(s.data) != string(t.data) {
				return false
			}
		case Caps:
			if len(s.caps) != len(t.caps) {
				return false
			}
			for i := range s.caps {
				if s.caps[i] != t.caps[i] {
					return false
				}
			}
		}
	}
	return true
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
// (including its trailing checksum) to dst.
func (r *Representation) Encode(dst []byte) []byte { return r.encode(dst, r.Names()) }

// encode appends the encoding of the named segments, which must be
// present, sorted and distinct, growing dst once to the exact size.
func (r *Representation) encode(dst []byte, names []string) []byte {
	size := 12 // magic, count, checksum
	for _, name := range names {
		size += 2 + len(name) + 1 + 4 + r.segs[name].bodyLen()
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, encMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(names)))
	for _, name := range names {
		s := r.segs[name]
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
		dst = append(dst, name...)
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
// The caller hands src over. The result's data segments are slices of
// it, capacity-clipped, so src must not be written afterwards; every
// other method copies as before, so nothing the representation does
// writes to it either. The result is clean: it is exactly what src holds.
func Decode(src []byte) (*Representation, []byte, error) {
	nsegs, nameBytes, end, err := check(src)
	if err != nil {
		return nil, src, err
	}
	// One allocation each for the representation, its table, its
	// segments and all their names; capability lists are the only others.
	r := &Representation{segs: make(map[string]*Segment, nsegs)}
	segs := make([]Segment, nsegs)
	var names strings.Builder
	names.Grow(nameBytes)
	b := src[8:end]
	for range segs {
		name, _, _, rest, _ := segmentAt(b)
		names.Write(name)
		b = rest
	}
	all, at := names.String(), 0
	b = src[8:end]
	for i := range segs {
		name, kind, body, rest, _ := segmentAt(b)
		s := &segs[i]
		s.kind = kind
		if kind == Data {
			s.data = body[:len(body):len(body)]
		} else if n := len(body) / capability.EncodedSize; n > 0 {
			s.caps = make(capability.List, n)
			for j := range s.caps {
				s.caps[j], _, _ = capability.Decode(body[4+j*capability.EncodedSize:])
			}
		}
		r.segs[all[at:at+len(name)]] = s
		at += len(name)
		b = rest
	}
	return r, src[end+4:], nil
}

// check verifies an encoding at the front of src without building
// anything. It returns the segment count, the total length of the
// names and where the checksum starts.
func check(src []byte) (nsegs, nameBytes, end int, err error) {
	if len(src) < 8 {
		return 0, 0, 0, fmt.Errorf("%w: truncated header", ErrBadEncoding)
	}
	if binary.BigEndian.Uint32(src) != encMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic", ErrBadEncoding)
	}
	n := binary.BigEndian.Uint32(src[4:])
	b := src[8:]
	var prev []byte
	for i := uint32(0); i < n; i++ {
		name, kind, body, rest, ok := segmentAt(b)
		if !ok {
			return 0, 0, 0, fmt.Errorf("%w: truncated segment %d", ErrBadEncoding, i)
		}
		if i > 0 && string(prev) >= string(name) {
			return 0, 0, 0, fmt.Errorf("%w: segment %q out of order", ErrBadEncoding, name)
		}
		switch kind {
		case Data:
		case Caps:
			if err := checkCaps(body); err != nil {
				return 0, 0, 0, fmt.Errorf("%w: segment %q: %v", ErrBadEncoding, name, err)
			}
		default:
			return 0, 0, 0, fmt.Errorf("%w: segment %q has unknown kind %d", ErrBadEncoding, name, kind)
		}
		prev, nameBytes = name, nameBytes+len(name)
		b = rest
	}
	if len(b) < 4 {
		return 0, 0, 0, fmt.Errorf("%w: truncated checksum", ErrBadEncoding)
	}
	end = len(src) - len(b)
	if crc32.ChecksumIEEE(src[:end]) != binary.BigEndian.Uint32(b) {
		return 0, 0, 0, fmt.Errorf("%w: checksum mismatch", ErrBadEncoding)
	}
	return int(n), nameBytes, end, nil
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

// ---- dirty tracking (incremental checkpoint support) ----
//
// A Representation records which segments changed since it was made or
// decoded, or since the last TakeDirty, so the checkpoint machinery can
// ship only the delta to a remote checksite that already holds the
// previous version.

// markDirty notes a change to the named segment.
func (r *Representation) markDirty(name string, deleted bool) {
	if r.dirty == nil {
		r.dirty = make(map[string]bool)
	}
	// dirty[name] = true means "present and changed"; false means
	// "deleted". The latest change wins.
	r.dirty[name] = !deleted
}

// Dirty returns the names of segments changed (set) and removed
// (deleted) since the representation was last clean, each sorted.
func (r *Representation) Dirty() (changed, removed []string) { return DirtyFromTaken(r.dirty) }

// HasDirty reports whether any change was recorded since the
// representation was last clean.
func (r *Representation) HasDirty() bool { return len(r.dirty) > 0 }

// TakeDirty removes and returns the change-tracking state, leaving the
// representation clean. If the checkpoint consuming the changes fails,
// RestoreDirty merges them back; changes recorded in between are
// preserved either way.
func (r *Representation) TakeDirty() map[string]bool {
	d := r.dirty
	r.dirty = nil
	return d
}

// RestoreDirty merges previously taken change-tracking state back in
// (newer marks win).
func (r *Representation) RestoreDirty(taken map[string]bool) {
	if len(taken) == 0 {
		return
	}
	if r.dirty == nil {
		r.dirty = make(map[string]bool, len(taken))
	}
	for name, present := range taken {
		if _, newer := r.dirty[name]; !newer {
			r.dirty[name] = present
		}
	}
}

// DirtyFromTaken splits taken change state into changed and removed
// name lists, sorted.
func DirtyFromTaken(taken map[string]bool) (changed, removed []string) {
	for name, present := range taken {
		if present {
			changed = append(changed, name)
		} else {
			removed = append(removed, name)
		}
	}
	sort.Strings(changed)
	sort.Strings(removed)
	return changed, removed
}

// EncodePartial encodes only the named segments, in the same wire
// format as Encode; names absent from the representation are skipped.
// Decoding a partial encoding yields a sub-representation that Merge
// applies onto a base.
func (r *Representation) EncodePartial(names []string, dst []byte) []byte {
	present := make([]string, 0, len(names))
	for _, name := range names {
		if _, ok := r.segs[name]; ok {
			present = append(present, name)
		}
	}
	slices.Sort(present)
	return r.encode(dst, slices.Compact(present))
}

// Merge applies a partial representation onto r: every segment in
// partial replaces (or adds to) r's, and every name in removed is
// deleted. Merge does not touch r's dirty tracking.
func (r *Representation) Merge(partial *Representation, removed []string) {
	r.init()
	for name, s := range partial.segs {
		if s.kind == Data {
			r.segs[name] = &Segment{kind: Data, data: append([]byte(nil), s.data...)}
		} else {
			r.segs[name] = &Segment{kind: Caps, caps: s.caps.Clone()}
		}
	}
	for _, name := range removed {
		delete(r.segs, name)
	}
}
