// Package edenid implements the system-wide unique names of Eden objects.
//
// The paper specifies that every Eden object has "a system-wide,
// unique-for-all-time binary identifier"; the name is
// location-independent "although it may indicate where the object was
// created". An ID here is a 128-bit value composed of the creating
// node's number (the locator's first guess at where the object is, never
// an authority), a monotonic creation timestamp, a per-generator
// sequence counter, and a checksum byte that lets the codec reject
// corrupted names.
package edenid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Size is the encoded size of an ID in bytes.
const Size = 16

// ID is the unique-for-all-time name of an Eden object.
//
// Layout (big-endian):
//
//	bytes  0..3  creating node number (hint)
//	bytes  4..11 creation timestamp (generator-local, monotonic)
//	bytes 12..14 sequence counter (wraps per timestamp tick)
//	byte  15     checksum over bytes 0..14
//
// The zero ID is reserved and never names an object; it is used as the
// "no object" value throughout the system.
type ID [Size]byte

// Nil is the zero ID; it never names an object.
var Nil ID

// ErrBadID reports a malformed or corrupted encoded ID.
var ErrBadID = errors.New("edenid: malformed id")

// checksum computes the guard byte over the first 15 bytes of an ID.
// It is a simple position-weighted sum: cheap, and sufficient to catch
// the truncation and byte-swap corruptions the codec cares about.
func checksum(b []byte) byte {
	var s byte
	for i, c := range b {
		s += c ^ byte(i*37+1)
	}
	return s
}

// New assembles an ID from its parts and seals it with a checksum.
// Callers normally use a Generator instead.
func New(node uint32, stamp uint64, seq uint32) ID {
	var id ID
	binary.BigEndian.PutUint32(id[0:4], node)
	binary.BigEndian.PutUint64(id[4:12], stamp)
	id[12] = byte(seq >> 16)
	id[13] = byte(seq >> 8)
	id[14] = byte(seq)
	id[15] = checksum(id[:15])
	return id
}

// Node returns the number of the node on which the object was created.
// Per the paper this only indicates origin. The locator tries it first
// for an object it knows nothing about, which is right for one that
// never moved; the node is never an authority on where the object is,
// since objects move.
func (id ID) Node() uint32 { return binary.BigEndian.Uint32(id[0:4]) }

// Stamp returns the creation timestamp recorded in the ID.
func (id ID) Stamp() uint64 { return binary.BigEndian.Uint64(id[4:12]) }

// Seq returns the sequence counter recorded in the ID.
func (id ID) Seq() uint32 {
	return uint32(id[12])<<16 | uint32(id[13])<<8 | uint32(id[14])
}

// IsNil reports whether id is the reserved zero ID.
func (id ID) IsNil() bool { return id == Nil }

// Valid reports whether the ID's checksum is intact. The Nil ID is
// valid by definition.
func (id ID) Valid() bool {
	if id.IsNil() {
		return true
	}
	return id[15] == checksum(id[:15])
}

// String renders the ID in the compact form node.stamp.seq, e.g.
// "3.000000000000002a.000001". Nil renders as "nil".
func (id ID) String() string {
	if id.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("%d.%016x.%06x", id.Node(), id.Stamp(), id.Seq())
}

// Compare orders IDs lexicographically by their encoded form, giving a
// total order that sorts first by creating node, then by creation time.
func Compare(a, b ID) int { return bytes.Compare(a[:], b[:]) }

// Encode appends the wire form of the ID to dst and returns the
// extended slice.
func (id ID) Encode(dst []byte) []byte { return append(dst, id[:]...) }

// Decode reads an ID from the front of src, returning the ID and the
// remaining bytes. It fails if src is short or the checksum is wrong.
func Decode(src []byte) (ID, []byte, error) {
	if len(src) < Size {
		return Nil, src, fmt.Errorf("%w: need %d bytes, have %d", ErrBadID, Size, len(src))
	}
	var id ID
	copy(id[:], src[:Size])
	if !id.Valid() {
		return Nil, src, fmt.Errorf("%w: bad checksum", ErrBadID)
	}
	return id, src[Size:], nil
}

// A Generator mints unique IDs on behalf of one node. Uniqueness
// within a generator comes from the (stamp, seq) pair: the stamp is a
// monotonic counter advanced whenever the 24-bit sequence space wraps,
// so a generator can mint 2^24 names per tick indefinitely without
// reuse. Uniqueness across nodes comes from distinct node numbers;
// system assembly is responsible for not reusing a (node number,
// starting stamp) pair, which NewGenerator enforces per process.
type Generator struct {
	node  uint32
	mu    sync.Mutex
	stamp uint64
	seq   uint32
}

// processEpoch distinguishes generators created within one process so
// that two generators for the same node number (e.g. a node restarted
// in a test) never mint colliding names.
var processEpoch atomic.Uint64

// NewGenerator returns a Generator minting IDs for the given node
// number. Each call obtains a fresh epoch, so even generators sharing
// a node number are collision-free within the process.
func NewGenerator(node uint32) *Generator {
	return &Generator{node: node, stamp: processEpoch.Add(1) << 24}
}

// Node returns the node number this generator mints for.
func (g *Generator) Node() uint32 { return g.node }

// Next mints a new unique ID.
func (g *Generator) Next() ID {
	g.mu.Lock()
	g.seq++
	if g.seq >= 1<<24 {
		g.seq = 1
		g.stamp++
	}
	id := New(g.node, g.stamp, g.seq)
	g.mu.Unlock()
	return id
}
