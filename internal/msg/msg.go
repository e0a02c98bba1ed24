// Package msg defines the kernel-to-kernel wire protocol of the Eden
// system: invocation requests and replies, location queries, and the
// frames that ship object representations between nodes for checkpoint
// and move.
//
// Everything on the wire is length-delimited binary built from
// encoding/binary, so the protocol works identically over the
// in-process mesh transport and the TCP transport. Every frame starts
// with a fixed envelope (version, kind, source, destination,
// correlation id); the payload layout depends on the kind.
//
// Decoders alias: every []byte a Decode* function returns is a
// sub-slice of its input, never a copy. The input must therefore stay
// unchanged for as long as the decoded value is in use — which the
// transports guarantee by handing each inbound frame to its handler in
// a buffer nobody else writes to: a fresh allocation, or for an
// invocation request a pooled buffer that is the handler's until it
// frees it (Envelope.Frame; DESIGN.md, "The wire path: who owns a
// buffer").
package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/store"
)

// Version is the protocol version carried in every envelope. Peers
// reject frames with a different version outright. Version 2 added
// the trace id to the envelope header.
const Version = 2

// Kind identifies the payload carried by an envelope.
type Kind uint8

// Frame kinds.
const (
	// KindInvokeReq carries an invocation request toward the target
	// object's node.
	KindInvokeReq Kind = iota + 1
	// KindInvokeRep carries an invocation's status and results back to
	// the invoker.
	KindInvokeRep
	// KindLocateReq asks "which node hosts object X?"; it is broadcast
	// by a kernel whose hint cache misses.
	KindLocateReq
	// KindLocateRep answers a locate request.
	KindLocateRep
	// KindShip carries an object's representation: checkpoint traffic
	// to a checksite, replica distribution for frozen objects, or the
	// payload of a move.
	KindShip
	// KindHello announces a node to its peers when it joins.
	KindHello
	// KindInvalidate tells checkpoint-holding nodes that their record
	// of an object changed: a newer checkpoint was acknowledged (raise
	// the serving floor) or the object moved (stop serving entirely).
	KindInvalidate
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindInvokeReq:
		return "invoke-req"
	case KindInvokeRep:
		return "invoke-rep"
	case KindLocateReq:
		return "locate-req"
	case KindLocateRep:
		return "locate-rep"
	case KindShip:
		return "ship"
	case KindHello:
		return "hello"
	case KindInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Broadcast is the reserved destination meaning "all nodes".
const Broadcast uint32 = 0xFFFFFFFF

// ErrBadFrame reports a malformed wire frame.
var ErrBadFrame = errors.New("msg: malformed frame")

// Envelope is the fixed header plus payload of one frame.
type Envelope struct {
	// Kind selects the payload type.
	Kind Kind
	// From is the sending node's number.
	From uint32
	// To is the destination node, or Broadcast.
	To uint32
	// Corr correlates replies with requests; the requester picks it.
	Corr uint64
	// Trace is the invocation trace id the frame belongs to, minted by
	// the originating kernel and echoed in replies, so one user-level
	// invocation can be followed across every node it touches. Zero
	// means untraced.
	Trace uint64
	// Payload is the kind-specific body, already encoded.
	Payload []byte
	// Frame is the pooled buffer an inbound Payload lies in, or nil when
	// the handler owns Payload outright. A transport lends one with an
	// invocation request (FrameBuffer), each delivery its own; whoever
	// handles the frame frees it once nothing reads the payload, or
	// leaves it to the collector. Senders leave it nil: Send ignores it.
	Frame *Buffer
}

// envelope header: version(1) kind(1) from(4) to(4) corr(8) trace(8) payloadLen(4)
const headerSize = 1 + 1 + 4 + 4 + 8 + 8 + 4

// Size is the length of the envelope's wire form.
func (e Envelope) Size() int { return headerSize + len(e.Payload) }

// EncodeEnvelope appends the wire form of e to dst.
func EncodeEnvelope(dst []byte, e Envelope) []byte {
	dst = append(dst, Version, byte(e.Kind))
	dst = binary.BigEndian.AppendUint32(dst, e.From)
	dst = binary.BigEndian.AppendUint32(dst, e.To)
	dst = binary.BigEndian.AppendUint64(dst, e.Corr)
	dst = binary.BigEndian.AppendUint64(dst, e.Trace)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Payload)))
	return append(dst, e.Payload...)
}

// Buffer is a pooled encoding buffer. A sender gets one from Encode,
// holding a payload or a whole frame (a transport's framing around
// EncodeEnvelope) in the smallest size class that fits it, or an empty
// one from GetBuffer, and returns it with Free once nobody reads the
// bytes any more: a payload when Send returns, a frame when it is on
// the wire. The struct wraps the slice so the pool traffics in a stable
// pointer rather than re-boxing a slice header on every Put.
type Buffer struct {
	bufferState // what a race build checks of the buffer's lifetime; nothing otherwise
	// B is the buffer's contents; append to it freely.
	B []byte
}

// Poison is the byte a race build overwrites a freed buffer with, all of
// its capacity, so that a reader still holding its bytes sees them
// change (buffer_race.go); a race build also panics on a buffer freed
// twice. Other builds leave freed bytes as they are.
const Poison byte = 0xdb

// maxPooledBuffer is the largest class: a frame carrying a 64 KiB
// payload, with every header around it, fits; nothing larger is pooled,
// so one huge Ship frame does not pin megabytes inside a pool forever.
const maxPooledBuffer = 64<<10 + 1<<10

// bufferClasses are the pools, smallest first. Each class is a
// power-of-two payload plus 1 KiB for the headers around it: the 5 KiB
// class holds every request and reply up to a 4 KiB page of data, and
// maxPooledBuffer the largest frame. A buffer is made at its class's
// capacity and goes back to the largest class it covers, so a 64-byte
// message never holds a 64 KiB array that an earlier frame grew it to,
// and a pool keeps what is in flight, not its high-water mark. Each
// class is a sync.Pool, which the collector empties and which then
// allocates its per-processor queues anew, so a third class cost more
// allocations than the memory it saved.
var bufferClasses = [...]struct {
	size int
	pool sync.Pool
}{{size: 4<<10 + 1<<10}, {size: maxPooledBuffer}}

// GetBuffer returns an empty buffer of the smallest class.
func GetBuffer() *Buffer { return borrow(0) }

// borrow returns an empty buffer of the smallest class that holds n
// bytes, or an unpooled one of exactly n bytes when none does.
func borrow(n int) *Buffer {
	for i := range bufferClasses {
		c := &bufferClasses[i]
		if n > c.size {
			continue
		}
		if b, _ := c.pool.Get().(*Buffer); b != nil {
			b.reused()
			b.B = b.B[:0]
			return b
		}
		return &Buffer{B: make([]byte, 0, c.size)}
	}
	return &Buffer{B: make([]byte, 0, n)}
}

// MaxFrameBuffer is the largest frame FrameBuffer lends.
const MaxFrameBuffer = maxPooledBuffer

// FrameBuffer returns a pooled buffer of n bytes, whatever they hold,
// for a transport to receive one inbound frame into (or a checkpoint to
// encode a representation into), or nil when n is beyond
// MaxFrameBuffer: such a frame is allocated for its delivery.
func FrameBuffer(n int) *Buffer {
	if n > MaxFrameBuffer {
		return nil
	}
	b := borrow(n)
	b.B = b.B[:n]
	return b
}

// Encode returns a pooled buffer holding the wire form of one payload,
// taken from the smallest class its Size fits. It is generic rather
// than taking an interface so that a request or reply passed by value
// is not boxed.
func Encode[P interface {
	Size() int
	Encode(dst []byte) []byte
}](p P) *Buffer {
	b := borrow(p.Size())
	b.B = p.Encode(b.B)
	return b
}

// Free returns the buffer to the largest class its capacity covers; a
// buffer smaller than the smallest class or larger than maxPooledBuffer
// is left to the collector. The caller must not touch b (or its bytes)
// afterwards.
func (b *Buffer) Free() {
	if b == nil {
		return
	}
	b.freed()
	if cap(b.B) > maxPooledBuffer {
		return
	}
	for i := len(bufferClasses) - 1; i >= 0; i-- {
		if c := &bufferClasses[i]; cap(b.B) >= c.size {
			c.pool.Put(b)
			return
		}
	}
}

// DecodeEnvelope parses one envelope from the front of src, returning
// it and the remaining bytes. The envelope's Payload aliases src.
func DecodeEnvelope(src []byte) (Envelope, []byte, error) {
	if len(src) < headerSize {
		return Envelope{}, src, fmt.Errorf("%w: short header", ErrBadFrame)
	}
	if src[0] != Version {
		return Envelope{}, src, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, src[0], Version)
	}
	e := Envelope{
		Kind:  Kind(src[1]),
		From:  binary.BigEndian.Uint32(src[2:6]),
		To:    binary.BigEndian.Uint32(src[6:10]),
		Corr:  binary.BigEndian.Uint64(src[10:18]),
		Trace: binary.BigEndian.Uint64(src[18:26]),
	}
	plen := int(binary.BigEndian.Uint32(src[26:30]))
	rest := src[headerSize:]
	if plen < 0 || len(rest) < plen {
		return Envelope{}, src, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadFrame, len(rest), plen)
	}
	e.Payload = rest[:plen:plen]
	return e, rest[plen:], nil
}

// ---- byte/string/list helpers ----

func appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// takeBytes returns the length-prefixed field at the front of src as a
// sub-slice of src (capacity clipped, so appending to it cannot reach
// the bytes that follow), and the remainder.
func takeBytes(src []byte) ([]byte, []byte, error) {
	if len(src) < 4 {
		return nil, src, fmt.Errorf("%w: short length prefix", ErrBadFrame)
	}
	n := int(binary.BigEndian.Uint32(src))
	src = src[4:]
	if n < 0 || len(src) < n {
		return nil, src, fmt.Errorf("%w: truncated field", ErrBadFrame)
	}
	return src[:n:n], src[n:], nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func takeString(src []byte) (string, []byte, error) {
	b, rest, err := takeBytes(src)
	return string(b), rest, err
}

// opNames interns operation names. A request names its operation on
// every frame, and the set of names is the small fixed one the type
// registry holds: DecodeInvokeReq looks the decoded bytes up here and
// returns the registered string instead of allocating a new one per
// frame. A registration table, copied on write, so lookups take no lock.
var (
	opNamesMu sync.Mutex
	opNames   atomic.Pointer[map[string]string]
)

// InternOperation registers an operation name with the decoder. The type
// registry calls it for every operation of every type it is given; a name
// never registered still decodes, at one allocation per frame.
func InternOperation(name string) {
	opNamesMu.Lock()
	defer opNamesMu.Unlock()
	next := map[string]string{name: name}
	if old := opNames.Load(); old != nil {
		if _, known := (*old)[name]; known {
			return
		}
		for k, v := range *old {
			next[k] = v
		}
	}
	opNames.Store(&next)
}

// operationName is string(b), without the allocation when the name is a
// registered one.
func operationName(b []byte) string {
	if m := opNames.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok { // the conversion in a map index does not allocate
			return s
		}
	}
	return string(b)
}

// listSize is the length of a capability list's wire form.
func listSize(l capability.List) int { return 4 + len(l)*capability.EncodedSize }

// InvokeReq is the payload of KindInvokeReq: "the user supplies a
// capability for the object, the name of the operation to be invoked,
// and optionally a list of data and/or capability parameters",
// plus an optional timeout.
type InvokeReq struct {
	// Target is the capability being exercised. The receiving
	// coordinator validates its rights.
	Target capability.Capability
	// Operation names the operation to invoke.
	Operation string
	// Data carries the data parameters.
	Data []byte
	// Caps carries the capability parameters.
	Caps capability.List
	// TimeoutNanos is the invoker's timeout in nanoseconds, 0 for
	// none. It travels with the request so a forwarding kernel can
	// preserve the caller's bound.
	TimeoutNanos int64
	// Hops counts kernel-to-kernel forwards, bounding forwarding
	// chains after moves.
	Hops uint8
	// Flags carries per-request option bits (FlagAllowReplica).
	Flags uint8
}

// Request flag bits.
const (
	// FlagAllowReplica marks the caller as stale-tolerant: the serving
	// node may answer a read from a checkpoint shadow instead of
	// insisting on the home's live representation.
	FlagAllowReplica uint8 = 1 << 0
)

// AllowReplica reports whether the caller opted into replica serving.
func (r InvokeReq) AllowReplica() bool { return r.Flags&FlagAllowReplica != 0 }

// Size is the length of the request's wire form.
func (r InvokeReq) Size() int {
	return capability.EncodedSize + 4 + len(r.Operation) + 4 + len(r.Data) + listSize(r.Caps) + 8 + 2
}

// Encode appends the wire form of the request to dst.
func (r InvokeReq) Encode(dst []byte) []byte {
	dst = r.Target.Encode(dst)
	dst = appendString(dst, r.Operation)
	dst = appendBytes(dst, r.Data)
	dst = capability.EncodeList(dst, r.Caps)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.TimeoutNanos))
	return append(dst, r.Hops, r.Flags)
}

// DecodeInvokeReq parses an InvokeReq payload. Data aliases src.
func DecodeInvokeReq(src []byte) (InvokeReq, error) {
	var r InvokeReq
	var err error
	r.Target, src, err = capability.Decode(src)
	if err != nil {
		return r, fmt.Errorf("%w: target: %v", ErrBadFrame, err)
	}
	var name []byte
	if name, src, err = takeBytes(src); err != nil {
		return r, err
	}
	r.Operation = operationName(name)
	if r.Data, src, err = takeBytes(src); err != nil {
		return r, err
	}
	if r.Caps, src, err = capability.DecodeList(src); err != nil {
		return r, fmt.Errorf("%w: caps: %v", ErrBadFrame, err)
	}
	if len(src) < 10 {
		return r, fmt.Errorf("%w: truncated trailer", ErrBadFrame)
	}
	r.TimeoutNanos = int64(binary.BigEndian.Uint64(src))
	r.Hops = src[8]
	r.Flags = src[9]
	if rest := src[10:]; len(rest) != 0 {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return r, nil
}

// Status is the outcome of an invocation, carried in the reply.
type Status uint8

// Invocation statuses.
const (
	// StatusOK means the operation completed; results are valid.
	StatusOK Status = iota
	// StatusNoSuchObject means no node admits to hosting the target.
	StatusNoSuchObject
	// StatusNoSuchOperation means the type defines no such operation.
	StatusNoSuchOperation
	// StatusRights means the capability lacks the rights the
	// operation requires.
	StatusRights
	// StatusTimeout means the invoker's time limit expired.
	StatusTimeout
	// StatusCrashed means the target crashed while executing.
	StatusCrashed
	// StatusError means the operation itself reported failure; the
	// reply data carries the message.
	StatusError
	// StatusMoved means the target has moved; the reply data carries
	// the new node number (transparent to users — kernels chase it).
	StatusMoved
	// StatusFrozen means a mutating operation was invoked on a frozen
	// object.
	StatusFrozen
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNoSuchObject:
		return "no-such-object"
	case StatusNoSuchOperation:
		return "no-such-operation"
	case StatusRights:
		return "insufficient-rights"
	case StatusTimeout:
		return "timeout"
	case StatusCrashed:
		return "crashed"
	case StatusError:
		return "error"
	case StatusMoved:
		return "moved"
	case StatusFrozen:
		return "frozen"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// InvokeRep is the payload of KindInvokeRep: "the object executes the
// request and responds with status and return parameters".
type InvokeRep struct {
	// Status is the invocation outcome.
	Status Status
	// Data carries the data results (or an error message).
	Data []byte
	// Caps carries the capability results.
	Caps capability.List
}

// Size is the length of the reply's wire form.
func (r InvokeRep) Size() int { return 1 + 4 + len(r.Data) + listSize(r.Caps) }

// Encode appends the wire form of the reply to dst.
func (r InvokeRep) Encode(dst []byte) []byte {
	dst = append(dst, byte(r.Status))
	dst = appendBytes(dst, r.Data)
	return capability.EncodeList(dst, r.Caps)
}

// ReplyInPlace returns a pooled buffer that holds the wire form of an
// InvokeRep with StatusOK, n zero bytes of data and no capabilities —
// the bytes Encode would write for that reply — and those n data bytes,
// a slice of the buffer, for the caller to fill: a reply written once,
// into the buffer it is sent from. The buffer is freed as an Encode
// buffer is, once Send has returned.
func ReplyInPlace(n int) (*Buffer, []byte) {
	b := borrow(InvokeRep{}.Size() + n)
	b.B = append(b.B, byte(StatusOK))
	b.B = binary.BigEndian.AppendUint32(b.B, uint32(n))
	at := len(b.B)
	b.B = b.B[:at+n]
	clear(b.B[at:])
	b.B = capability.EncodeList(b.B, nil)
	return b, b.B[at : at+n : at+n]
}

// DecodeInvokeRep parses an InvokeRep payload. Data aliases src.
func DecodeInvokeRep(src []byte) (InvokeRep, error) {
	var r InvokeRep
	if len(src) < 1 {
		return r, fmt.Errorf("%w: empty reply", ErrBadFrame)
	}
	r.Status = Status(src[0])
	var err error
	if r.Data, src, err = takeBytes(src[1:]); err != nil {
		return r, err
	}
	if r.Caps, src, err = capability.DecodeList(src); err != nil {
		return r, fmt.Errorf("%w: caps: %v", ErrBadFrame, err)
	}
	if len(src) != 0 {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(src))
	}
	return r, nil
}

// LocateReq is the payload of KindLocateReq.
type LocateReq struct {
	// Object is the name being located.
	Object edenid.ID
	// Recover asks nodes holding only a checkpoint backup (a remote
	// checksite) to claim the object, so it can be reincarnated after
	// its home node has failed. Ordinary lookups leave this false and
	// backups stay silent.
	Recover bool
}

// Size is the length of the query's wire form.
func (r LocateReq) Size() int { return edenid.Size + 1 }

// Encode appends the wire form of the query to dst.
func (r LocateReq) Encode(dst []byte) []byte {
	dst = r.Object.Encode(dst)
	if r.Recover {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeLocateReq parses a LocateReq payload.
func DecodeLocateReq(src []byte) (LocateReq, error) {
	id, rest, err := edenid.Decode(src)
	if err != nil {
		return LocateReq{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if len(rest) != 1 {
		return LocateReq{}, fmt.Errorf("%w: bad trailer", ErrBadFrame)
	}
	return LocateReq{Object: id, Recover: rest[0] != 0}, nil
}

// LocateRep is the payload of KindLocateRep. Only nodes that host (or
// hold a frozen replica of) the object answer.
type LocateRep struct {
	// Object echoes the queried name.
	Object edenid.ID
	// Node is the answering host.
	Node uint32
	// Replica is true when Node holds a frozen replica rather than
	// the (unique) active/passive home.
	Replica bool
}

// Size is the length of the answer's wire form.
func (r LocateRep) Size() int { return edenid.Size + 4 + 1 }

// Encode appends the wire form of the answer to dst.
func (r LocateRep) Encode(dst []byte) []byte {
	dst = r.Object.Encode(dst)
	dst = binary.BigEndian.AppendUint32(dst, r.Node)
	if r.Replica {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeLocateRep parses a LocateRep payload.
func DecodeLocateRep(src []byte) (LocateRep, error) {
	id, rest, err := edenid.Decode(src)
	if err != nil {
		return LocateRep{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if len(rest) != 5 {
		return LocateRep{}, fmt.Errorf("%w: bad trailer length %d", ErrBadFrame, len(rest))
	}
	return LocateRep{
		Object:  id,
		Node:    binary.BigEndian.Uint32(rest),
		Replica: rest[4] != 0,
	}, nil
}

// ShipPurpose says why a representation is being shipped.
type ShipPurpose uint8

// Ship purposes.
const (
	// ShipCheckpoint writes the representation to a remote checksite.
	ShipCheckpoint ShipPurpose = iota + 1
	// ShipMove transfers hosting responsibility to the destination.
	ShipMove
	// ShipReplica distributes a frozen object's replica for caching.
	ShipReplica
	// ShipMoveProbe asks the destination whether it hosts the object at
	// Epoch or above: move recovery resolving a crashed transaction. It
	// carries no representation; the ack's status is the answer
	// (StatusOK = installed, StatusNoSuchObject = not installed).
	ShipMoveProbe
	// ShipDestroy tells a remote checksite that the object was destroyed
	// at its home: the site deletes the backup record it holds for the
	// sender. It carries no representation.
	ShipDestroy
)

// String names the purpose.
func (p ShipPurpose) String() string {
	switch p {
	case ShipCheckpoint:
		return "checkpoint"
	case ShipMove:
		return "move"
	case ShipReplica:
		return "replica"
	case ShipMoveProbe:
		return "move-probe"
	case ShipDestroy:
		return "destroy"
	default:
		return fmt.Sprintf("purpose(%d)", uint8(p))
	}
}

// Ship is the payload of KindShip: an object's identity, type, flags
// and encoded representation in transit between kernels.
type Ship struct {
	// Purpose says what the receiver should do with the payload.
	Purpose ShipPurpose
	// Object is the object being shipped.
	Object edenid.ID
	// TypeName identifies the object's type manager so the receiving
	// kernel can re-bind code to state.
	TypeName string
	// Frozen marks an immutable representation.
	Frozen bool
	// Version is the checkpoint sequence number.
	Version uint64
	// Epoch is the object's residency epoch. A ShipMove carries the
	// destination's new epoch (one above the source's); a ShipMoveProbe
	// carries the epoch being probed for. Zero means "sent by a peer
	// predating epochs" and is treated as epoch 1.
	Epoch uint64
	// Rep is the encoded representation (segment.Representation wire
	// form). For a partial checkpoint it contains only the changed
	// segments.
	Rep []byte
	// Partial marks an incremental checkpoint: Rep holds only the
	// segments changed since Base, and Removed lists segments deleted
	// since then. The receiver merges onto its record at version Base;
	// if it does not hold exactly Base, it rejects the shipment and
	// the sender falls back to a full checkpoint.
	Partial bool
	// Base is the version the partial applies on top of.
	Base uint64
	// Removed lists segment names deleted since Base.
	Removed []string
	// Policy is the object's checksite policy: a checkpoint ship carries
	// it for the checksite's record, a move for the new home.
	store.Policy
	// Claim marks a checkpoint ship that claims the object for its
	// sender, at Epoch: a checksite promoting itself, or a restarted
	// home, asking every other checksite to grant before it serves.
	Claim bool
}

// Size is the length of the shipment's wire form.
func (s Ship) Size() int {
	n := 1 + edenid.Size + 4 + len(s.TypeName) + 1 + 8 + 8 + 8 + 4 + 4 + len(s.Rep)
	for _, name := range s.Removed {
		n += 4 + len(name)
	}
	return n + s.Policy.Len()
}

// Encode appends the wire form of the shipment to dst.
func (s Ship) Encode(dst []byte) []byte {
	dst = append(dst, byte(s.Purpose))
	dst = s.Object.Encode(dst)
	dst = appendString(dst, s.TypeName)
	var flags byte
	if s.Frozen {
		flags |= 1
	}
	if s.Partial {
		flags |= 2
	}
	if s.Sited() {
		flags |= 4
	}
	if s.Claim {
		flags |= 8
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, s.Version)
	dst = binary.BigEndian.AppendUint64(dst, s.Base)
	dst = binary.BigEndian.AppendUint64(dst, s.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Removed)))
	for _, name := range s.Removed {
		dst = appendString(dst, name)
	}
	dst = s.Policy.Append(dst)
	return appendBytes(dst, s.Rep)
}

// DecodeShip parses a Ship payload. Rep aliases src.
func DecodeShip(src []byte) (Ship, error) {
	var s Ship
	if len(src) < 1 {
		return s, fmt.Errorf("%w: empty shipment", ErrBadFrame)
	}
	s.Purpose = ShipPurpose(src[0])
	var err error
	var id edenid.ID
	id, src, err = edenid.Decode(src[1:])
	if err != nil {
		return s, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	s.Object = id
	if s.TypeName, src, err = takeString(src); err != nil {
		return s, err
	}
	if len(src) < 29 {
		return s, fmt.Errorf("%w: truncated flags", ErrBadFrame)
	}
	s.Frozen = src[0]&1 != 0
	s.Partial = src[0]&2 != 0
	sited := src[0]&4 != 0
	s.Claim = src[0]&8 != 0
	s.Version = binary.BigEndian.Uint64(src[1:9])
	s.Base = binary.BigEndian.Uint64(src[9:17])
	s.Epoch = binary.BigEndian.Uint64(src[17:25])
	nRemoved := int(binary.BigEndian.Uint32(src[25:29]))
	src = src[29:]
	if nRemoved < 0 || nRemoved > len(src) {
		return s, fmt.Errorf("%w: implausible removed count %d", ErrBadFrame, nRemoved)
	}
	for i := 0; i < nRemoved; i++ {
		var name string
		if name, src, err = takeString(src); err != nil {
			return s, err
		}
		s.Removed = append(s.Removed, name)
	}
	if sited {
		if s.Policy, src, err = store.DecodePolicy(src); err != nil {
			return s, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
	}
	if s.Rep, src, err = takeBytes(src); err != nil {
		return s, err
	}
	if len(src) != 0 {
		return s, fmt.Errorf("%w: trailing bytes", ErrBadFrame)
	}
	return s, nil
}

// Invalidate is the payload of KindInvalidate: the home node telling
// checkpoint-holding peers that the object's servable state changed.
// After a checkpoint it raises the replica serving floor to Version;
// after a move (Move true) it retires every shadow outright — the
// sites list then names the new home's checksites, so caches can be
// refreshed rather than merely dropped.
type Invalidate struct {
	// Object is the object whose checkpoint state changed.
	Object edenid.ID
	// Home is the object's (new) home node.
	Home uint32
	// Version is the just-acknowledged checkpoint version; shadows
	// older than it must not serve once this frame is processed.
	Version uint64
	// Move marks a home change rather than a checkpoint: receivers
	// stop serving the object entirely until a fresh checkpoint from
	// the new home arrives.
	Move bool
	// Sites lists the nodes currently holding the checkpoint (the
	// policy's checksites), so locator caches can steer reads.
	Sites []uint32
}

// Size is the length of the invalidation's wire form.
func (iv Invalidate) Size() int { return edenid.Size + 4 + 8 + 1 + 4 + 4*len(iv.Sites) }

// Encode appends the wire form of the invalidation to dst.
func (iv Invalidate) Encode(dst []byte) []byte {
	dst = iv.Object.Encode(dst)
	dst = binary.BigEndian.AppendUint32(dst, iv.Home)
	dst = binary.BigEndian.AppendUint64(dst, iv.Version)
	if iv.Move {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(iv.Sites)))
	for _, s := range iv.Sites {
		dst = binary.BigEndian.AppendUint32(dst, s)
	}
	return dst
}

// DecodeInvalidate parses an Invalidate payload.
func DecodeInvalidate(src []byte) (Invalidate, error) {
	var iv Invalidate
	id, src, err := edenid.Decode(src)
	if err != nil {
		return iv, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	iv.Object = id
	if len(src) < 17 {
		return iv, fmt.Errorf("%w: truncated invalidate", ErrBadFrame)
	}
	iv.Home = binary.BigEndian.Uint32(src[0:4])
	iv.Version = binary.BigEndian.Uint64(src[4:12])
	iv.Move = src[12] != 0
	nSites := int(binary.BigEndian.Uint32(src[13:17]))
	src = src[17:]
	if nSites < 0 || len(src) != nSites*4 {
		return iv, fmt.Errorf("%w: bad site list (%d sites, %d bytes)", ErrBadFrame, nSites, len(src))
	}
	for i := 0; i < nSites; i++ {
		iv.Sites = append(iv.Sites, binary.BigEndian.Uint32(src[i*4:]))
	}
	return iv, nil
}
