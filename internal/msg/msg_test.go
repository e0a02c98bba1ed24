package msg

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/rights"
	"eden/internal/store"
)

var gen = edenid.NewGenerator(1)

func TestEnvelopeRoundTrip(t *testing.T) {
	e := Envelope{
		Kind:    KindInvokeReq,
		From:    3,
		To:      7,
		Corr:    0xDEADBEEF,
		Trace:   0xFACE0FF1CE,
		Payload: []byte("payload"),
	}
	buf := EncodeEnvelope(nil, e)
	got, rest, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d residual bytes", len(rest))
	}
	if got.Kind != e.Kind || got.From != e.From || got.To != e.To ||
		got.Corr != e.Corr || got.Trace != e.Trace || string(got.Payload) != string(e.Payload) {
		t.Errorf("round trip changed envelope: %+v -> %+v", e, got)
	}
}

func TestEnvelopeEmptyPayload(t *testing.T) {
	got, _, err := DecodeEnvelope(EncodeEnvelope(nil, Envelope{Kind: KindHello, From: 1, To: Broadcast}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Errorf("payload = %v", got.Payload)
	}
	if got.To != Broadcast {
		t.Errorf("To = %#x", got.To)
	}
}

func TestEnvelopeStreaming(t *testing.T) {
	// Two envelopes back to back, as a stream transport would carry.
	buf := EncodeEnvelope(nil, Envelope{Kind: KindHello, From: 1, To: 2})
	buf = EncodeEnvelope(buf, Envelope{Kind: KindLocateReq, From: 2, To: Broadcast, Corr: 5})
	first, rest, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	second, rest, err := DecodeEnvelope(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || first.Kind != KindHello || second.Kind != KindLocateReq {
		t.Errorf("streamed decode wrong: %v %v rest=%d", first.Kind, second.Kind, len(rest))
	}
}

func TestEnvelopeRejectsBadVersion(t *testing.T) {
	buf := EncodeEnvelope(nil, Envelope{Kind: KindHello})
	buf[0] = Version + 1
	if _, _, err := DecodeEnvelope(buf); err == nil {
		t.Error("accepted wrong protocol version")
	}
}

func TestEnvelopeRejectsTruncation(t *testing.T) {
	buf := EncodeEnvelope(nil, Envelope{Kind: KindShip, Payload: []byte("0123456789")})
	for _, n := range []int{0, 5, headerSize - 1, len(buf) - 1} {
		if _, _, err := DecodeEnvelope(buf[:n]); err == nil {
			t.Errorf("accepted truncation to %d bytes", n)
		}
	}
}

func TestInvokeReqRoundTrip(t *testing.T) {
	req := InvokeReq{
		Target:       capability.New(gen.Next(), rights.Invoke|rights.Type(2)),
		Operation:    "put",
		Data:         []byte("this is a new line"),
		Caps:         capability.List{capability.New(gen.Next(), rights.All)},
		TimeoutNanos: 5e9,
		Hops:         3,
	}
	got, err := DecodeInvokeReq(req.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Target != req.Target || got.Operation != req.Operation ||
		string(got.Data) != string(req.Data) || got.TimeoutNanos != req.TimeoutNanos ||
		got.Hops != req.Hops || len(got.Caps) != 1 || got.Caps[0] != req.Caps[0] {
		t.Errorf("round trip changed request:\n%+v\n%+v", req, got)
	}
}

func TestInvokeReqMinimal(t *testing.T) {
	req := InvokeReq{Target: capability.New(gen.Next(), rights.Invoke), Operation: "get"}
	got, err := DecodeInvokeReq(req.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 0 || len(got.Caps) != 0 || got.TimeoutNanos != 0 {
		t.Errorf("minimal request grew fields: %+v", got)
	}
}

func TestInvokeReqRejectsDamage(t *testing.T) {
	req := InvokeReq{Target: capability.New(gen.Next(), rights.Invoke), Operation: "op", Data: []byte("d")}
	buf := req.Encode(nil)
	for _, n := range []int{0, 10, len(buf) - 1} {
		if _, err := DecodeInvokeReq(buf[:n]); err == nil {
			t.Errorf("accepted truncation to %d", n)
		}
	}
	if _, err := DecodeInvokeReq(append(buf, 0)); err == nil {
		t.Error("accepted trailing garbage")
	}
}

func TestInvokeRepRoundTrip(t *testing.T) {
	rep := InvokeRep{
		Status: StatusError,
		Data:   []byte("queue full"),
		Caps:   capability.List{capability.New(gen.Next(), rights.Invoke)},
	}
	got, err := DecodeInvokeRep(rep.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != rep.Status || string(got.Data) != string(rep.Data) || len(got.Caps) != 1 {
		t.Errorf("round trip changed reply: %+v", got)
	}
}

func TestInvokeRepEmpty(t *testing.T) {
	if _, err := DecodeInvokeRep(nil); err == nil {
		t.Error("accepted empty reply")
	}
	got, err := DecodeInvokeRep(InvokeRep{Status: StatusOK}.Encode(nil))
	if err != nil || got.Status != StatusOK {
		t.Errorf("minimal reply: %v %+v", err, got)
	}
}

// TestReplyInPlace: the buffer ReplyInPlace lays out is, once its data
// is filled, byte for byte what Encode writes for the same reply, and
// its data starts zeroed even in a buffer a larger message used before.
func TestReplyInPlace(t *testing.T) {
	for _, n := range []int{0, 8, 1 << 10, 4 << 10, 64 << 10, maxPooledBuffer} {
		dirty := GetBuffer()
		dirty.B = append(dirty.B, bytes.Repeat([]byte{0xaa}, cap(dirty.B))...)
		dirty.Free()
		b, data := ReplyInPlace(n)
		if len(data) != n || cap(data) != n {
			t.Fatalf("n=%d: data len %d cap %d", n, len(data), cap(data))
		}
		if !bytes.Equal(data, make([]byte, n)) {
			t.Fatalf("n=%d: data does not start zeroed", n)
		}
		for i := range data {
			data[i] = byte(i)
		}
		want := InvokeRep{Status: StatusOK, Data: data}.Encode(nil)
		if !bytes.Equal(b.B, want) {
			t.Fatalf("n=%d: in-place reply differs from its encoding", n)
		}
		got, err := DecodeInvokeRep(b.B)
		if err != nil || got.Status != StatusOK || !bytes.Equal(got.Data, data) || len(got.Caps) != 0 {
			t.Fatalf("n=%d: decodes as %v, %v", n, got.Status, err)
		}
		b.Free()
	}
}

func TestLocateRoundTrip(t *testing.T) {
	id := gen.Next()
	q, err := DecodeLocateReq(LocateReq{Object: id}.Encode(nil))
	if err != nil || q.Object != id {
		t.Errorf("locate req: %v %+v", err, q)
	}
	a, err := DecodeLocateRep(LocateRep{Object: id, Node: 9, Replica: true}.Encode(nil))
	if err != nil || a.Object != id || a.Node != 9 || !a.Replica {
		t.Errorf("locate rep: %v %+v", err, a)
	}
	if _, err := DecodeLocateReq(nil); err == nil {
		t.Error("accepted empty locate req")
	}
	if _, err := DecodeLocateRep(id.Encode(nil)); err == nil {
		t.Error("accepted short locate rep")
	}
}

func TestShipRoundTrip(t *testing.T) {
	s := Ship{
		Purpose:  ShipMove,
		Object:   gen.Next(),
		TypeName: "mailbox",
		Frozen:   true,
		Version:  42,
		Rep:      []byte("encoded representation bytes"),
	}
	got, err := DecodeShip(s.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Purpose != s.Purpose || got.Object != s.Object || got.TypeName != s.TypeName ||
		got.Frozen != s.Frozen || got.Version != s.Version || string(got.Rep) != string(s.Rep) {
		t.Errorf("round trip changed shipment:\n%+v\n%+v", s, got)
	}
}

// TestShipLayoutWithoutPolicy pins the wire form of shipments that carry
// no checksite policy — every shipment of a local-policy object — which
// holds no policy bytes: a policy costs only the ships of a sited object.
func TestShipLayoutWithoutPolicy(t *testing.T) {
	id := edenid.New(3, 0x0102030405060708, 9)
	for _, c := range []struct {
		ship Ship
		want string
	}{
		{Ship{Purpose: ShipCheckpoint, Object: id, TypeName: "counter", Version: 7, Epoch: 2, Rep: []byte("rep")},
			"010000000301020304050607080000093200000007636f756e74657200" + "0000000000000007" + "0000000000000002" + "00000003726570"},
		{Ship{Purpose: ShipCheckpoint, Object: id, TypeName: "counter", Frozen: true, Version: 7, Epoch: 2, Rep: []byte("rep")},
			"010000000301020304050607080000093200000007636f756e74657201" + "0000000000000007" + "0000000000000002" + "00000003726570"},
		{Ship{Purpose: ShipDestroy, Object: id},
			"05000000030102030405060708000009320000000000" + "0000000000000000" + "0000000000000000" + "00000000"},
	} {
		if got := hex.EncodeToString(c.ship.Encode(nil)); got != c.want {
			t.Errorf("%v ship encodes as\n%s, want\n%s", c.ship.Purpose, got, c.want)
		}
	}
	sited := Ship{Purpose: ShipCheckpoint, Object: id, TypeName: "counter", Version: 7, Epoch: 2,
		Claim: true, Policy: store.Policy{Level: 2, Sites: []uint32{3, 4}, Ex: []uint32{5}}, Rep: []byte("rep")}
	got, err := DecodeShip(sited.Encode(nil))
	if err != nil || !reflect.DeepEqual(got, sited) {
		t.Errorf("a sited claim round-trips as %+v, %v", got, err)
	}
}

func TestShipRejectsDamage(t *testing.T) {
	buf := Ship{Purpose: ShipCheckpoint, Object: gen.Next(), TypeName: "t", Rep: []byte("r")}.Encode(nil)
	for _, n := range []int{0, 1, 10, len(buf) - 1} {
		if _, err := DecodeShip(buf[:n]); err == nil {
			t.Errorf("accepted truncation to %d", n)
		}
	}
	if _, err := DecodeShip(append(buf, 1)); err == nil {
		t.Error("accepted trailing garbage")
	}
}

func TestStatusStrings(t *testing.T) {
	seen := map[string]bool{}
	for s := StatusOK; s <= StatusFrozen; s++ {
		str := s.String()
		if str == "" || seen[str] {
			t.Errorf("status %d stringifies poorly: %q", s, str)
		}
		seen[str] = true
	}
	if Status(200).String() == "" {
		t.Error("unknown status has empty String")
	}
}

func TestKindAndPurposeStrings(t *testing.T) {
	for k := KindInvokeReq; k <= KindHello; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty String", k)
		}
	}
	for p := ShipCheckpoint; p <= ShipReplica; p++ {
		if p.String() == "" {
			t.Errorf("purpose %d has empty String", p)
		}
	}
}

// Property: envelope encode→decode is the identity for arbitrary
// payloads and header fields.
func TestQuickEnvelopeRoundTrip(t *testing.T) {
	f := func(kind uint8, from, to uint32, corr, trace uint64, payload []byte) bool {
		e := Envelope{Kind: Kind(kind), From: from, To: to, Corr: corr, Trace: trace, Payload: payload}
		got, rest, err := DecodeEnvelope(EncodeEnvelope(nil, e))
		if err != nil || len(rest) != 0 {
			return false
		}
		return got.Kind == e.Kind && got.From == e.From && got.To == e.To &&
			got.Corr == e.Corr && got.Trace == e.Trace && string(got.Payload) == string(e.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: InvokeReq round-trips for arbitrary operation names and
// data.
func TestQuickInvokeReqRoundTrip(t *testing.T) {
	f := func(op string, data []byte, timeout int64, hops uint8) bool {
		req := InvokeReq{
			Target:       capability.New(gen.Next(), rights.All),
			Operation:    op,
			Data:         data,
			TimeoutNanos: timeout,
			Hops:         hops,
		}
		if len(op) > 65535 {
			return true // length prefix is 32-bit; op strings are short in practice
		}
		got, err := DecodeInvokeReq(req.Encode(nil))
		return err == nil && got.Operation == op && string(got.Data) == string(data) &&
			got.TimeoutNanos == timeout && got.Hops == hops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkInvokeReqRoundTrip(b *testing.B) {
	req := InvokeReq{
		Target:    capability.New(gen.Next(), rights.All),
		Operation: "put",
		Data:      make([]byte, 1024),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInvokeReq(req.Encode(nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: no decoder panics on arbitrary input — corrupt frames from
// a sick peer must be rejected, never crash a kernel.
func TestQuickDecodersNeverPanic(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decoder panicked on %x: %v", b, r)
				ok = false
			}
		}()
		_, _, _ = DecodeEnvelope(b)
		_, _ = DecodeInvokeReq(b)
		_, _ = DecodeInvokeRep(b)
		_, _ = DecodeLocateReq(b)
		_, _ = DecodeLocateRep(b)
		_, _ = DecodeShip(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLengthPrefixesAreChecked: decoders alias their input, so a length
// prefix is the only thing between a hostile frame and a slice past the
// end of it. Every prefixed field is tried one too long and absurdly
// long, with spare capacity behind the input for an unchecked slice to
// land in: all must fail with ErrBadFrame.
func TestLengthPrefixesAreChecked(t *testing.T) {
	put := func(b []byte, at int, n uint32) []byte {
		b = append(make([]byte, 0, len(b)+1<<10), b...)
		binary.BigEndian.PutUint32(b[at:], n)
		return b
	}
	env := EncodeEnvelope(nil, Envelope{Kind: KindShip, Payload: []byte("payload")})
	req := InvokeReq{Target: capability.New(gen.Next(), rights.Invoke), Operation: "op", Data: []byte("data")}.Encode(nil)
	rep := InvokeRep{Data: []byte("data")}.Encode(nil)
	ship := Ship{Purpose: ShipCheckpoint, Object: gen.Next(), TypeName: "t", Rep: []byte("rep")}.Encode(nil)
	opAt := capability.EncodedSize
	for _, tc := range []struct {
		name   string
		frame  []byte
		at     int // offset of a length prefix
		decode func([]byte) error
	}{
		{"envelope payload", env, headerSize - 4, func(b []byte) error { _, _, err := DecodeEnvelope(b); return err }},
		{"request operation", req, opAt, func(b []byte) error { _, err := DecodeInvokeReq(b); return err }},
		{"request data", req, opAt + 4 + len("op"), func(b []byte) error { _, err := DecodeInvokeReq(b); return err }},
		{"reply data", rep, 1, func(b []byte) error { _, err := DecodeInvokeRep(b); return err }},
		{"ship type name", ship, 1 + edenid.Size, func(b []byte) error { _, err := DecodeShip(b); return err }},
		{"ship rep", ship, len(ship) - 4 - len("rep"), func(b []byte) error { _, err := DecodeShip(b); return err }},
	} {
		have := binary.BigEndian.Uint32(tc.frame[tc.at:])
		for _, n := range []uint32{have + 1, uint32(len(tc.frame)), 1 << 31, 1<<32 - 1} {
			if err := tc.decode(put(tc.frame, tc.at, n)); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: prefix %d in place of %d: err = %v, want ErrBadFrame", tc.name, n, have, err)
			}
		}
	}
}

// TestEncodeSizesOnce: Encode takes a buffer of the smallest class
// that holds the payload's Size and encodes into it without growing it,
// and the largest class, maxPooledBuffer, holds the largest frame the
// pools are meant to keep — a 64 KiB payload with every header around
// it — so Free keeps that frame's buffer.
func TestEncodeSizesOnce(t *testing.T) {
	req := InvokeReq{Target: capability.New(gen.Next(), rights.All), Operation: "echo", Data: make([]byte, 64<<10)}
	b := Encode(req)
	defer b.Free()
	if len(b.B) != req.Size() {
		t.Fatalf("encoded %d bytes, Size %d", len(b.B), req.Size())
	}
	if cap(b.B) != maxPooledBuffer {
		t.Errorf("a %d-byte encoding is in a %d-byte buffer, want the %d-byte class", len(b.B), cap(b.B), maxPooledBuffer)
	}
	if need := 4 + (Envelope{Payload: b.B}).Size(); need > maxPooledBuffer {
		t.Errorf("a 64 KiB echo's frame is %d bytes, over the pool's %d: Free would drop it", need, maxPooledBuffer)
	}
}

// TestBufferClasses: a buffer is borrowed from the smallest class that
// holds what is encoded into it and goes back to the class its
// capacity covers, so a small message never gets an array a large frame
// grew; a buffer past maxPooledBuffer is never pooled. The pools are
// sync.Pools, which may drop anything, so every check is of what a
// borrow must never return.
func TestBufferClasses(t *testing.T) {
	// classOf is the index of the class a capacity belongs to, or -1.
	classOf := func(c int) int {
		for i := len(bufferClasses) - 1; i >= 0; i-- {
			if c >= bufferClasses[i].size {
				return i
			}
		}
		return -1
	}
	echo := func(n int) *Buffer {
		return Encode(InvokeReq{Target: capability.New(gen.Next(), rights.All), Operation: "echo", Data: make([]byte, n)})
	}
	for _, n := range []int{0, 64, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		b := echo(n)
		want := 0
		for want < len(bufferClasses)-1 && len(b.B) > bufferClasses[want].size {
			want++
		}
		if got := classOf(cap(b.B)); got != want {
			t.Errorf("a %d-byte encoding got a %d-byte buffer, class %d; want class %d", len(b.B), cap(b.B), got, want)
		}
		b.Free()
	}

	echo(64 << 10).Free()
	small := echo(64)
	if cap(small.B) >= bufferClasses[1].size {
		t.Errorf("after a 64 KiB encoding was freed, a 64 B one got a %d-byte buffer, over the small class", cap(small.B))
	}
	small.Free()

	huge := GetBuffer()
	huge.B = append(huge.B, make([]byte, maxPooledBuffer+1)...)
	huge.Free()
	for i := range bufferClasses {
		for range 4 {
			b := borrow(bufferClasses[i].size)
			if b == huge {
				t.Fatalf("a buffer grown to %d bytes, past maxPooledBuffer, came back from class %d", cap(huge.B), i)
			}
			defer b.Free()
		}
	}
	if b := borrow(maxPooledBuffer + 1); cap(b.B) != maxPooledBuffer+1 {
		t.Errorf("a borrow past every class got %d bytes, want exactly %d", cap(b.B), maxPooledBuffer+1)
	}
}

// TestFrameBuffer: a frame of up to maxPooledBuffer bytes is received
// into a buffer of the smallest class that holds it, n bytes long; a
// larger one is not pooled.
func TestFrameBuffer(t *testing.T) {
	for _, n := range []int{1, 100, bufferClasses[0].size, bufferClasses[0].size + 1, maxPooledBuffer} {
		b := FrameBuffer(n)
		want := 0
		if n > bufferClasses[0].size {
			want = 1
		}
		inClass := cap(b.B) >= bufferClasses[want].size && (want == len(bufferClasses)-1 || cap(b.B) < bufferClasses[want+1].size)
		if len(b.B) != n || !inClass {
			t.Errorf("FrameBuffer(%d): len %d cap %d, want len %d in the %d-byte class", n, len(b.B), cap(b.B), n, bufferClasses[want].size)
		}
		b.Free()
	}
	if b := FrameBuffer(maxPooledBuffer + 1); b != nil {
		t.Errorf("FrameBuffer(%d) lent a %d-byte buffer; a frame past every class is not pooled", maxPooledBuffer+1, cap(b.B))
	}
}

// TestOperationNamesAreInterned: a registered operation name decodes to
// the registered string at no allocation; any other still decodes.
func TestOperationNamesAreInterned(t *testing.T) {
	InternOperation("interned-op")
	target := capability.New(gen.Next(), rights.All)
	known := InvokeReq{Target: target, Operation: "interned-op", Data: []byte("d")}.Encode(nil)
	if got := testing.AllocsPerRun(200, func() {
		if r, err := DecodeInvokeReq(known); err != nil || r.Operation != "interned-op" {
			t.Fatalf("decode: %+v %v", r, err)
		}
	}); got != 0 {
		t.Errorf("%.1f allocations decoding a request with a registered operation", got)
	}
	r, err := DecodeInvokeReq(InvokeReq{Target: target, Operation: "never-registered"}.Encode(nil))
	if err != nil || r.Operation != "never-registered" {
		t.Errorf("unregistered name: %+v %v", r, err)
	}
}
