package msg

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/rights"
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

func TestShipPartialRoundTrip(t *testing.T) {
	s := Ship{
		Purpose:  ShipCheckpoint,
		Object:   gen.Next(),
		TypeName: "counter",
		Version:  9,
		Partial:  true,
		Base:     8,
		Removed:  []string{"old-a", "old-b"},
		Rep:      []byte("partial segments"),
	}
	got, err := DecodeShip(s.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial || got.Base != 8 || len(got.Removed) != 2 ||
		got.Removed[0] != "old-a" || got.Removed[1] != "old-b" {
		t.Errorf("partial round trip: %+v", got)
	}
	// Frozen and Partial flags are independent.
	s.Frozen = true
	got, err = DecodeShip(s.Encode(nil))
	if err != nil || !got.Frozen || !got.Partial {
		t.Errorf("flag independence: %+v %v", got, err)
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

// TestEncodeSizesOnce: Encode grows a pooled buffer to the payload's
// exact Size — one allocation at most, no doubling, no rounding up to an
// allocator size class — so a buffer made for the largest frame the pool
// is meant to keep, a 64 KiB payload with every header around it, is
// kept.
func TestEncodeSizesOnce(t *testing.T) {
	req := InvokeReq{Target: capability.New(gen.Next(), rights.All), Operation: "echo", Data: make([]byte, 64<<10)}
	b := Encode(req)
	defer b.Free()
	if len(b.B) != req.Size() {
		t.Fatalf("encoded %d bytes, Size %d", len(b.B), req.Size())
	}
	var frame Buffer
	need := 4 + Envelope{Payload: b.B}.Size()
	if frame.Grow(need); cap(frame.B) != need {
		t.Errorf("Grow(%d) made cap %d", need, cap(frame.B))
	}
	if need > maxPooledBuffer {
		t.Errorf("a 64 KiB echo's frame is %d bytes, over the pool's %d: Free would drop it", need, maxPooledBuffer)
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
