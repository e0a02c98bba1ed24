package msg

import (
	"bytes"
	"reflect"
	"testing"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/rights"
	"eden/internal/store"
)

// The fuzz targets below all check the same properties: any input the
// decoder accepts must survive a re-encode/re-decode round trip
// unchanged — byte for byte where the encoding is canonical (envelope,
// request, reply) — its Size must be the length Encode produces, and
// every []byte the decoder returns must lie inside the input it was
// given: decoders alias, so a field outside the input would be a hidden
// copy, and one reaching past the input's length an overrun. Decoders
// are also implicitly checked for panics on arbitrary input — the
// frames come straight off the network, so "corrupt input returns an
// error" is a security property, not a nicety.

// slack is spare capacity behind every fuzz input, so that a decoder
// slicing past the input's length lands in memory the test owns, where
// inside reports it, rather than faulting.
const slack = 64

// withSlack returns data copied to the front of a larger array.
func withSlack(data []byte) []byte {
	return append(make([]byte, 0, len(data)+slack), data...)
}

// inside reports whether field is a sub-slice of buf: the same memory,
// within buf's length, not an equal copy of it.
func inside(buf, field []byte) bool {
	if len(field) == 0 {
		return true
	}
	for i := range buf {
		if &buf[i] == &field[0] {
			return i+len(field) <= len(buf)
		}
	}
	return false
}

func fuzzSeedCap() capability.Capability {
	return capability.New(edenid.NewGenerator(3).Next(), rights.All)
}

func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeEnvelope(nil, Envelope{Kind: KindHello, From: 1, To: 2}))
	f.Add(EncodeEnvelope(nil, Envelope{
		Kind: KindInvokeReq, From: 7, To: Broadcast, Corr: 99, Trace: 1 << 41,
		Payload: []byte("payload"),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = withSlack(data)
		e, rest, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		if !inside(data, e.Payload) || !inside(data, rest) {
			t.Fatal("payload or remainder is not a sub-slice of the input")
		}
		wire := EncodeEnvelope(nil, e)
		if len(wire) != e.Size() || !bytes.Equal(append(wire, rest...), data) {
			t.Fatalf("re-encode is %d bytes (Size %d) and differs from the %d-byte input", len(wire), e.Size(), len(data))
		}
		again, rest2, err := DecodeEnvelope(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest2))
		}
		if e.Kind != again.Kind || e.From != again.From || e.To != again.To ||
			e.Corr != again.Corr || e.Trace != again.Trace || !bytes.Equal(e.Payload, again.Payload) {
			t.Fatalf("round trip changed envelope: %+v != %+v", e, again)
		}
	})
}

func FuzzDecodeInvokeReq(f *testing.F) {
	f.Add([]byte{})
	f.Add(InvokeReq{
		Target: fuzzSeedCap(), Operation: "ping", Data: []byte("d"),
		Caps: capability.List{fuzzSeedCap()}, TimeoutNanos: 5e9, Hops: 2,
		Flags: FlagAllowReplica,
	}.Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = withSlack(data)
		r, err := DecodeInvokeReq(data)
		if err != nil {
			return
		}
		if !inside(data, r.Data) {
			t.Fatal("Data is not a sub-slice of the input")
		}
		wire := r.Encode(nil)
		if len(wire) != r.Size() || !bytes.Equal(wire, data) {
			t.Fatalf("re-encode is %d bytes (Size %d) and differs from the %d-byte input", len(wire), r.Size(), len(data))
		}
		again, err := DecodeInvokeReq(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(normInvokeReq(r), normInvokeReq(again)) {
			t.Fatalf("round trip changed request: %+v != %+v", r, again)
		}
	})
}

func FuzzDecodeInvokeRep(f *testing.F) {
	f.Add([]byte{})
	f.Add(InvokeRep{Status: StatusOK, Data: []byte("out"), Caps: capability.List{fuzzSeedCap()}}.Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = withSlack(data)
		r, err := DecodeInvokeRep(data)
		if err != nil {
			return
		}
		if !inside(data, r.Data) {
			t.Fatal("Data is not a sub-slice of the input")
		}
		wire := r.Encode(nil)
		if len(wire) != r.Size() || !bytes.Equal(wire, data) {
			t.Fatalf("re-encode is %d bytes (Size %d) and differs from the %d-byte input", len(wire), r.Size(), len(data))
		}
		again, err := DecodeInvokeRep(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(normInvokeRep(r), normInvokeRep(again)) {
			t.Fatalf("round trip changed reply: %+v != %+v", r, again)
		}
	})
}

func FuzzDecodeLocateReq(f *testing.F) {
	f.Add([]byte{})
	f.Add(LocateReq{Object: edenid.NewGenerator(9).Next(), Recover: true}.Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeLocateReq(data)
		if err != nil {
			return
		}
		wire := r.Encode(nil)
		if len(wire) != r.Size() {
			t.Fatalf("Size %d, encoded %d bytes", r.Size(), len(wire))
		}
		again, err := DecodeLocateReq(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r != again {
			t.Fatalf("round trip changed query: %+v != %+v", r, again)
		}
	})
}

func FuzzDecodeLocateRep(f *testing.F) {
	f.Add([]byte{})
	f.Add(LocateRep{Object: edenid.NewGenerator(9).Next(), Node: 4, Replica: true}.Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeLocateRep(data)
		if err != nil {
			return
		}
		wire := r.Encode(nil)
		if len(wire) != r.Size() {
			t.Fatalf("Size %d, encoded %d bytes", r.Size(), len(wire))
		}
		again, err := DecodeLocateRep(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r != again {
			t.Fatalf("round trip changed answer: %+v != %+v", r, again)
		}
	})
}

func FuzzDecodeInvalidate(f *testing.F) {
	f.Add([]byte{})
	f.Add(Invalidate{Object: edenid.NewGenerator(9).Next(), Home: 1, Version: 7}.Encode(nil))
	f.Add(Invalidate{
		Object: edenid.NewGenerator(9).Next(), Home: 3, Version: 1 << 40,
		Move: true, Sites: []uint32{2, 5},
	}.Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		iv, err := DecodeInvalidate(data)
		if err != nil {
			return
		}
		wire := iv.Encode(nil)
		if len(wire) != iv.Size() {
			t.Fatalf("Size %d, encoded %d bytes", iv.Size(), len(wire))
		}
		again, err := DecodeInvalidate(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(iv.Sites) == 0 {
			iv.Sites = nil
		}
		if len(again.Sites) == 0 {
			again.Sites = nil
		}
		if !reflect.DeepEqual(iv, again) {
			t.Fatalf("round trip changed invalidation: %+v != %+v", iv, again)
		}
	})
}

func FuzzDecodeShip(f *testing.F) {
	f.Add([]byte{})
	f.Add(Ship{
		Purpose: ShipCheckpoint, Object: edenid.NewGenerator(9).Next(),
		TypeName: "counter", Version: 7, Epoch: 2, Rep: []byte("rep"),
	}.Encode(nil))
	f.Add(Ship{
		Purpose: ShipMove, Object: edenid.NewGenerator(9).Next(),
		TypeName: "counter", Frozen: true, Version: 1 << 40, Epoch: 3, Rep: []byte{1},
	}.Encode(nil))
	f.Add(Ship{
		Purpose: ShipMoveProbe, Object: edenid.NewGenerator(9).Next(), Epoch: 5,
	}.Encode(nil))
	f.Add(Ship{
		Purpose: ShipCheckpoint, Object: edenid.NewGenerator(9).Next(),
		TypeName: "counter", Version: 4, Epoch: 2, Claim: true,
		Policy: store.Policy{Level: 1, Sites: []uint32{3, 4}}, Rep: []byte("rep"),
	}.Encode(nil))
	f.Add(Ship{
		Purpose: ShipMove, Object: edenid.NewGenerator(9).Next(),
		TypeName: "counter", Version: 2, Epoch: 3,
		Policy: store.Policy{Level: 2, Sites: []uint32{3}, Ex: []uint32{2, 5}}, Rep: []byte{1},
	}.Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = withSlack(data)
		s, err := DecodeShip(data)
		if err != nil {
			return
		}
		if !inside(data, s.Rep) {
			t.Fatal("Rep is not a sub-slice of the input")
		}
		// Not byte for byte: the flags byte has bits Decode ignores.
		wire := s.Encode(nil)
		if len(wire) != s.Size() || len(wire) != len(data) {
			t.Fatalf("Size %d, encoded %d bytes, input %d", s.Size(), len(wire), len(data))
		}
		again, err := DecodeShip(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(normShip(s), normShip(again)) {
			t.Fatalf("round trip changed shipment: %+v != %+v", s, again)
		}
	})
}

// normShip canonicalizes nil-vs-empty slices across a Ship round trip.
func normShip(s Ship) Ship {
	if len(s.Rep) == 0 {
		s.Rep = nil
	}
	return s
}

// normInvokeReq/normInvokeRep canonicalize the representations that
// legitimately differ across a round trip without being semantically
// different: a nil byte slice re-decodes as empty (and vice versa),
// and an empty capability list may decode as nil.
func normInvokeReq(r InvokeReq) InvokeReq {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	if len(r.Caps) == 0 {
		r.Caps = nil
	}
	return r
}

func normInvokeRep(r InvokeRep) InvokeRep {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	if len(r.Caps) == 0 {
		r.Caps = nil
	}
	return r
}
