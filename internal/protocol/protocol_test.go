package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"ddpolice/internal/rng"
)

func roundTrip(t *testing.T, body Body, ttl, hops byte) Message {
	t.Helper()
	guid := NewGUID(rng.New(1))
	wire := Encode(nil, guid, ttl, hops, body)
	msg, n, err := Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d bytes", n, len(wire))
	}
	if msg.Header.GUID != guid || msg.Header.TTL != ttl || msg.Header.Hops != hops {
		t.Fatalf("header mismatch: %+v", msg.Header)
	}
	if msg.Header.Type != body.Type() {
		t.Fatalf("type = 0x%02x, want 0x%02x", msg.Header.Type, body.Type())
	}
	return msg
}

func TestHeaderLayout(t *testing.T) {
	h := Header{Type: TypeQuery, TTL: 7, Hops: 2, PayloadLen: 0x01020304}
	for i := range h.GUID {
		h.GUID[i] = byte(i)
	}
	wire := h.AppendTo(nil)
	if len(wire) != HeaderSize {
		t.Fatalf("header size = %d, want 23", len(wire))
	}
	if !bytes.Equal(wire[0:16], h.GUID[:]) {
		t.Error("GUID bytes misplaced")
	}
	if wire[16] != TypeQuery || wire[17] != 7 || wire[18] != 2 {
		t.Error("type/ttl/hops misplaced")
	}
	if binary.LittleEndian.Uint32(wire[19:23]) != 0x01020304 {
		t.Error("payload length misplaced")
	}
}

// TestFrameClass: FrameType reads back the type a header was written
// with, and only the flood's two types are query-class.
func TestFrameClass(t *testing.T) {
	for _, tc := range []struct {
		typ   byte
		query bool
	}{
		{TypePing, false}, {TypePong, false}, {TypeBye, false},
		{TypeQuery, true}, {TypeQueryHit, true},
		{TypeNeighborTraffic, false}, {TypeNeighborList, false},
	} {
		h := Header{Type: tc.typ, TTL: 7, Hops: 2}
		if got := FrameType(h.AppendTo(nil)); got != tc.typ {
			t.Errorf("FrameType = %#x, want %#x", got, tc.typ)
		}
		if IsQuery(tc.typ) != tc.query {
			t.Errorf("IsQuery(%#x) = %v, want %v", tc.typ, !tc.query, tc.query)
		}
	}
}

// TestNeighborTrafficTable1Layout verifies the exact byte layout of the
// paper's Table 1: five 4-byte fields at offsets 0, 4, 8, 12, 16.
func TestNeighborTrafficTable1Layout(t *testing.T) {
	nt := NeighborTraffic{
		SourceIP:  [4]byte{10, 0, 0, 1},
		SuspectIP: [4]byte{10, 0, 0, 2},
		Timestamp: 0xAABBCCDD,
		Outgoing:  5000,
		Incoming:  120,
	}
	body := nt.AppendTo(nil)
	if len(body) != NeighborTrafficBodySize {
		t.Fatalf("body size = %d, want %d", len(body), NeighborTrafficBodySize)
	}
	if !bytes.Equal(body[OffsetSourceIP:OffsetSourceIP+4], nt.SourceIP[:]) {
		t.Error("Source IP not at offset 0")
	}
	if !bytes.Equal(body[OffsetSuspectIP:OffsetSuspectIP+4], nt.SuspectIP[:]) {
		t.Error("Suspect IP not at offset 4")
	}
	if binary.LittleEndian.Uint32(body[OffsetTimestamp:]) != 0xAABBCCDD {
		t.Error("timestamp not at offset 8")
	}
	if binary.LittleEndian.Uint32(body[OffsetOutgoing:]) != 5000 {
		t.Error("outgoing count not at offset 12")
	}
	if binary.LittleEndian.Uint32(body[OffsetIncoming:]) != 120 {
		t.Error("incoming count not at offset 16")
	}
	// The paper assigns payload type 0x83.
	if nt.Type() != 0x83 {
		t.Errorf("payload type = 0x%02x, want 0x83", nt.Type())
	}
	// Full message: 23-byte unified header + 20-byte body.
	wire := Encode(nil, GUID{}, 1, 0, nt)
	if len(wire) != 43 {
		t.Errorf("wire size = %d, want 43", len(wire))
	}
}

func TestNeighborTrafficRoundTrip(t *testing.T) {
	if err := quick.Check(func(src, sus [4]byte, ts, out, in uint32) bool {
		nt := NeighborTraffic{SourceIP: src, SuspectIP: sus, Timestamp: ts, Outgoing: out, Incoming: in}
		msg, n, err := Decode(Encode(nil, GUID{1}, 1, 0, nt))
		if err != nil || n != 43 {
			return false
		}
		return msg.Body.(NeighborTraffic) == nt
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPingRoundTrip(t *testing.T) {
	msg := roundTrip(t, Ping{}, DefaultTTL, 0)
	if _, ok := msg.Body.(Ping); !ok {
		t.Fatalf("body type %T", msg.Body)
	}
	if msg.Header.PayloadLen != 0 {
		t.Fatal("ping payload must be empty")
	}
}

func TestPongRoundTrip(t *testing.T) {
	p := Pong{Addr: AddrFromNodeID(1234, 6346), FileCount: 42, KBShared: 1 << 20}
	msg := roundTrip(t, p, 5, 2)
	if got := msg.Body.(Pong); got != p {
		t.Fatalf("pong = %+v, want %+v", got, p)
	}
}

func TestByeRoundTrip(t *testing.T) {
	b := Bye{Code: ByeCodeDDoSSuspect, Reason: "general indicator 6.3 > CT 5"}
	msg := roundTrip(t, b, 1, 0)
	if got := msg.Body.(Bye); got != b {
		t.Fatalf("bye = %+v, want %+v", got, b)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := Query{MinSpeed: 64, Keywords: "free mp3 music"}
	msg := roundTrip(t, q, 7, 0)
	if got := msg.Body.(Query); got != q {
		t.Fatalf("query = %+v, want %+v", got, q)
	}
}

func TestQueryEmptyKeywords(t *testing.T) {
	msg := roundTrip(t, Query{}, 7, 0)
	if got := msg.Body.(Query); got.Keywords != "" {
		t.Fatalf("keywords = %q", got.Keywords)
	}
}

// TestQueryTrailerRefused: a Query is the legacy form only — minimum
// speed, keywords, NUL — and ParseQuery and Decode alike refuse any byte
// after the NUL, the retired trace-ID trailer (8 ID bytes and the tag
// 'T') included.
func TestQueryTrailerRefused(t *testing.T) {
	q := Query{MinSpeed: 64, Keywords: "free mp3 music"}
	wantWire := append([]byte{64, 0}, append([]byte("free mp3 music"), 0)...)
	if got := q.AppendTo(nil); !bytes.Equal(got, wantWire) {
		t.Fatalf("query wire = %v, want %v", got, wantWire)
	}
	for _, q := range []Query{q, {}} {
		for _, id := range []uint64{0xDEADBEEFCAFE0123, 1, 0x00DEADBEEFCAFE01} {
			frame := withTrailer(Encode(nil, GUID{1}, 7, 0, q), id)
			if _, _, err := ParseQuery(frame[HeaderSize:]); err == nil {
				t.Errorf("ParseQuery accepted %+v with the trailer of ID %#x", q, id)
			}
			if _, _, err := Decode(frame); err == nil {
				t.Errorf("Decode accepted %+v with the trailer of ID %#x", q, id)
			}
		}
	}
}

// withTrailer appends the retired trace-ID trailer to a Query frame: the
// ID's 8 little-endian bytes and the tag 'T', the payload length grown
// to match.
func withTrailer(frame []byte, id uint64) []byte {
	frame = binary.LittleEndian.AppendUint64(frame, id)
	frame = append(frame, 'T')
	binary.LittleEndian.PutUint32(frame[offsetPayloadLen:], uint32(len(frame)-HeaderSize))
	return frame
}

func TestQueryHitRoundTrip(t *testing.T) {
	var qguid GUID
	for i := range qguid {
		qguid[i] = byte(0xF0 + i)
	}
	qh := QueryHit{Addr: AddrFromNodeID(77, 6346), HitCount: 3, QueryGUID: qguid}
	msg := roundTrip(t, qh, 7, 4)
	if got := msg.Body.(QueryHit); got != qh {
		t.Fatalf("queryhit = %+v, want %+v", got, qh)
	}
}

func TestNeighborListRoundTrip(t *testing.T) {
	nl := NeighborList{Neighbors: []PeerAddr{
		AddrFromNodeID(1, 6346), AddrFromNodeID(2, 6346), AddrFromNodeID(500000, 1)}}
	msg := roundTrip(t, nl, 1, 0)
	got := msg.Body.(NeighborList)
	if len(got.Neighbors) != 3 {
		t.Fatalf("neighbors = %v", got.Neighbors)
	}
	for i := range nl.Neighbors {
		if got.Neighbors[i] != nl.Neighbors[i] {
			t.Fatalf("neighbor %d = %v, want %v", i, got.Neighbors[i], nl.Neighbors[i])
		}
	}
}

func TestNeighborListEmpty(t *testing.T) {
	msg := roundTrip(t, NeighborList{}, 1, 0)
	if got := msg.Body.(NeighborList); len(got.Neighbors) != 0 {
		t.Fatalf("neighbors = %v", got.Neighbors)
	}
}

func TestAddrNodeIDRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw uint32) bool {
		id := int32(raw % (1 << 24))
		return AddrFromNodeID(id, 6346).NodeID() == id
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	// Truncated header.
	if _, _, err := Decode(make([]byte, 10)); err != ErrShortBuffer {
		t.Errorf("short header: %v", err)
	}
	// Header advertising more payload than present.
	h := Header{Type: TypePing, PayloadLen: 10}
	if _, _, err := Decode(h.AppendTo(nil)); err != ErrShortBuffer {
		t.Errorf("truncated payload: %v", err)
	}
	// Oversized advertised payload.
	h = Header{Type: TypeQuery, PayloadLen: MaxPayload + 1}
	if _, _, err := Decode(h.AppendTo(nil)); err != ErrPayloadTooLarge {
		t.Errorf("oversized payload: %v", err)
	}
	// Unknown type.
	h = Header{Type: 0x77, PayloadLen: 0}
	if _, _, err := Decode(h.AppendTo(nil)); err == nil {
		t.Error("unknown type accepted")
	}
	// Ping with non-empty payload.
	wire := Header{Type: TypePing, PayloadLen: 1}.appendWith(0xFF)
	if _, _, err := Decode(wire); err == nil {
		t.Error("ping with payload accepted")
	}
	// NeighborTraffic with wrong size.
	wire = Header{Type: TypeNeighborTraffic, PayloadLen: 19}.appendWith(make([]byte, 19)...)
	if _, _, err := Decode(wire); err == nil {
		t.Error("short neighbor_traffic accepted")
	}
	// Query without NUL terminator.
	wire = Header{Type: TypeQuery, PayloadLen: 5}.appendWith(0, 0, 'a', 'b', 'c')
	if _, _, err := Decode(wire); err == nil {
		t.Error("unterminated query accepted")
	}
	// NeighborList with inconsistent count.
	wire = Header{Type: TypeNeighborList, PayloadLen: 4}.appendWith(2, 0, 0, 0)
	if _, _, err := Decode(wire); err == nil {
		t.Error("inconsistent neighbor list accepted")
	}
}

func (h Header) appendWith(payload ...byte) []byte {
	return append(h.AppendTo(nil), payload...)
}

func TestDecodeStream(t *testing.T) {
	// Several messages back to back must decode sequentially.
	src := rng.New(2)
	var wire []byte
	wire = Encode(wire, NewGUID(src), 7, 0, Query{Keywords: "one"})
	wire = Encode(wire, NewGUID(src), 7, 0, Ping{})
	wire = Encode(wire, NewGUID(src), 7, 0, NeighborTraffic{Outgoing: 9})
	var types []byte
	for len(wire) > 0 {
		msg, n, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, msg.Header.Type)
		wire = wire[n:]
	}
	want := []byte{TypeQuery, TypePing, TypeNeighborTraffic}
	if !bytes.Equal(types, want) {
		t.Fatalf("types = %v, want %v", types, want)
	}
}

func TestGUIDUniqueness(t *testing.T) {
	src := rng.New(3)
	seen := make(map[GUID]bool, 10000)
	for i := 0; i < 10000; i++ {
		g := NewGUID(src)
		if seen[g] {
			t.Fatal("GUID collision")
		}
		seen[g] = true
	}
}

func BenchmarkTable1NeighborTrafficCodec(b *testing.B) {
	nt := NeighborTraffic{SourceIP: [4]byte{10, 0, 0, 1}, SuspectIP: [4]byte{10, 0, 0, 2},
		Timestamp: 12345, Outgoing: 5000, Incoming: 100}
	wire := Encode(nil, GUID{1}, 1, 0, nt)
	b.ReportAllocs()
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], GUID{1}, 1, 0, nt)
		if _, _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryEncode(b *testing.B) {
	q := Query{Keywords: "ubuntu iso 22.04 desktop amd64"}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], GUID{1}, 7, 0, q)
	}
}
