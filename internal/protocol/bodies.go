package protocol

import (
	"encoding/binary"
	"fmt"
)

// PeerAddr is the 6-byte IPv4 address + port tuple Gnutella uses on the
// wire. In simulation contexts the IP encodes the peer's NodeID.
type PeerAddr struct {
	IP   [4]byte
	Port uint16
}

// AddrFromNodeID maps a simulator node id into a stable synthetic
// address in 10.0.0.0/8 so wire traces remain readable.
func AddrFromNodeID(id int32, port uint16) PeerAddr {
	return PeerAddr{
		IP:   [4]byte{10, byte(id >> 16), byte(id >> 8), byte(id)},
		Port: port,
	}
}

// NodeID recovers the node id from a synthetic 10.x.y.z address.
func (a PeerAddr) NodeID() int32 {
	return int32(a.IP[1])<<16 | int32(a.IP[2])<<8 | int32(a.IP[3])
}

// String renders "a.b.c.d:port".
func (a PeerAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", a.IP[0], a.IP[1], a.IP[2], a.IP[3], a.Port)
}

func (a PeerAddr) appendTo(dst []byte) []byte {
	dst = append(dst, a.IP[:]...)
	var p [2]byte
	binary.LittleEndian.PutUint16(p[:], a.Port)
	return append(dst, p[:]...)
}

func decodeAddr(buf []byte) (PeerAddr, error) {
	var a PeerAddr
	if len(buf) < 6 {
		return a, ErrShortBuffer
	}
	copy(a.IP[:], buf[0:4])
	a.Port = binary.LittleEndian.Uint16(buf[4:6])
	return a, nil
}

// Ping is the keep-alive / discovery probe (payload type 0x00). Its
// payload is empty in Gnutella 0.6.
type Ping struct{}

// Type implements Body.
func (Ping) Type() byte { return TypePing }

// AppendTo implements Body.
func (Ping) AppendTo(dst []byte) []byte { return dst }

func (Ping) size() int { return 0 }

func decodePing(payload []byte) (Body, error) {
	if len(payload) != 0 {
		return nil, fmt.Errorf("protocol: ping with %d-byte payload", len(payload))
	}
	return Ping{}, nil
}

// Pong answers a Ping (payload type 0x01): address plus shared-library
// statistics.
type Pong struct {
	Addr      PeerAddr
	FileCount uint32
	KBShared  uint32
}

// Type implements Body.
func (Pong) Type() byte { return TypePong }

// AppendTo implements Body.
func (p Pong) AppendTo(dst []byte) []byte {
	dst = p.Addr.appendTo(dst)
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], p.FileCount)
	binary.LittleEndian.PutUint32(b[4:8], p.KBShared)
	return append(dst, b[:]...)
}

func (Pong) size() int { return 14 }

func decodePong(payload []byte) (Body, error) {
	if len(payload) != 14 {
		return nil, fmt.Errorf("protocol: pong payload %d bytes, want 14", len(payload))
	}
	addr, err := decodeAddr(payload)
	if err != nil {
		return nil, err
	}
	return Pong{
		Addr:      addr,
		FileCount: binary.LittleEndian.Uint32(payload[6:10]),
		KBShared:  binary.LittleEndian.Uint32(payload[10:14]),
	}, nil
}

// Bye announces an orderly disconnect (payload type 0x02) with a reason
// code; DD-POLICE uses it to tell a disconnected suspect why it was cut
// ("send out a message to both peers indicating the reason", §3.1).
type Bye struct {
	Code   uint16
	Reason string
}

// ByeCodeDDoSSuspect is the Bye reason code of a DD-POLICE cut.
const ByeCodeDDoSSuspect uint16 = 451

// Type implements Body.
func (Bye) Type() byte { return TypeBye }

// AppendTo implements Body.
func (b Bye) AppendTo(dst []byte) []byte {
	var c [2]byte
	binary.LittleEndian.PutUint16(c[:], b.Code)
	dst = append(dst, c[:]...)
	return append(dst, b.Reason...)
}

func (b Bye) size() int { return 2 + len(b.Reason) }

func decodeBye(payload []byte) (Body, error) {
	if len(payload) < 2 {
		return nil, ErrShortBuffer
	}
	return Bye{
		Code:   binary.LittleEndian.Uint16(payload[0:2]),
		Reason: string(payload[2:]),
	}, nil
}

// Query is a flooded keyword search (payload type 0x80): minimum-speed
// field then a NUL-terminated search string, optionally followed by
// the causal-tracing extension — 8 little-endian bytes of trace ID
// plus the tag byte 'T' appended after the NUL. The extension is
// emitted only when TraceID is nonzero, so untraced queries stay
// byte-identical to the legacy encoding, and the two forms are
// unambiguous: legacy payloads always end in NUL, extended payloads
// always end in the tag.
type Query struct {
	MinSpeed uint16
	Keywords string
	TraceID  uint64 // causal trace ID; 0 = untraced (no wire bytes)
}

// queryTraceTag terminates the trace-ID extension; never 0, so an
// extended payload cannot be mistaken for a legacy NUL-terminated one.
const queryTraceTag = 'T'

// Type implements Body.
func (Query) Type() byte { return TypeQuery }

// AppendTo implements Body.
func (q Query) AppendTo(dst []byte) []byte {
	var s [2]byte
	binary.LittleEndian.PutUint16(s[:], q.MinSpeed)
	dst = append(dst, s[:]...)
	dst = append(dst, q.Keywords...)
	dst = append(dst, 0)
	if q.TraceID != 0 {
		var tid [8]byte
		binary.LittleEndian.PutUint64(tid[:], q.TraceID)
		dst = append(dst, tid[:]...)
		dst = append(dst, queryTraceTag)
	}
	return dst
}

func (q Query) size() int {
	if q.TraceID != 0 {
		return 2 + len(q.Keywords) + 1 + 9
	}
	return 2 + len(q.Keywords) + 1
}

// ParseQuery parses a Query payload in place and allocates nothing on
// success: keywords aliases payload. It is the one Query parser — Decode
// builds its Body from it — so a frame the live relay path parses and
// one Decode accepts are the same frames.
func ParseQuery(payload []byte) (minSpeed uint16, keywords []byte, traceID uint64, err error) {
	if len(payload) < 3 {
		return 0, nil, 0, fmt.Errorf("protocol: query payload %d bytes, want >=3", len(payload))
	}
	minSpeed = binary.LittleEndian.Uint16(payload[0:2])
	if payload[len(payload)-1] == 0 {
		return minSpeed, payload[2 : len(payload)-1], 0, nil
	}
	// Trace extension: tag byte at the end, trace ID in the 8 bytes
	// before it, keywords NUL immediately before those.
	if len(payload) >= 12 && payload[len(payload)-1] == queryTraceTag && payload[len(payload)-10] == 0 {
		if tid := binary.LittleEndian.Uint64(payload[len(payload)-9 : len(payload)-1]); tid != 0 {
			return minSpeed, payload[2 : len(payload)-10], tid, nil
		}
	}
	return 0, nil, 0, fmt.Errorf("protocol: query keywords not NUL-terminated")
}

func decodeQuery(payload []byte) (Body, error) {
	minSpeed, keywords, traceID, err := ParseQuery(payload)
	if err != nil {
		return nil, err
	}
	return Query{MinSpeed: minSpeed, Keywords: string(keywords), TraceID: traceID}, nil
}

// QueryHit answers a Query along the reverse path (payload type 0x81).
type QueryHit struct {
	Addr      PeerAddr
	HitCount  uint8
	QueryGUID GUID
}

// Type implements Body.
func (QueryHit) Type() byte { return TypeQueryHit }

// AppendTo implements Body.
func (q QueryHit) AppendTo(dst []byte) []byte {
	dst = q.Addr.appendTo(dst)
	dst = append(dst, q.HitCount)
	return append(dst, q.QueryGUID[:]...)
}

func (QueryHit) size() int { return 23 }

// ParseQueryHit parses a QueryHit payload without allocating on success.
// It is the one QueryHit parser: Decode builds its Body from it.
func ParseQueryHit(payload []byte) (QueryHit, error) {
	if len(payload) != 23 {
		return QueryHit{}, fmt.Errorf("protocol: queryhit payload %d bytes, want 23", len(payload))
	}
	addr, err := decodeAddr(payload)
	if err != nil {
		return QueryHit{}, err
	}
	qh := QueryHit{Addr: addr, HitCount: payload[6]}
	copy(qh.QueryGUID[:], payload[7:23])
	return qh, nil
}

func decodeQueryHit(payload []byte) (Body, error) {
	qh, err := ParseQueryHit(payload)
	if err != nil {
		return nil, err
	}
	return qh, nil
}

// NeighborList carries a peer's current neighbor set for the periodic
// neighbor-list exchange of §3.1 (payload type 0x84): a count followed
// by 6-byte address entries.
type NeighborList struct {
	Neighbors []PeerAddr
}

// Type implements Body.
func (NeighborList) Type() byte { return TypeNeighborList }

// AppendTo implements Body.
func (n NeighborList) AppendTo(dst []byte) []byte {
	var c [2]byte
	binary.LittleEndian.PutUint16(c[:], uint16(len(n.Neighbors)))
	dst = append(dst, c[:]...)
	for _, a := range n.Neighbors {
		dst = a.appendTo(dst)
	}
	return dst
}

func (n NeighborList) size() int { return 2 + 6*len(n.Neighbors) }

func decodeNeighborList(payload []byte) (Body, error) {
	if len(payload) < 2 {
		return nil, ErrShortBuffer
	}
	count := int(binary.LittleEndian.Uint16(payload[0:2]))
	if len(payload) != 2+6*count {
		return nil, fmt.Errorf("protocol: neighbor list advertises %d entries in %d bytes", count, len(payload))
	}
	n := NeighborList{Neighbors: make([]PeerAddr, count)}
	for i := 0; i < count; i++ {
		a, err := decodeAddr(payload[2+6*i:])
		if err != nil {
			return nil, err
		}
		n.Neighbors[i] = a
	}
	return n, nil
}
