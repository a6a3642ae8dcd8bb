package protocol

import (
	"encoding/binary"
	"fmt"
)

// NeighborTraffic is the DD-POLICE query-volume report message, payload
// type 0x83, with the exact body layout of the paper's Table 1:
//
//	byte offset  size  field
//	0            4     Source IP Address
//	4            4     Suspect IP Address
//	8            4     Source timestamp
//	12           4     # of Outgoing queries (Out_query(suspect), past minute)
//	16           4     # of Incoming queries (In_query(suspect), past minute)
//
// Total body size: 20 bytes; a full message is 23 (header) + 20 = 43
// bytes on the wire.
type NeighborTraffic struct {
	SourceIP  [4]byte
	SuspectIP [4]byte
	Timestamp uint32 // seconds, sender's clock
	Outgoing  uint32 // queries source -> suspect in the past minute
	Incoming  uint32 // queries suspect -> source in the past minute
}

// NeighborTrafficBodySize is the Table 1 body length in bytes.
const NeighborTrafficBodySize = 20

// Byte offsets of each Table 1 field within the body.
const (
	OffsetSourceIP  = 0
	OffsetSuspectIP = 4
	OffsetTimestamp = 8
	OffsetOutgoing  = 12
	OffsetIncoming  = 16
)

// Type implements Body.
func (NeighborTraffic) Type() byte { return TypeNeighborTraffic }

// AppendTo implements Body.
func (n NeighborTraffic) AppendTo(dst []byte) []byte {
	var b [NeighborTrafficBodySize]byte
	copy(b[OffsetSourceIP:], n.SourceIP[:])
	copy(b[OffsetSuspectIP:], n.SuspectIP[:])
	binary.LittleEndian.PutUint32(b[OffsetTimestamp:], n.Timestamp)
	binary.LittleEndian.PutUint32(b[OffsetOutgoing:], n.Outgoing)
	binary.LittleEndian.PutUint32(b[OffsetIncoming:], n.Incoming)
	return append(dst, b[:]...)
}

func (NeighborTraffic) size() int { return NeighborTrafficBodySize }

func decodeNeighborTraffic(payload []byte) (Body, error) {
	if len(payload) != NeighborTrafficBodySize {
		return nil, fmt.Errorf("protocol: neighbor_traffic payload %d bytes, want %d",
			len(payload), NeighborTrafficBodySize)
	}
	var n NeighborTraffic
	copy(n.SourceIP[:], payload[OffsetSourceIP:OffsetSourceIP+4])
	copy(n.SuspectIP[:], payload[OffsetSuspectIP:OffsetSuspectIP+4])
	n.Timestamp = binary.LittleEndian.Uint32(payload[OffsetTimestamp:])
	n.Outgoing = binary.LittleEndian.Uint32(payload[OffsetOutgoing:])
	n.Incoming = binary.LittleEndian.Uint32(payload[OffsetIncoming:])
	return n, nil
}
