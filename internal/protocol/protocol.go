// Package protocol implements the Gnutella 0.6 wire format used by the
// live nodes (internal/gnet) and by the DD-POLICE extension messages.
//
// Every message starts with the unified 23-byte Gnutella header:
//
//	offset  size  field
//	0       16    Message GUID
//	16      1     Payload type
//	17      1     TTL
//	18      1     Hops
//	19      4     Payload length (little endian)
//
// Payload types: 0x00 Ping, 0x01 Pong, 0x02 Bye, 0x80 Query,
// 0x81 QueryHit, and the two DD-POLICE extensions defined by the paper:
// 0x83 Neighbor_Traffic (Table 1) and 0x84 Neighbor_List (the periodic
// neighbor-list exchange of §3.1).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ddpolice/internal/rng"
)

// Payload type identifiers.
const (
	TypePing            byte = 0x00
	TypePong            byte = 0x01
	TypeBye             byte = 0x02
	TypeQuery           byte = 0x80
	TypeQueryHit        byte = 0x81
	TypeNeighborTraffic byte = 0x83 // paper Table 1: "can be defined as x83"
	TypeNeighborList    byte = 0x84
)

// HeaderSize is the unified Gnutella message header size in bytes.
const HeaderSize = 23

// MaxPayload bounds payload length to guard against hostile framing.
const MaxPayload = 1 << 20

// DefaultTTL is the customary Gnutella flood TTL.
const DefaultTTL = 7

// GUID is the 16-byte globally unique message identifier.
type GUID [16]byte

// NewGUID draws a random GUID from src.
func NewGUID(src *rng.Source) GUID {
	var g GUID
	binary.LittleEndian.PutUint64(g[0:8], src.Uint64())
	binary.LittleEndian.PutUint64(g[8:16], src.Uint64())
	return g
}

// String renders the GUID in hex.
func (g GUID) String() string { return fmt.Sprintf("%x", g[:]) }

// Header is the unified 23-byte message header.
type Header struct {
	GUID       GUID
	Type       byte
	TTL        byte
	Hops       byte
	PayloadLen uint32
}

// ErrShortBuffer is returned when a decode input is truncated.
var ErrShortBuffer = errors.New("protocol: short buffer")

// ErrPayloadTooLarge is returned when a header advertises an oversized payload.
var ErrPayloadTooLarge = errors.New("protocol: payload length exceeds limit")

// AppendTo appends the 23 wire bytes of h to dst and returns the result.
func (h *Header) AppendTo(dst []byte) []byte {
	dst = append(dst, h.GUID[:]...)
	dst = append(dst, h.Type, h.TTL, h.Hops)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], h.PayloadLen)
	return append(dst, lenBuf[:]...)
}

// DecodeHeader parses a 23-byte header from buf.
func DecodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderSize {
		return h, ErrShortBuffer
	}
	copy(h.GUID[:], buf[0:16])
	h.Type = buf[16]
	h.TTL = buf[17]
	h.Hops = buf[18]
	h.PayloadLen = binary.LittleEndian.Uint32(buf[19:23])
	if h.PayloadLen > MaxPayload {
		return h, ErrPayloadTooLarge
	}
	return h, nil
}

// Message is a decoded wire message: header plus typed body.
type Message struct {
	Header Header
	Body   Body
}

// Body is implemented by each payload type.
type Body interface {
	// Type returns the payload type byte.
	Type() byte
	// AppendTo appends the payload wire bytes to dst.
	AppendTo(dst []byte) []byte
	// size is the number of bytes AppendTo appends.
	size() int
}

// Encode serializes header+body, fixing up Type and PayloadLen from body.
// It grows dst once, to the frame's exact size; PayloadLen is what
// AppendTo wrote, so a wrong size costs an allocation, never a bad frame.
func Encode(dst []byte, guid GUID, ttl, hops byte, body Body) []byte {
	if need := HeaderSize + body.size(); cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	start := len(dst)
	h := Header{GUID: guid, Type: body.Type(), TTL: ttl, Hops: hops}
	dst = body.AppendTo(h.AppendTo(dst))
	binary.LittleEndian.PutUint32(dst[start+offsetPayloadLen:], uint32(len(dst)-start-HeaderSize))
	return dst
}

// Byte offsets of the header fields a relay rewrites or a length fix-up
// patches.
const (
	offsetTTL        = 17
	offsetHops       = 18
	offsetPayloadLen = 19
)

// NextHop rewrites a received frame in place for forwarding one hop
// further: TTL down by one and Hops up by one, every other byte as
// received. For a frame Decode accepts, the result equals Encode of its
// decoded body with TTL-1 and Hops+1, because a decoded body re-encodes
// to the payload it was decoded from (FuzzDecode checks both).
func NextHop(frame []byte) {
	frame[offsetTTL]--
	frame[offsetHops]++
}

// Decode parses one complete message from buf, returning the message and
// the number of bytes consumed.
func Decode(buf []byte) (Message, int, error) {
	h, err := DecodeHeader(buf)
	if err != nil {
		return Message{}, 0, err
	}
	total := HeaderSize + int(h.PayloadLen)
	if len(buf) < total {
		return Message{}, 0, ErrShortBuffer
	}
	payload := buf[HeaderSize:total]
	var body Body
	switch h.Type {
	case TypePing:
		body, err = decodePing(payload)
	case TypePong:
		body, err = decodePong(payload)
	case TypeBye:
		body, err = decodeBye(payload)
	case TypeQuery:
		body, err = decodeQuery(payload)
	case TypeQueryHit:
		body, err = decodeQueryHit(payload)
	case TypeNeighborTraffic:
		body, err = decodeNeighborTraffic(payload)
	case TypeNeighborList:
		body, err = decodeNeighborList(payload)
	default:
		err = fmt.Errorf("protocol: unknown payload type 0x%02x", h.Type)
	}
	if err != nil {
		return Message{}, 0, err
	}
	return Message{Header: h, Body: body}, total, nil
}
