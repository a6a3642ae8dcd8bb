package protocol

import (
	"bufio"
	"fmt"
	"io"
)

// StreamReader decodes a sequence of framed messages from a byte
// stream (the body of a Gnutella connection after the handshake).
type StreamReader struct {
	br     *bufio.Reader
	header [HeaderSize]byte
	// Skip, when true, silently drops payloads that fail body decoding
	// instead of returning an error — a live node must survive a peer
	// that speaks newer payload types.
	Skip bool
}

// NewStreamReader wraps r; bufSize <= 0 selects a 64 KiB buffer.
func NewStreamReader(r io.Reader, bufSize int) *StreamReader {
	if bufSize <= 0 {
		bufSize = 64 * 1024
	}
	return &StreamReader{br: bufio.NewReaderSize(r, bufSize)}
}

// Next reads one complete message: NextFrame, then Decode.
//
//ddlint:allow dead -- gnet's overload tests read a node's frames back with it
func (sr *StreamReader) Next() (Message, error) {
	_, frame, err := sr.NextFrame()
	if err != nil {
		return Message{}, err
	}
	msg, _, err := Decode(frame)
	return msg, err
}

// NextFrame reads one complete frame — header and payload — into a
// buffer of its own, exactly HeaderSize+PayloadLen bytes long, which the
// caller owns. It accepts exactly the frames Decode accepts, but builds
// no Body for a Query or QueryHit: those are checked by ParseQuery and
// ParseQueryHit, which allocate nothing. It returns io.EOF at a clean
// end of stream and io.ErrUnexpectedEOF on truncation.
func (sr *StreamReader) NextFrame() (Header, []byte, error) {
	for {
		if _, err := io.ReadFull(sr.br, sr.header[:]); err != nil {
			return Header{}, nil, err
		}
		h, err := DecodeHeader(sr.header[:])
		if err != nil {
			return Header{}, nil, fmt.Errorf("protocol: stream header: %w", err)
		}
		frame := make([]byte, HeaderSize+int(h.PayloadLen))
		copy(frame, sr.header[:])
		if _, err := io.ReadFull(sr.br, frame[HeaderSize:]); err != nil {
			return Header{}, nil, io.ErrUnexpectedEOF
		}
		if err := checkFrame(h.Type, frame); err != nil {
			if sr.Skip {
				continue
			}
			return Header{}, nil, err
		}
		return h, frame, nil
	}
}

// checkFrame validates one whole frame of payload type typ.
func checkFrame(typ byte, frame []byte) error {
	var err error
	switch typ {
	case TypeQuery:
		_, _, err = ParseQuery(frame[HeaderSize:])
	case TypeQueryHit:
		_, err = ParseQueryHit(frame[HeaderSize:])
	default:
		_, _, err = Decode(frame)
	}
	return err
}
