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
	// skipped counts messages dropped in Skip mode.
	skipped uint64
}

// NewStreamReader wraps r; bufSize <= 0 selects a 64 KiB buffer.
func NewStreamReader(r io.Reader, bufSize int) *StreamReader {
	if bufSize <= 0 {
		bufSize = 64 * 1024
	}
	return &StreamReader{br: bufio.NewReaderSize(r, bufSize)}
}

// Skipped returns the number of undecodable messages dropped (Skip mode).
func (sr *StreamReader) Skipped() uint64 { return sr.skipped }

// Next reads one complete message. It returns io.EOF at a clean end of
// stream and io.ErrUnexpectedEOF on truncation.
func (sr *StreamReader) Next() (Message, error) {
	for {
		if _, err := io.ReadFull(sr.br, sr.header[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return Message{}, io.ErrUnexpectedEOF
			}
			return Message{}, err
		}
		h, err := DecodeHeader(sr.header[:])
		if err != nil {
			return Message{}, fmt.Errorf("protocol: stream header: %w", err)
		}
		payload := make([]byte, h.PayloadLen)
		if _, err := io.ReadFull(sr.br, payload); err != nil {
			return Message{}, io.ErrUnexpectedEOF
		}
		full := append(sr.header[:], payload...)
		msg, _, err := Decode(full)
		if err != nil {
			if sr.Skip {
				sr.skipped++
				continue
			}
			return Message{}, err
		}
		return msg, nil
	}
}
