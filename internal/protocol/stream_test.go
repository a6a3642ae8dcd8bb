package protocol

import (
	"bytes"
	"io"
	"testing"

	"ddpolice/internal/rng"
)

// drip delivers bytes one at a time to exercise partial reads.
type drip struct{ buf *bytes.Buffer }

func (d *drip) Read(p []byte) (int, error) {
	if d.buf.Len() == 0 {
		return 0, io.EOF
	}
	return d.buf.Read(p[:1])
}

func streamOf(bodies ...Body) *bytes.Buffer {
	src := rng.New(1)
	var buf bytes.Buffer
	for _, b := range bodies {
		buf.Write(Encode(nil, NewGUID(src), DefaultTTL, 0, b))
	}
	return &buf
}

func TestStreamReaderSequence(t *testing.T) {
	buf := streamOf(Ping{}, Query{Keywords: "abc"}, NeighborTraffic{Outgoing: 9})
	sr := NewStreamReader(buf, 0)
	wantTypes := []byte{TypePing, TypeQuery, TypeNeighborTraffic}
	for i, want := range wantTypes {
		msg, err := sr.Next()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if msg.Header.Type != want {
			t.Fatalf("message %d type 0x%02x, want 0x%02x", i, msg.Header.Type, want)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestStreamReaderFragmentedDelivery(t *testing.T) {
	buf := streamOf(Query{Keywords: "fragmented delivery test"}, Ping{})
	sr := NewStreamReader(&drip{buf}, 8)
	msg, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if q := msg.Body.(Query); q.Keywords != "fragmented delivery test" {
		t.Fatalf("keywords = %q", q.Keywords)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatalf("second message: %v", err)
	}
}

func TestStreamReaderTruncation(t *testing.T) {
	buf := streamOf(Query{Keywords: "whole"})
	wire := buf.Bytes()
	sr := NewStreamReader(bytes.NewReader(wire[:len(wire)-3]), 0)
	if _, err := sr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
	// Truncated mid-header too.
	sr = NewStreamReader(bytes.NewReader(wire[:10]), 0)
	if _, err := sr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-header: want ErrUnexpectedEOF, got %v", err)
	}
}

func TestStreamReaderOversizedPayload(t *testing.T) {
	h := Header{Type: TypeQuery, PayloadLen: MaxPayload + 1}
	wire := h.AppendTo(nil)
	sr := NewStreamReader(bytes.NewReader(wire), 0)
	if _, err := sr.Next(); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestStreamReaderSkipMode(t *testing.T) {
	// A bogus payload type in the middle; Skip mode continues.
	good := streamOf(Ping{})
	badHeader := Header{Type: 0x7F, PayloadLen: 2}
	bad := badHeader.AppendTo(nil)
	bad = append(bad, 0xAA, 0xBB)
	var buf bytes.Buffer
	buf.Write(bad)
	buf.Write(good.Bytes())

	sr := NewStreamReader(bytes.NewReader(buf.Bytes()), 0)
	if _, err := sr.Next(); err == nil {
		t.Fatal("strict mode accepted unknown type")
	}

	sr = NewStreamReader(bytes.NewReader(buf.Bytes()), 0)
	sr.Skip = true
	msg, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.Type != TypePing {
		t.Fatalf("type = 0x%02x", msg.Header.Type)
	}
}
