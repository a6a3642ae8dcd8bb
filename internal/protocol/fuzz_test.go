package protocol

import (
	"bytes"
	"testing"

	"ddpolice/internal/rng"
)

// FuzzDecode drives the wire decoder with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode to the identical
// wire form (round-trip stability), so a relay that forwards the
// received frame through NextHop sends what re-encoding would. The
// stream reader's NextFrame, which parses the flood types in place, must
// accept exactly what Decode accepts, and ParseQuery/ParseQueryHit must
// read the fields Decode does. An accepted Query is the legacy form: its
// payload ends in the keywords' NUL. `go test` runs the seed corpus; `make
// fuzz` or `go test -fuzz=FuzzDecode ./internal/protocol` explores
// further.
func FuzzDecode(f *testing.F) {
	src := rng.New(1)
	f.Add(Encode(nil, NewGUID(src), 7, 0, Query{Keywords: "seed query"}))
	f.Add(Encode(nil, NewGUID(src), 1, 0, Ping{}))
	f.Add(Encode(nil, NewGUID(src), 1, 0, NeighborTraffic{Outgoing: 20000, Incoming: 3}))
	f.Add(Encode(nil, NewGUID(src), 1, 0, NeighborList{Neighbors: []PeerAddr{AddrFromNodeID(7, 6346)}}))
	f.Add(Encode(nil, NewGUID(src), 3, 2, Bye{Code: 451, Reason: "g>CT"}))
	// The retired trace-ID trailer, refused: the smallest ID, and one whose
	// top byte is zero, so a 0 sits right before the 'T'.
	f.Add(withTrailer(Encode(nil, NewGUID(src), 7, 0, Query{Keywords: "traced"}), 1))
	f.Add(withTrailer(Encode(nil, NewGUID(src), 7, 0, Query{Keywords: "traced"}), 0x00DEADBEEFCAFE01))
	f.Add(Encode(nil, NewGUID(src), 5, 2, QueryHit{Addr: AddrFromNodeID(11, 6346), HitCount: 1, QueryGUID: NewGUID(src)}))
	f.Add(Encode(nil, NewGUID(src), 1, 1, Pong{Addr: AddrFromNodeID(3, 6346), FileCount: 12, KBShared: 4096}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := Decode(data)
		h, frame, ferr := NewStreamReader(bytes.NewReader(data), 0).NextFrame()
		if (err == nil) != (ferr == nil) {
			t.Fatalf("Decode error %v, NextFrame error %v", err, ferr)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if h != msg.Header || !bytes.Equal(frame, data[:n]) {
			t.Fatalf("NextFrame read %+v %x, Decode %+v %x", h, frame, msg.Header, data[:n])
		}
		re := Encode(nil, msg.Header.GUID, msg.Header.TTL, msg.Header.Hops, msg.Body)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round-trip mismatch:\n in: %x\nout: %x", data[:n], re)
		}
		NextHop(frame)
		if re := Encode(nil, h.GUID, h.TTL-1, h.Hops+1, msg.Body); !bytes.Equal(frame, re) {
			t.Fatalf("relayed frame differs from re-encoding:\nrelay: %x\n  enc: %x", frame, re)
		}
		payload := data[HeaderSize:n]
		switch body := msg.Body.(type) {
		case Query:
			minSpeed, keywords, err := ParseQuery(payload)
			if err != nil || minSpeed != body.MinSpeed || string(keywords) != body.Keywords {
				t.Fatalf("ParseQuery = %d %q %v, Decode %+v", minSpeed, keywords, err, body)
			}
			if payload[len(payload)-1] != 0 {
				t.Fatalf("accepted Query payload %x does not end in NUL", payload)
			}
		case QueryHit:
			if qh, err := ParseQueryHit(payload); err != nil || qh != body {
				t.Fatalf("ParseQueryHit = %+v %v, Decode %+v", qh, err, body)
			}
		}
	})
}
