package protocol

import (
	"testing"

	"ddpolice/internal/rng"
)

// The live node parses and relays every flood frame, so the flood
// types' allocation counts are pinned: parsing allocates nothing,
// reading a frame allocates its one buffer, and encoding allocates the
// frame once.

var (
	pinQuery = Query{MinSpeed: 64, Keywords: "ubuntu iso 22.04 desktop amd64"}
	pinHit   = QueryHit{Addr: AddrFromNodeID(11, 6346), HitCount: 1, QueryGUID: GUID{9}}
	pinNT    = NeighborTraffic{Timestamp: 1, Outgoing: 20, Incoming: 20}
)

func TestParseAllocatesNothing(t *testing.T) {
	payload := pinQuery.AppendTo(nil)
	if got := testing.AllocsPerRun(100, func() {
		if _, _, err := ParseQuery(payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ParseQuery: %v allocations, want 0", got)
	}
	payload = pinHit.AppendTo(nil)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := ParseQueryHit(payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ParseQueryHit: %v allocations, want 0", got)
	}
}

// endless replays one frame forever, so a reader over it never runs dry.
type endless struct {
	frame []byte
	off   int
}

func (e *endless) Read(p []byte) (int, error) {
	n := copy(p, e.frame[e.off:])
	e.off = (e.off + n) % len(e.frame)
	return n, nil
}

func TestNextFrameAllocatesOnlyTheFrame(t *testing.T) {
	src := rng.New(1)
	for _, body := range []Body{pinQuery, pinHit} {
		sr := NewStreamReader(&endless{frame: Encode(nil, NewGUID(src), 7, 0, body)}, 0)
		if got := testing.AllocsPerRun(100, func() {
			if _, _, err := sr.NextFrame(); err != nil {
				t.Fatal(err)
			}
		}); got != 1 {
			t.Errorf("NextFrame of a %T frame: %v allocations, want 1", body, got)
		}
	}
}

func TestEncodeAllocatesOnce(t *testing.T) {
	guid := NewGUID(rng.New(1))
	for _, body := range []Body{pinQuery, pinHit, pinNT} {
		if got := testing.AllocsPerRun(100, func() {
			Encode(nil, guid, 7, 0, body)
		}); got != 1 {
			t.Errorf("Encode of a %T: %v allocations, want 1", body, got)
		}
	}
}
