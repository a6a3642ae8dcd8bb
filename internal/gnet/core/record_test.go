package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ddpolice/internal/journal"
	"ddpolice/internal/protocol"
)

// TestFloodRecordQueryID: a kept flood record names its query by the
// GUID's first 8 bytes as fmt's %016x prints them, and allocates once,
// for its Detail string.
func TestFloodRecordQueryID(t *testing.T) {
	jr := journal.New(1 << 10)
	c, err := New(Config{CapacityPerMin: 60, Journal: jr, FloodSample: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{0, 1, math.MaxUint64} {
		var guid protocol.GUID
		binary.LittleEndian.PutUint64(guid[0:8], id)
		c.floodRecord(journal.TypeHop, guid, 2, 1)
		evs := jr.Events()
		if got, want := evs[len(evs)-1].Detail, fmt.Sprintf("%016x", id); got != want {
			t.Errorf("query %d: Detail %q, want %q", id, got, want)
		}
	}
	var guid protocol.GUID
	binary.LittleEndian.PutUint64(guid[0:8], 0x0123456789abcdef)
	if n := testing.AllocsPerRun(100, func() { c.floodRecord(journal.TypeHop, guid, 2, 1) }); n > 1 {
		t.Errorf("a kept record allocates %v times, want at most 1", n)
	}
}
