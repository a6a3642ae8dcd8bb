package gnet

import (
	"testing"
	"time"

	"ddpolice/internal/topology"
)

func TestHarnessRingOverlay(t *testing.T) {
	g, err := topology.RingLattice(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, 3*time.Second, func() bool {
		for i := 0; i < h.Len(); i++ {
			if len(h.Node(i).Neighbors()) != 2 {
				return false
			}
		}
		return true
	}, "ring fully connected")
}
