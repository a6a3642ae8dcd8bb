package flood

import (
	"testing"
)

// TestTakeClampsAtZero is the regression test for the budget underflow
// bug: a caller's precomputed arrival cap can go stale when a same-tick
// sibling arrival lands between the arrivalCap read and the take, and
// the unclamped subtraction drove Remaining below zero.
func TestTakeClampsAtZero(t *testing.T) {
	b := NewBudget(3, 10)
	// Stale-cap race: the cap (10) was read, then a sibling consumed 8,
	// then the original take lands with its stale amount.
	room := b.arrivalCap(1, 0)
	if room != 10 {
		t.Fatalf("arrivalCap = %v, want 10", room)
	}
	b.take(1, 0, 8)    // sibling arrival
	b.take(1, 0, room) // stale take: 10 into a cell holding 2
	if got := b.remaining[1]; got != 0 {
		t.Fatalf("Remaining[1] = %v after overdraw, want 0 (clamped)", got)
	}
	if got := b.arrivalCap(1, 0); got != 0 {
		t.Fatalf("arrivalCap = %v on an exhausted cell, want 0", got)
	}
	// Utilization must saturate at 1, not blow past it from the deficit.
	if u := b.Utilization(1); u != 1 {
		t.Fatalf("Utilization = %v on an exhausted peer, want 1", u)
	}
}

// TestTakeClampsFairShareEdges covers the same underflow on the
// per-directed-edge sub-budgets of fair-share mode.
func TestTakeClampsFairShareEdges(t *testing.T) {
	ov := star(t, 4) // hub 0 with leaves 1..3
	b := NewBudget(4, 30)
	b.EnableFairShare(ov)
	// Hub has 3 active connections: 10 tokens per inbound edge.
	e := ov.EdgeID(1, 0) // leaf 1's one edge, to the hub
	if room := b.arrivalCap(0, e); room != 10 {
		t.Fatalf("edge share = %v, want 10", room)
	}
	b.take(0, e, 25) // overdraw both the edge share and part of the peer total
	if got := b.edgeRemaining[e]; got != 0 {
		t.Fatalf("edgeRemaining = %v after overdraw, want 0", got)
	}
	if got := b.remaining[0]; got != 5 {
		t.Fatalf("Remaining[0] = %v, want 5", got)
	}
	if got := b.arrivalCap(0, e); got != 0 {
		t.Fatalf("arrivalCap = %v on a drained edge, want 0", got)
	}
}

// TestUtilZeroCapacityIdle is the regression test for the queueing-delay
// bug: a zero-capacity peer with no traffic reported utilization 1.0,
// charging every flood path through it the maximum queueing delay.
func TestUtilZeroCapacityIdle(t *testing.T) {
	b := NewBudget(2, 0)
	if u := b.Utilization(0); u != 0 {
		t.Fatalf("Utilization = %v for an idle zero-capacity peer, want 0", u)
	}
	b.Refill() // last tick's utilization must not resurrect the 1.0 either
	if u := b.Utilization(0); u != 0 {
		t.Fatalf("Utilization = %v after Refill, want 0", u)
	}
	dm := DefaultDelayModel()
	if d := dm.hopDelay(b.Utilization(0)); d != dm.HopDelay {
		t.Fatalf("hop delay = %v through an idle zero-capacity peer, want base %v", d, dm.HopDelay)
	}
}

// TestRefillRestoresUnannouncedWrites: Refill restores every peer and
// every fair-share edge, including cells written directly rather than
// through take or SetCapacity, as an external capacity model may do.
// The written peer's last-tick utilization is captured too.
func TestRefillRestoresUnannouncedWrites(t *testing.T) {
	ov := star(t, 4) // hub 0 with leaves 1..3
	b := NewBudget(4, 30)
	b.EnableFairShare(ov)
	e := ov.EdgeID(1, 0) // leaf 1's one edge, to the hub
	b.remaining[2] = 7.5
	b.edgeRemaining[e] = 4
	b.Refill()
	if got := b.remaining[2]; got != 30 {
		t.Fatalf("Remaining[2] = %v after Refill, want PerTick 30", got)
	}
	if got := b.Utilization(2); got != 0.75 {
		t.Fatalf("Utilization(2) = %v after Refill, want the ended tick's 0.75", got)
	}
	if got := b.edgeRemaining[e]; got != 10 {
		t.Fatalf("edgeRemaining = %v after Refill, want the edge share 10", got)
	}
}
