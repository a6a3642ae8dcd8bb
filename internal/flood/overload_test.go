package flood

import (
	"testing"
)

func TestReserveControlScalesBudget(t *testing.T) {
	b := NewBudget(2, 100)
	b.ReserveControl(0.05)
	for i := 0; i < 2; i++ {
		if got := b.perTick[i]; got != 95 {
			t.Fatalf("PerTick[%d] = %v after 5%% reserve, want 95", i, got)
		}
		if got := b.remaining[i]; got != 95 {
			t.Fatalf("Remaining[%d] = %v after 5%% reserve, want 95", i, got)
		}
	}
	// Zero and negative fractions are no-ops.
	b.ReserveControl(0)
	b.ReserveControl(-1)
	if got := b.perTick[0]; got != 95 {
		t.Fatalf("PerTick[0] = %v after no-op reserves, want 95", got)
	}
	// Fractions above 1 clamp: all capacity reserved, query plane gets 0.
	b.ReserveControl(2)
	if got := b.perTick[0]; got != 0 {
		t.Fatalf("PerTick[0] = %v after full reserve, want 0", got)
	}
}

func TestSetCapacityClampsAndAppliesImmediately(t *testing.T) {
	b := NewBudget(2, 100)
	b.SetCapacity(0, 40)
	if got := b.perTick[0]; got != 40 {
		t.Fatalf("PerTick[0] = %v, want 40", got)
	}
	// The current tick's remaining tokens are clipped down immediately.
	if got := b.remaining[0]; got != 40 {
		t.Fatalf("Remaining[0] = %v, want 40 (clipped to new capacity)", got)
	}
	b.SetCapacity(1, -5)
	if got, rem := b.perTick[1], b.remaining[1]; got != 0 || rem != 0 {
		t.Fatalf("PerTick[1]/Remaining[1] = %v/%v after negative capacity, want 0/0", got, rem)
	}
	// Raising capacity does not mint tokens mid-tick; the refill does.
	b.SetCapacity(0, 200)
	if got := b.remaining[0]; got != 40 {
		t.Fatalf("Remaining[0] = %v after raise, want 40 until refill", got)
	}
	b.Refill()
	if got := b.remaining[0]; got != 200 {
		t.Fatalf("Remaining[0] = %v after refill, want 200", got)
	}
}

// Capacity changes move PerTick without touching the overlay mutation
// counter, so the fair-share split must be rebuilt via the capMoved
// flag, not version comparison alone.
func TestCapacityChangeRebuildsFairShare(t *testing.T) {
	ov := star(t, 4) // hub 0 with leaves 1..3
	b := NewBudget(4, 30)
	b.EnableFairShare(ov)
	e := ov.EdgeID(1, 0) // leaf 1's one edge, to the hub
	if room := b.arrivalCap(0, e); room != 10 {
		t.Fatalf("edge share = %v, want 10 (30/3)", room)
	}
	b.SetCapacity(0, 15)
	b.Refill()
	if room := b.arrivalCap(0, e); room != 5 {
		t.Fatalf("edge share = %v after brownout+refill, want 5 (15/3)", room)
	}
	// Restore, then carve a control reserve: shares track (1-frac).
	b.SetCapacity(0, 30)
	b.ReserveControl(0.5)
	b.Refill()
	if room := b.arrivalCap(0, e); room != 5 {
		t.Fatalf("edge share = %v after 50%% reserve, want 5 (15/3)", room)
	}
}
