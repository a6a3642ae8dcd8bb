package flood

import (
	"math"
	"math/rand"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/topology"
)

// A sub-1.0 per-tick allowance used to be discarded whole at every
// Refill: Remaining reset to PerTick < 1, the discrete flood path's
// arrivalCap >= 1 test never passed, and the peer starved forever.
// With fractional accumulation a 0.5/tick peer admits exactly one
// query every second tick.
func TestBudgetFractionalAccumulation(t *testing.T) {
	b := NewBudget(2, 0.5)
	// NewBudget seeds Remaining = PerTick = 0.5; the first refill tops
	// it up to the 1-token cap.
	admitted := 0
	for tick := 0; tick < 20; tick++ {
		b.Refill()
		if cap := b.arrivalCap(0, 0); cap >= 1 {
			b.take(0, 0, 1)
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("0.5/tick peer admitted %d of 20 ticks, want 10", admitted)
	}
	// The accumulator clamps at one whole token: an idle frac peer
	// does not bank unbounded credit.
	for tick := 0; tick < 50; tick++ {
		b.Refill()
	}
	if got := b.remaining[1]; got != 1 {
		t.Fatalf("idle frac peer banked %v tokens, want cap 1", got)
	}
}

// An allowance of >= 1 token/tick must keep the exact historical
// semantics: leftovers are discarded, Remaining == PerTick after every
// Refill, bit for bit.
func TestBudgetWholeTokenRefillUnchanged(t *testing.T) {
	b := NewBudget(3, 16.7)
	for tick := 0; tick < 5; tick++ {
		b.Refill()
		b.take(1, 0, 3.25)
	}
	b.Refill()
	for i := range b.remaining {
		if b.remaining[i] != 16.7 {
			t.Fatalf("peer %d: Remaining = %v after refill, want exactly 16.7", i, b.remaining[i])
		}
	}
}

// SetCapacity to a sub-1.0 rate mid-run moves the peer onto the
// accumulating path; restoring a whole-token rate moves it back off.
func TestBudgetFracMembershipFollowsSetCapacity(t *testing.T) {
	b := NewBudget(1, 10)
	b.Refill()
	b.SetCapacity(0, 0.25)
	for tick := 0; tick < 3; tick++ {
		b.Refill()
	}
	// 3 refills * 0.25 accrued on top of the clamped 0.25 remaining,
	// capped at 1.
	if got := b.remaining[0]; got != 1 {
		t.Fatalf("after 3 frac refills Remaining = %v, want 1", got)
	}
	b.SetCapacity(0, 10)
	b.Refill()
	if got := b.remaining[0]; got != 10 {
		t.Fatalf("restored peer Remaining = %v, want 10", got)
	}
	b.Refill()
	if got := b.remaining[0]; got != 10 {
		t.Fatalf("restored peer stopped accumulating? Remaining = %v, want 10", got)
	}
}

// Fair-share edge shares below one token accumulate the same way, so
// a high-degree slow peer still accepts arrivals on every link
// eventually instead of starving all of them.
func TestBudgetFairShareFractionalEdges(t *testing.T) {
	// Star: hub 0, leaves 1..8.
	tb := topology.NewBuilder(9)
	for i := topology.NodeID(1); i < 9; i++ {
		if err := tb.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	ov := overlay.New(tb.Build())
	b := NewBudget(9, 4) // hub share: 4/8 = 0.5 per edge
	b.EnableFairShare(ov)
	// Arrival budget into the hub over the link from leaf 1 is tracked
	// on the directed edge leaf->hub (the reverse of the hub's own
	// edge), which is leaf 1's 0th edge.
	arrival := ov.EdgeID(1, 0)
	admitted := 0
	for tick := 0; tick < 20; tick++ {
		b.Refill()
		if b.arrivalCap(0, arrival) >= 1 {
			b.take(0, arrival, 1)
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("0.5/tick edge admitted %d of 20 ticks, want 10", admitted)
	}
}

// Refill must be observationally identical to a plain reference that
// applies the per-peer rules to every peer every tick and captures each
// peer's utilization eagerly at Refill: drive the reference and the real
// one through the same random schedule of takes, SetCapacity and
// ReserveControl calls, and after every operation compare every peer's
// remaining tokens, arrival cap and Utilization. A SetCapacity is read
// in the tick it lands in, so Utilization must keep dividing the ended
// tick's leftover by the allowance that tick ran under. floor must
// bound every remaining cell from below, and equal their minimum right
// after Refill.
func TestBudgetRefillMatchesReference(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	real := NewBudget(n, 12)

	// Reference: whole-token refill plus the sub-1.0 accumulation
	// rule, applied to every peer every tick.
	refRemaining := make([]float64, n)
	refPerTick := make([]float64, n)
	refPrevUtil := make([]float64, n)
	for i := range refRemaining {
		refRemaining[i] = 12
		refPerTick[i] = 12
	}
	refUtilNow := func(i int) float64 {
		if refPerTick[i] <= 0 {
			return 0
		}
		u := 1 - refRemaining[i]/refPerTick[i]
		if u < 0 {
			return 0
		}
		if u > 1 {
			return 1
		}
		return u
	}
	refRefill := func() float64 {
		floor := math.Inf(1)
		for i := range refRemaining {
			refPrevUtil[i] = refUtilNow(i)
			p := refPerTick[i]
			if p > 0 && p < 1 {
				if r := refRemaining[i] + p; r < 1 {
					refRemaining[i] = r
				} else {
					refRemaining[i] = 1
				}
			} else {
				refRemaining[i] = p
			}
			floor = min(floor, refRemaining[i])
		}
		return floor
	}
	check := func(tick int, op string) {
		t.Helper()
		for i := 0; i < n; i++ {
			v := PeerID(i)
			if real.remaining[i] != refRemaining[i] {
				t.Fatalf("tick %d after %s, peer %d: remaining %v != ref %v", tick, op, i, real.remaining[i], refRemaining[i])
			}
			if got, want := real.arrivalCap(v, 0), max(refRemaining[i], 0); got != want {
				t.Fatalf("tick %d after %s, peer %d: arrivalCap %v != ref %v", tick, op, i, got, want)
			}
			ru := refUtilNow(i)
			if refPrevUtil[i] > ru {
				ru = refPrevUtil[i]
			}
			if got := real.Utilization(v); got != ru {
				t.Fatalf("tick %d after %s, peer %d: Utilization %v != ref %v", tick, op, i, got, ru)
			}
			if !(real.floor <= real.remaining[i]) {
				t.Fatalf("tick %d after %s, peer %d: floor %v above remaining %v", tick, op, i, real.floor, real.remaining[i])
			}
		}
	}
	allowances := []float64{0, 0.5, 3, 12}
	setCapacity := func(tick int) {
		v := PeerID(rng.Intn(n))
		c := allowances[rng.Intn(len(allowances))]
		real.SetCapacity(v, c)
		refPerTick[v] = c
		if refRemaining[v] > c {
			refRemaining[v] = c
		}
		check(tick, "SetCapacity")
	}

	for tick := 0; tick < 400; tick++ {
		real.Refill()
		floor := refRefill()
		check(tick, "Refill")
		if real.floor != floor {
			t.Fatalf("tick %d: floor %v after Refill, want the minimum %v", tick, real.floor, floor)
		}
		// A brownout lands right after the refill, before any take.
		if tick%11 == 0 {
			setCapacity(tick)
		}
		// Random takes; a few peers drained hard, most untouched.
		for k := 0; k < 10; k++ {
			v := PeerID(rng.Intn(n))
			amt := rng.Float64() * 8
			real.take(v, 0, amt)
			if r := refRemaining[v] - amt; r > 0 {
				refRemaining[v] = r
			} else {
				refRemaining[v] = 0
			}
			check(tick, "take")
			// Capacity churn between takes, read in the same tick.
			if rng.Intn(8) == 0 {
				setCapacity(tick)
			}
		}
		// A control reserve now and then, also mid-tick.
		if tick%97 == 50 {
			real.ReserveControl(0.25)
			for i := range refPerTick {
				refPerTick[i] *= 0.75
				if refRemaining[i] > refPerTick[i] {
					refRemaining[i] = refPerTick[i]
				}
			}
			check(tick, "ReserveControl")
		}
	}
}
