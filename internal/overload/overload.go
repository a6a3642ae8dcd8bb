// Package overload holds the overload plane's two pieces: the live TCP
// node (internal/gnet) runs the Shedder on its send queues, and the
// simulator (internal/sim) mirrors the class-split budget with SimPlane.
//
// DD-POLICE's premise is that detection keeps running *while the
// overlay is being flooded*: the per-minute Out_query/In_query
// counters, the neighbor-list exchange and the Neighbor_Traffic rounds
// of §2-3 are exactly the messages a saturated node must still deliver
// when a flood has filled every queue. A node that sheds messages
// indiscriminately at saturation therefore sheds its own defense first
// (the Fig 5-6 regime: at 2x offered-over-capacity, half of *all*
// traffic is dropped, control included). The plane only protects that
// exchange; what a flooding neighbour earns is DD-POLICE's verdict.
//
//   - Shedder: high/low watermark hysteresis over a bounded queue
//     depth, a deterministic state machine with no clock. The query
//     plane sheds when its queue crosses the high watermark and keeps
//     shedding until it drains below the low one; the control plane
//     only sheds when its (separate, shallow) queue is actually full —
//     the "last resort".
//   - SimPlane: the same class-split budget in the simulator's fluid
//     model. A capacity fraction is reserved for the control plane,
//     which bounds the control-message loss rate a saturated overlay
//     can inflict, while the query plane sees the remaining capacity
//     and sheds accordingly.
//
// Which messages are query-class and which control-class is the
// caller's to say: the live node classes frames by payload type
// (protocol.IsQuery).
package overload

import "fmt"

// Shedder implements high/low watermark hysteresis over a bounded
// queue: once the observed depth crosses the high watermark, ShouldShed
// reports true until the depth drains below the low watermark. Not safe
// for concurrent use; each queue's owner guards its own shedder.
type Shedder struct {
	high, low int
	shedding  bool
}

// NewShedder sizes the watermarks for a queue of the given capacity.
// The high watermark is at least 1 and at least low+1, so a capacity-1
// queue degenerates to shed-when-full.
func NewShedder(capacity int, highFrac, lowFrac float64) Shedder {
	high := int(float64(capacity) * highFrac)
	low := int(float64(capacity) * lowFrac)
	if high < 1 {
		high = 1
	}
	if low >= high {
		low = high - 1
	}
	return Shedder{high: high, low: low}
}

// ShouldShed reports whether a message arriving at the given queue
// depth should be shed, updating the hysteresis state.
func (s *Shedder) ShouldShed(depth int) bool {
	if s.shedding {
		if depth <= s.low {
			s.shedding = false
		}
	} else if depth >= s.high {
		s.shedding = true
	}
	return s.shedding
}

// SimPlane parameterizes the simulator's mirror of the class-split
// budget (internal/sim Config.Overload). The fluid model has no
// per-message queues, so the mirror works at the budget level: a
// capacity fraction is reserved for the control plane — queries flood
// against the remaining (1-frac) capacity and shed more, while
// control-message loss is bounded by the reserve's own (small)
// exhaustion probability.
type SimPlane struct {
	// ControlReserveFrac of each peer's capacity is reserved for
	// control traffic (default 0.05). Query floods see the remainder.
	ControlReserveFrac float64
	// ControlLossCap bounds the congestion-derived control-message
	// loss while the reserve holds (default 0.05: delivery >= 95%).
	// Injected fault-plane loss (faults.Schedule.ControlLoss) still
	// adds on top — the reserve protects against congestion, not
	// against an adversarial network.
	ControlLossCap float64
}

// DefaultSimPlane returns the documented defaults.
func DefaultSimPlane() SimPlane {
	return SimPlane{
		ControlReserveFrac: 0.05,
		ControlLossCap:     0.05,
	}
}

// WithDefaults fills unset (zero) fields with their defaults.
func (p SimPlane) WithDefaults() SimPlane {
	d := DefaultSimPlane()
	if p.ControlReserveFrac <= 0 {
		p.ControlReserveFrac = d.ControlReserveFrac
	}
	if p.ControlLossCap <= 0 {
		p.ControlLossCap = d.ControlLossCap
	}
	return p
}

// Validate reports configuration errors on a defaults-completed plane.
// The comparisons are written so that NaN fails them too.
func (p SimPlane) Validate() error {
	if !(p.ControlReserveFrac < 1) {
		return fmt.Errorf("overload: ControlReserveFrac = %v (want < 1)", p.ControlReserveFrac)
	}
	if !(p.ControlLossCap < 1) {
		return fmt.Errorf("overload: ControlLossCap = %v (want < 1)", p.ControlLossCap)
	}
	return nil
}
