// Package overload is the overload-resilience control plane shared by
// the live TCP node (internal/gnet) and the simulator (internal/sim).
//
// DD-POLICE's premise is that detection keeps running *while the
// overlay is being flooded*: the per-minute Out_query/In_query
// counters, the neighbor-list exchange and the Neighbor_Traffic rounds
// of §2-3 are exactly the messages a saturated node must still deliver
// when a flood has filled every queue. A node that sheds messages
// indiscriminately at saturation therefore sheds its own defense first
// (the Fig 5-6 regime: at 2x offered-over-capacity, half of *all*
// traffic is dropped, control included).
//
// The package provides three building blocks, each a small
// deterministic state machine with no clock and no goroutines, so the
// callers decide when windows close and the same inputs always yield
// the same transitions:
//
//   - Shedder: high/low watermark hysteresis over a bounded queue
//     depth. The query plane sheds when its queue crosses the high
//     watermark and keeps shedding until it drains below the low one;
//     the control plane only sheds when its (separate, shallow) queue
//     is actually full — the "last resort".
//   - Breaker: a per-peer quarantine circuit breaker. A peer whose
//     inbound query rate trips the warning threshold for enough
//     consecutive windows is quarantined — its queries are throttled
//     to a trickle while control traffic keeps flowing — and recovers
//     through a deterministic half-open probe window instead of being
//     stalled or cut outright.
//   - Detector: node-level degraded-mode detection. When the shed
//     fraction of a window crosses the threshold the node is marked
//     degraded (journaled by the caller), so detection latency under
//     overload is attributable to saturation rather than to the
//     indicators.
//
// SimPlane mirrors the same class-split budget in the simulator's
// fluid model (internal/sim wiring): a capacity fraction is reserved
// for the control plane, which bounds the control-message loss rate a
// saturated overlay can inflict, while the query plane sees the
// remaining capacity and sheds accordingly.
package overload

import "fmt"

// Class buckets messages for admission and backpressure. The split
// follows the paper's message taxonomy: the control plane carries
// everything detection depends on (Neighbor_Traffic, neighbor lists,
// handshake-adjacent Ping/Pong and the orderly Bye); the query plane
// carries the flood (Query/QueryHit) — the traffic an attacker can
// inflate without bound.
type Class uint8

// Message classes.
const (
	// ClassControl: NT, neighbor-list, Ping/Pong, Bye — sparse but
	// load-bearing; shed only as a last resort.
	ClassControl Class = iota
	// ClassQuery: Query and QueryHit — bulk flood traffic; shed first.
	ClassQuery
)

// String names the class for telemetry and journal details.
func (c Class) String() string {
	if c == ClassControl {
		return "control"
	}
	return "query"
}

// Config parameterizes one node's overload plane. The zero value is
// not usable directly; call WithDefaults (or start from
// DefaultConfig) so unset fields get their documented defaults.
type Config struct {
	// QueryQueueDepth bounds the per-peer outbound query queue
	// (default 256, the historical single-queue depth).
	QueryQueueDepth int
	// ControlQueueDepth bounds the per-peer outbound control queue
	// (default 64). Control traffic is sparse; a shallow dedicated
	// queue keeps its worst-case latency small.
	ControlQueueDepth int
	// HighWatermark is the query-queue fill fraction above which query
	// sends start shedding (default 0.75).
	HighWatermark float64
	// LowWatermark is the fill fraction below which shedding stops
	// (default 0.5). The hysteresis band prevents shed/send flapping
	// at the boundary.
	LowWatermark float64

	// TripThreshold is the per-window inbound query count from one
	// peer that counts as a strike (default 500, the paper's warning
	// threshold).
	TripThreshold float64
	// TripWindows is how many consecutive strikes quarantine the peer
	// (default 2: a single hot window may be a legitimate burst).
	TripWindows int
	// QuarantineWindows is how many windows a quarantined peer stays
	// throttled before the breaker half-opens for a probe (default 3).
	QuarantineWindows int
	// ProbeAdmit is the per-window query allowance of a quarantined or
	// probing peer (default 100, the paper's q0 — a good peer's
	// legitimate traffic fits through the throttle).
	ProbeAdmit float64

	// DegradedShedFrac is the per-window shed fraction at which the
	// node marks itself degraded (default 0.5); it exits degraded mode
	// below half that (hysteresis).
	DegradedShedFrac float64

	// ControlReserveFrac of processing capacity is reserved for the
	// control plane (default 0.05); queries are admitted against the
	// remainder and can never starve it. Mirrors SimPlane's field of
	// the same name so the live node and the simulator split capacity
	// identically.
	ControlReserveFrac float64
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		QueryQueueDepth:   256,
		ControlQueueDepth: 64,
		HighWatermark:     0.75,
		LowWatermark:      0.5,
		TripThreshold:     500,
		TripWindows:       2,
		QuarantineWindows: 3,
		ProbeAdmit:        100,
		DegradedShedFrac:  0.5,

		ControlReserveFrac: 0.05,
	}
}

// WithDefaults fills unset (zero) fields with their defaults and
// returns the completed config.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.QueryQueueDepth <= 0 {
		c.QueryQueueDepth = d.QueryQueueDepth
	}
	if c.ControlQueueDepth <= 0 {
		c.ControlQueueDepth = d.ControlQueueDepth
	}
	if c.HighWatermark <= 0 {
		c.HighWatermark = d.HighWatermark
	}
	if c.LowWatermark <= 0 {
		c.LowWatermark = d.LowWatermark
	}
	if c.TripThreshold <= 0 {
		c.TripThreshold = d.TripThreshold
	}
	if c.TripWindows <= 0 {
		c.TripWindows = d.TripWindows
	}
	if c.QuarantineWindows <= 0 {
		c.QuarantineWindows = d.QuarantineWindows
	}
	if c.ProbeAdmit <= 0 {
		c.ProbeAdmit = d.ProbeAdmit
	}
	if c.DegradedShedFrac <= 0 {
		c.DegradedShedFrac = d.DegradedShedFrac
	}
	if c.ControlReserveFrac <= 0 {
		c.ControlReserveFrac = d.ControlReserveFrac
	}
	return c
}

// Validate reports configuration errors on a defaults-completed config.
// The float comparisons are written so that NaN fails them too
// (WithDefaults keeps a NaN: it is not <= 0).
func (c Config) Validate() error {
	if !(c.LowWatermark < c.HighWatermark) {
		return fmt.Errorf("overload: LowWatermark %v, HighWatermark %v (want low < high)", c.LowWatermark, c.HighWatermark)
	}
	if !(c.HighWatermark <= 1) {
		return fmt.Errorf("overload: HighWatermark %v (want <= 1)", c.HighWatermark)
	}
	if !(c.ProbeAdmit > 0) {
		return fmt.Errorf("overload: ProbeAdmit %v (want > 0)", c.ProbeAdmit)
	}
	if !(c.DegradedShedFrac <= 1) {
		return fmt.Errorf("overload: DegradedShedFrac %v (want <= 1)", c.DegradedShedFrac)
	}
	if !(c.ControlReserveFrac < 1) {
		return fmt.Errorf("overload: ControlReserveFrac %v (want < 1)", c.ControlReserveFrac)
	}
	return nil
}

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

// BreakerState is one quarantine circuit breaker position.
type BreakerState uint8

// Breaker states.
const (
	// StateClosed: the peer is in good standing; queries flow freely.
	StateClosed BreakerState = iota
	// StateQuarantined: the breaker is open; the peer's queries are
	// throttled to ProbeAdmit per window while control still flows.
	StateQuarantined
	// StateProbing: half-open; one window's worth of throttled
	// admission decides between restore and re-quarantine.
	StateProbing
)

// String names the state for journal details and logs.
func (s BreakerState) String() string {
	switch s {
	case StateQuarantined:
		return "quarantined"
	case StateProbing:
		return "probing"
	default:
		return "closed"
	}
}

// BreakerEvent is the transition (if any) a window close produced.
type BreakerEvent uint8

// Breaker transitions reported by CloseWindow.
const (
	// EventNone: no state change this window.
	EventNone BreakerEvent = iota
	// EventQuarantine: the strike count reached TripWindows (or a
	// probe failed) and the peer entered quarantine.
	EventQuarantine
	// EventProbe: the quarantine term elapsed; the breaker half-opened.
	EventProbe
	// EventRestore: the probe window stayed under the trip threshold;
	// the peer returned to good standing.
	EventRestore
)

// String names the event for journal details.
func (e BreakerEvent) String() string {
	switch e {
	case EventQuarantine:
		return "quarantine"
	case EventProbe:
		return "probe"
	case EventRestore:
		return "restore"
	default:
		return "none"
	}
}

// Breaker is one peer's quarantine circuit breaker. All methods are
// deterministic functions of the call sequence; the owner (gnet's run
// loop) serializes access.
type Breaker struct {
	cfg      Config
	state    BreakerState
	strikes  int     // consecutive hot windows while closed
	served   int     // windows spent in the current quarantine term
	admitted float64 // queries admitted in the current window
}

// NewBreaker returns a closed breaker under cfg (defaults-completed).
func NewBreaker(cfg Config) *Breaker {
	return &Breaker{cfg: cfg}
}

// State returns the current breaker position.
func (b *Breaker) State() BreakerState { return b.state }

// Admit decides one inbound query's fate. Closed peers are always
// admitted; quarantined and probing peers get ProbeAdmit queries per
// window and shed the rest.
func (b *Breaker) Admit() bool {
	if b.state == StateClosed {
		return true
	}
	if b.admitted < b.cfg.ProbeAdmit {
		b.admitted++
		return true
	}
	return false
}

// CloseWindow rolls the breaker's window with the peer's *offered*
// inbound query count (admitted or not — a throttled flooder that
// keeps flooding must not pass its probe) and returns the transition
// taken, if any.
func (b *Breaker) CloseWindow(offered float64) BreakerEvent {
	b.admitted = 0
	switch b.state {
	case StateClosed:
		if offered > b.cfg.TripThreshold {
			b.strikes++
			if b.strikes >= b.cfg.TripWindows {
				b.state = StateQuarantined
				b.served = 0
				return EventQuarantine
			}
		} else {
			b.strikes = 0
		}
	case StateQuarantined:
		b.served++
		if b.served >= b.cfg.QuarantineWindows {
			b.state = StateProbing
			return EventProbe
		}
	case StateProbing:
		if offered > b.cfg.TripThreshold {
			b.state = StateQuarantined
			b.served = 0
			return EventQuarantine
		}
		b.state = StateClosed
		b.strikes = 0
		return EventRestore
	}
	return EventNone
}

// Detector tracks node-level degraded mode from per-window shed
// fractions, with enter-at-threshold / exit-at-half-threshold
// hysteresis. The owner journals the transitions it reports.
type Detector struct {
	cfg      Config
	degraded bool
}

// NewDetector returns a healthy detector under cfg (defaults-completed).
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg}
}

// Degraded reports the current mode.
func (d *Detector) Degraded() bool { return d.degraded }

// CloseWindow rolls one window with its shed and handled message
// counts and reports whether the mode changed (the new mode is read
// with Degraded).
func (d *Detector) CloseWindow(shed, handled float64) (changed bool) {
	total := shed + handled
	if total <= 0 {
		// An idle window carries no load signal; a degraded node with
		// no traffic at all has nothing left to shed and recovers.
		if d.degraded {
			d.degraded = false
			return true
		}
		return false
	}
	frac := shed / total
	if d.degraded {
		if frac < d.cfg.DegradedShedFrac/2 {
			d.degraded = false
			return true
		}
	} else if frac >= d.cfg.DegradedShedFrac {
		d.degraded = true
		return true
	}
	return false
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
	// DegradedLossThreshold is the query-plane drop fraction at which
	// a minute is journaled as degraded (default 0.5).
	DegradedLossThreshold float64
}

// DefaultSimPlane returns the documented defaults.
func DefaultSimPlane() SimPlane {
	return SimPlane{
		ControlReserveFrac:    0.05,
		ControlLossCap:        0.05,
		DegradedLossThreshold: 0.5,
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
	if p.DegradedLossThreshold <= 0 {
		p.DegradedLossThreshold = d.DegradedLossThreshold
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
	if !(p.DegradedLossThreshold <= 1) {
		return fmt.Errorf("overload: DegradedLossThreshold = %v (want <= 1)", p.DegradedLossThreshold)
	}
	return nil
}
