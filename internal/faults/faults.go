// Package faults is the deterministic fault-injection plane shared by
// the live TCP node (internal/gnet) and the simulator (internal/sim).
//
// DD-POLICE's premise is surviving hostile, lossy overlays: §3.3
// prescribes timeout-as-zero for missing Neighbor_Traffic replies and
// §3.5 studies detection under heavy churn. Evaluating that claim
// requires injecting the failures on purpose — and reproducibly, so a
// chaos run that exposes a bug can be replayed. Everything here is
// seeded through internal/rng; the same seed and call sequence yields
// the same fault schedule.
//
// Two consumers, two shapes:
//
//   - Plan drives the live node: per-message-class drop / delay /
//     duplicate / reset probabilities plus named partition sets, applied
//     by the Conn wrapper (conn.go) on every outbound frame.
//   - Schedule drives the simulator: a control-message loss floor,
//     virtual-time partition/heal events, and the crash fraction for
//     churn departures.
//
// A nil *Plan is fully inert — every method no-ops and Wrap returns the
// underlying connection untouched — so "faults disabled" costs a nil
// check and nothing else, the same contract internal/telemetry follows.
package faults

import (
	"sync"
	"time"

	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
)

// Class buckets wire messages for fault matching: floods and control
// traffic fail differently in practice (bulk query traffic rides
// saturated links; DD-POLICE control messages are sparse but
// load-bearing), so rules target them separately.
type Class uint8

// Message classes.
const (
	// ClassQuery is the flood plane: Query and QueryHit frames.
	ClassQuery Class = iota
	// ClassControl is the DD-POLICE control plane: Neighbor_List and
	// Neighbor_Traffic frames.
	ClassControl
	// ClassOther covers everything else (Ping/Pong/Bye, unframed bytes).
	ClassOther
	numClasses
)

// Rule is one class's fault probabilities. Zero value = no faults.
type Rule struct {
	// Drop is the probability an outbound frame is silently discarded.
	Drop float64
	// Duplicate is the probability a frame is sent twice.
	Duplicate float64
	// Reset is the probability the connection is torn down (hard TCP
	// reset) instead of delivering the frame.
	Reset float64
	// Delay stalls the frame before delivery; Jitter adds a uniform
	// random extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
}

// Verdict is one frame's fate, drawn from the matching Rule.
type Verdict struct {
	Drop      bool
	Duplicate bool
	Reset     bool
	Delay     time.Duration
}

// Plan is a mutable, seeded fault schedule for live connections. All
// methods are safe for concurrent use (write pumps of many peers share
// one plan) and no-op on a nil receiver.
type Plan struct {
	mu         sync.Mutex
	src        *rng.Source
	rules      [numClasses]Rule
	partitions []map[int32]struct{}

	tel planTelemetry
}

// planTelemetry holds the plan's injection counters; nil fields (no
// registry attached) make recording a no-op.
type planTelemetry struct {
	drops   *telemetry.Counter
	dups    *telemetry.Counter
	resets  *telemetry.Counter
	delays  *telemetry.Counter
	blocked *telemetry.Counter
}

// NewPlan returns an empty plan whose verdict draws are seeded by seed.
func NewPlan(seed uint64) *Plan {
	return &Plan{src: rng.New(seed)}
}

// AttachTelemetry routes injection counts into reg under the "faults."
// prefix: injected_drops, injected_dups, injected_resets,
// injected_delays, partition_blocked.
func (p *Plan) AttachTelemetry(reg *telemetry.Registry) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tel = planTelemetry{
		drops:   reg.Counter("faults.injected_drops"),
		dups:    reg.Counter("faults.injected_dups"),
		resets:  reg.Counter("faults.injected_resets"),
		delays:  reg.Counter("faults.injected_delays"),
		blocked: reg.Counter("faults.partition_blocked"),
	}
}

// SetRule installs r for one message class, replacing the previous rule.
func (p *Plan) SetRule(c Class, r Rule) {
	if p == nil || c >= numClasses {
		return
	}
	p.mu.Lock()
	p.rules[c] = r
	p.mu.Unlock()
}

// SetAll installs r for every message class.
func (p *Plan) SetAll(r Rule) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for c := range p.rules {
		p.rules[c] = r
	}
	p.mu.Unlock()
}

// Partition isolates the given node IDs from the rest of the overlay:
// frames between a member and a non-member are blocked in both
// directions until Heal. Multiple partitions may be active at once.
func (p *Plan) Partition(ids ...int32) {
	if p == nil || len(ids) == 0 {
		return
	}
	set := make(map[int32]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	p.mu.Lock()
	p.partitions = append(p.partitions, set)
	p.mu.Unlock()
}

// Heal removes every active partition.
func (p *Plan) Heal() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.partitions = nil
	p.mu.Unlock()
}

// Blocked reports whether a frame from a to b crosses an active
// partition boundary.
func (p *Plan) Blocked(a, b int32) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, set := range p.partitions {
		_, inA := set[a]
		_, inB := set[b]
		if inA != inB {
			p.tel.blocked.Inc()
			return true
		}
	}
	return false
}

// Decide draws one frame's fate from the class's rule. The zero Verdict
// (deliver untouched) is returned on a nil plan.
func (p *Plan) Decide(c Class) Verdict {
	if p == nil {
		return Verdict{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c >= numClasses {
		c = ClassOther
	}
	r := p.rules[c]
	var v Verdict
	if r.Reset > 0 && p.src.Bool(r.Reset) {
		v.Reset = true
		p.tel.resets.Inc()
		return v
	}
	if r.Drop > 0 && p.src.Bool(r.Drop) {
		v.Drop = true
		p.tel.drops.Inc()
		return v
	}
	if r.Duplicate > 0 && p.src.Bool(r.Duplicate) {
		v.Duplicate = true
		p.tel.dups.Inc()
	}
	if r.Delay > 0 || r.Jitter > 0 {
		v.Delay = r.Delay
		if r.Jitter > 0 {
			v.Delay += time.Duration(p.src.Float64() * float64(r.Jitter))
		}
		p.tel.delays.Inc()
	}
	return v
}

// PartitionEvent isolates Peers from the rest of the simulated overlay
// between StartSec (inclusive) and EndSec (exclusive) of virtual time.
type PartitionEvent struct {
	StartSec int
	EndSec   int
	Peers    []int
}

// OverloadEvent browns out the listed peers' processing capacity
// between StartSec (inclusive) and EndSec (exclusive): each peer's
// per-tick query budget is scaled by Factor (0 = total brownout, 0.5 =
// half capacity) and restored at EndSec. Two events that brown out
// the same peer over intersecting windows are rejected by
// sim.Config.Validate: the earlier end would restore full capacity
// mid-way through the later event.
type OverloadEvent struct {
	StartSec int
	EndSec   int
	Peers    []int
	Factor   float64
}

// Schedule is the simulator-facing fault plan: a fixed control-message
// loss floor (added to the congestion-derived loss each minute),
// timed partition/heal events, and timed capacity brownouts.
// Crash-vs-graceful departures are configured on overlay.ChurnConfig
// (CrashFraction), which the simulator composes with this schedule.
type Schedule struct {
	// ControlLoss is an unconditional loss probability applied to every
	// DD-POLICE control message, on top of congestion-derived loss.
	ControlLoss float64
	// Partitions are applied and healed by virtual-time tick.
	Partitions []PartitionEvent
	// Overloads are capacity brownouts applied and restored by
	// virtual-time tick.
	Overloads []OverloadEvent
}
