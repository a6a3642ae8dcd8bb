// Package faults is the simulator's fault schedule (internal/sim).
//
// DD-POLICE's premise is surviving hostile, lossy overlays: §3.3
// prescribes timeout-as-zero for missing Neighbor_Traffic replies and
// §3.5 studies detection under heavy churn. Evaluating that claim
// requires injecting the failures on purpose — and reproducibly, so a
// run that exposes a bug can be replayed. A Schedule is plain data: the
// simulator applies it by virtual-time tick, and its loss draws come from
// the run's seeded source.
//
// The live node's protocol is tested under faults on the virtual-time
// mesh instead (internal/gnet/core/vnet): its Drop hook loses or
// partitions frames by sender, receiver and payload type.
package faults

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

// Schedule is the simulator's fault plan: a fixed control-message
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
