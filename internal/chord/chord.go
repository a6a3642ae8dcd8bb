// Package chord implements a compact Chord-style structured overlay —
// the paper's §5 future work ("studying overlay DDoS in structured P2P
// systems [40]"). Where unstructured flooding amplifies each bogus
// query by the flood-ball size, a DHT lookup costs O(log n) hops, so
// the same agent generation rate buys an attacker orders of magnitude
// less damage. The Ring here is simulation-grade: finger tables are
// computed from the membership directly (no join/stabilize protocol),
// and lookups are routed hop by hop through capacity-limited nodes.
// Every node stays online, so routing needs no successor lists; churn
// on the ring would come with a Chord scenario family beyond
// -fig structured.
package chord

import (
	"fmt"
	"slices"

	"ddpolice/internal/rng"
)

// NodeID is a position on the 64-bit identifier ring.
type NodeID uint64

// Ring is a static Chord ring over n nodes. A node's external index is
// its position on the ring: ids ascend with it.
type Ring struct {
	ids     []NodeID
	fingers [][64]int32 // position of the successor of id + 2^b
	perMin  []float64   // remaining capacity tokens per tick
	perTick float64

	// Stats.
	lookups  uint64
	failures uint64
	hopTotal uint64
	drops    uint64
}

// New builds a ring of n nodes with deterministic random identifiers,
// each processing capacityPerMin lookups a minute (the unstructured
// simulator's per-peer capacity).
func New(n int, capacityPerMin float64, src *rng.Source) (*Ring, error) {
	if n < 2 {
		return nil, fmt.Errorf("chord: ring size %d", n)
	}
	if capacityPerMin <= 0 {
		return nil, fmt.Errorf("chord: capacity %v", capacityPerMin)
	}
	r := &Ring{perTick: capacityPerMin / 60}
	seen := make(map[NodeID]bool, n)
	for len(r.ids) < n {
		id := NodeID(src.Uint64())
		if seen[id] {
			continue
		}
		seen[id] = true
		r.ids = append(r.ids, id)
	}
	slices.Sort(r.ids)
	r.fingers = make([][64]int32, n)
	r.perMin = make([]float64, n)
	for i, id := range r.ids {
		for b := range r.fingers[i] {
			r.fingers[i][b] = int32(r.successorOf(id + NodeID(1)<<b))
		}
		r.perMin[i] = r.perTick
	}
	return r, nil
}

// successorOf returns the position of the first node with id >= target
// (wrapping).
func (r *Ring) successorOf(target NodeID) int {
	pos, _ := slices.BinarySearch(r.ids, target)
	if pos == len(r.ids) {
		return 0
	}
	return pos
}

// Tick refills every node's per-tick lookup budget.
func (r *Ring) Tick() {
	for i := range r.perMin {
		r.perMin[i] = r.perTick
	}
}

// LookupResult reports one routed lookup.
type LookupResult struct {
	OK    bool
	Hops  int
	Owner int // the responsible node (valid when OK)
}

// Lookup routes a key from origin to the key's successor, consuming one
// capacity token per intermediate node. It fails when a node on the
// path is saturated.
func (r *Ring) Lookup(origin int, key NodeID) LookupResult {
	r.lookups++
	cur := origin
	owner := r.successorOf(key)
	hops := 0
	for cur != owner {
		cur = r.nextHop(cur, r.ids[owner])
		hops++
		if hops > 2*len(r.ids) {
			r.failures++ // routing loop guard; cannot happen with sane tables
			return LookupResult{Hops: hops}
		}
		// The hop consumes processing capacity; a saturated node drops
		// the lookup (the DDoS damage mechanism).
		if r.perMin[cur] < 1 {
			r.drops++
			r.failures++
			return LookupResult{Hops: hops}
		}
		r.perMin[cur]--
	}
	r.hopTotal += uint64(hops)
	return LookupResult{OK: true, Hops: hops, Owner: cur}
}

// nextHop picks cur's closest finger preceding target, the owner's id:
// the most progress without overshooting. Finger 0 is the next node,
// which never overshoots, so there always is one.
func (r *Ring) nextHop(cur int, target NodeID) int {
	id := r.ids[cur]
	bestDist := target - id // distances are clockwise: unsigned, wrapping
	for b := 63; b > 0; b-- {
		f := int(r.fingers[cur][b])
		if d := r.ids[f] - id; d > 0 && d <= bestDist {
			return f
		}
	}
	return int(r.fingers[cur][0])
}

// Stats summarizes routed lookups.
type Stats struct {
	Lookups  uint64
	Failures uint64
	Drops    uint64 // failures caused by saturated nodes
	MeanHops float64
}

// Stats returns cumulative counters.
func (r *Ring) Stats() Stats {
	st := Stats{Lookups: r.lookups, Failures: r.failures, Drops: r.drops}
	if ok := r.lookups - r.failures; ok > 0 {
		st.MeanHops = float64(r.hopTotal) / float64(ok)
	}
	return st
}
