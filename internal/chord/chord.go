// Package chord implements a compact Chord-style structured overlay —
// the paper's §5 future work ("studying overlay DDoS in structured P2P
// systems [40]"). Where unstructured flooding amplifies each bogus
// query by the flood-ball size, a DHT lookup costs O(log n) hops, so
// the same agent generation rate buys an attacker orders of magnitude
// less damage. The Ring here is simulation-grade: finger tables are
// computed from the membership directly (no join/stabilize protocol),
// lookups are routed hop by hop through capacity-limited nodes, and a
// successor list provides the customary resilience to failed hops.
package chord

import (
	"fmt"
	"sort"

	"ddpolice/internal/rng"
)

// NodeID is a position on the 64-bit identifier ring.
type NodeID uint64

// Config parameterizes a ring.
type Config struct {
	// SuccessorListLen is the number of successors each node can fall
	// back to when a finger points at an offline node (Chord's r).
	SuccessorListLen int
	// CapacityPerMin is each node's lookup-processing rate, matching
	// the unstructured simulator's per-peer capacity.
	CapacityPerMin float64
}

// DefaultConfig mirrors the unstructured simulator's operating point.
func DefaultConfig() Config {
	return Config{SuccessorListLen: 8, CapacityPerMin: 1000}
}

// node is one ring participant.
type node struct {
	id      NodeID
	online  bool
	fingers []int // indexes into Ring.nodes, for id + 2^i
	succ    []int // successor list indexes
}

// Ring is a static Chord ring over n nodes.
type Ring struct {
	cfg     Config
	nodes   []node    // sorted by id
	index   []int     // peer p (external index) -> position in nodes
	perMin  []float64 // remaining capacity tokens per tick, by position
	perTick float64

	// Stats.
	lookups  uint64
	failures uint64
	hopTotal uint64
	drops    uint64
}

// New builds a ring of n nodes with deterministic random identifiers.
func New(n int, cfg Config, src *rng.Source) (*Ring, error) {
	if n < 2 {
		return nil, fmt.Errorf("chord: ring size %d", n)
	}
	if cfg.SuccessorListLen < 1 {
		return nil, fmt.Errorf("chord: successor list %d", cfg.SuccessorListLen)
	}
	if cfg.CapacityPerMin <= 0 {
		return nil, fmt.Errorf("chord: capacity %v", cfg.CapacityPerMin)
	}
	r := &Ring{cfg: cfg}
	seen := make(map[NodeID]bool, n)
	for len(r.nodes) < n {
		id := NodeID(src.Uint64())
		if seen[id] {
			continue
		}
		seen[id] = true
		r.nodes = append(r.nodes, node{id: id, online: true})
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].id < r.nodes[j].id })
	r.index = make([]int, n)
	for i := range r.index {
		r.index[i] = i
	}
	r.buildTables()
	r.perTick = cfg.CapacityPerMin / 60
	r.perMin = make([]float64, n)
	for i := range r.perMin {
		r.perMin[i] = r.perTick
	}
	return r, nil
}

// buildTables computes finger tables and successor lists.
func (r *Ring) buildTables() {
	n := len(r.nodes)
	for i := range r.nodes {
		nd := &r.nodes[i]
		nd.fingers = nd.fingers[:0]
		for b := 0; b < 64; b++ {
			target := nd.id + (NodeID(1) << b)
			nd.fingers = append(nd.fingers, r.successorOf(target))
		}
		nd.succ = nd.succ[:0]
		for s := 1; s <= r.cfg.SuccessorListLen && s < n; s++ {
			nd.succ = append(nd.succ, (i+s)%n)
		}
	}
}

// successorOf returns the position of the first node with id >= target
// (wrapping).
func (r *Ring) successorOf(target NodeID) int {
	lo, hi := 0, len(r.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.nodes[mid].id < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.nodes) {
		return 0
	}
	return lo
}

// SetOnline toggles node p (external index).
func (r *Ring) SetOnline(p int, on bool) { r.nodes[r.index[p]].online = on }

// Online reports node p's state.
func (r *Ring) Online(p int) bool { return r.nodes[r.index[p]].online }

// Tick refills every node's per-tick lookup budget.
func (r *Ring) Tick() {
	for i := range r.perMin {
		r.perMin[i] = r.perTick
	}
}

// distance returns the clockwise distance from a to b on the ring.
func distance(a, b NodeID) NodeID { return b - a }

// LookupResult reports one routed lookup.
type LookupResult struct {
	OK    bool
	Hops  int
	Owner int // position of the responsible node (valid when OK)
}

// Lookup routes a key from origin (external index) to the key's
// successor, consuming one capacity token per intermediate node. It
// fails when routing stalls (all candidate hops offline) or a node on
// the path is saturated.
func (r *Ring) Lookup(origin int, key NodeID) LookupResult {
	r.lookups++
	cur := r.index[origin]
	if !r.nodes[cur].online {
		r.failures++
		return LookupResult{}
	}
	ownerPos := r.successorOf(key)
	// Owner may be offline: its first online successor takes over.
	ownerPos, ok := r.firstOnlineFrom(ownerPos)
	if !ok {
		r.failures++
		return LookupResult{}
	}
	owner := r.nodes[ownerPos].id
	hops := 0
	for r.nodes[cur].id != owner {
		next, ok := r.nextHop(cur, key)
		if !ok {
			r.failures++
			return LookupResult{Hops: hops}
		}
		cur = next
		hops++
		if hops > 2*len(r.nodes) {
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

// nextHop picks the closest preceding online finger, falling back to
// the successor list.
func (r *Ring) nextHop(cur int, key NodeID) (int, bool) {
	nd := &r.nodes[cur]
	target := r.nodes[r.successorOf(key)].id
	bestDist := distance(nd.id, target)
	best := -1
	// Closest preceding finger: maximize progress without overshooting.
	for b := 63; b >= 0; b-- {
		f := nd.fingers[b]
		fn := &r.nodes[f]
		if !fn.online || f == cur {
			continue
		}
		d := distance(nd.id, fn.id)
		if d > 0 && d <= bestDist {
			best = f
			break
		}
	}
	if best >= 0 {
		return best, true
	}
	// Fall back to the first online successor.
	for _, s := range nd.succ {
		if r.nodes[s].online {
			return s, true
		}
	}
	return 0, false
}

// firstOnlineFrom scans clockwise for an online node.
func (r *Ring) firstOnlineFrom(pos int) (int, bool) {
	n := len(r.nodes)
	for i := 0; i < n; i++ {
		p := (pos + i) % n
		if r.nodes[p].online {
			return p, true
		}
	}
	return 0, false
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
