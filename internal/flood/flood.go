// Package flood implements Gnutella-style capacity-constrained query
// flooding over the overlay: a query is broadcast and rebroadcast with
// a TTL, peers drop duplicate copies ("a query message will be dropped
// if the query message has visited the peer before", §2.2/[15]), and a
// peer whose processing capacity is exhausted discards queries instead
// of forwarding them — the mechanism by which overlay DDoS degrades the
// system.
//
// Two entry points share one BFS core:
//
//   - FloodQuery floods a single (good-peer) query discretely and
//     reports success against a replica set, hop counts and delay.
//   - FloodBatch floods an attacker's per-tick query volume as one
//     weighted fluid batch: all queries of the batch follow the same
//     first-visit tree, and per-peer capacity clips the surviving
//     weight. This is the fluid limit of flooding N identical-topology
//     queries and lets the simulator handle 20,000 queries/min/agent
//     without per-message events.
//
// The unit of cost is the first visit of a peer by a query copy, and a
// visit writes one 16-byte cell: the flood's epoch, the hop, the BFS
// parent and whether the copy is still alive. Queueing delay is not
// part of a visit. A response is timed only for the nearest responder,
// so scoreHolders walks that one peer's parent chain after the flood
// and sums the per-hop delays then (see pathDelay for why that is the
// same float).
package flood

import (
	"fmt"
	"math"

	"ddpolice/internal/overlay"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
)

// PeerID aliases the overlay peer identifier.
type PeerID = overlay.PeerID

// noParent marks the flood source, which has no inbound edge.
const noParent PeerID = -1

// MaxTTL is the largest TTL a flood accepts: the wire header carries the
// TTL in one byte (protocol.Header.TTL), and the response-delay walk
// sizes its path by it.
const MaxTTL = math.MaxUint8

// cell is one peer's visit state, valid for the flood whose epoch it
// carries: a first visit is one 16-byte store, and scoreHolders' test
// of a replica holder one load.
type cell struct {
	seen   uint32 // epoch mark: the peer received the query
	hop    int32  // first-visit hop count
	parent PeerID // BFS parent
	alive  bool   // the copy was processed here and keeps flooding
}

// Budget tracks the per-tick processing tokens of every peer. The
// simulator refills it each tick from the peers' capacity model.
//
// Refill is one dense pass over every peer (and, in fair-share mode,
// every directed edge). A tick's floods charge most of the overlay, so
// a list of charged peers would save the pass little and cost every
// charge its upkeep; a charge is two clamped subtractions (see take).
// Every write to remaining goes through a method that keeps floor true.
//
// By default tokens are taken first-come-first-served. EnableFairShare
// switches to the related-work baseline the paper contrasts DD-POLICE
// with (Daswani & Garcia-Molina's application-layer load balancing,
// reference [21]): each peer divides its capacity evenly across its
// incoming connections, so one flooding neighbor can only exhaust its
// own share and "clients get a fair share of available resources".
type Budget struct {
	// remaining tokens this tick, indexed by peer.
	remaining []float64
	// perTick is the full refill amount, used for utilization-based
	// queueing delay.
	perTick []float64
	// floor bounds every remaining cell from below: their minimum at
	// Refill, lowered with any cell SetCapacity or ReserveControl lowers
	// and by each flood's largest charge. -Inf until the first Refill and
	// in fair-share mode, whose zero-share inactive edges clip any peer.
	floor float64
	// prevUtil is each peer's utilization over the last completed tick,
	// captured at Refill. Queueing delay uses it because mid-tick
	// utilization systematically understates a tick's true load.
	prevUtil []float64

	// Fair-share mode: per-directed-edge sub-budgets for the receiving
	// endpoint of each edge. edgeRemaining[e] caps what may arrive over
	// e this tick; the peer-level remaining still applies on top.
	// fairVersion keys the shares to the overlay mutation counter:
	// churn and cuts change each peer's active connection count, so the
	// per-connection split is recomputed at the first Refill after any
	// connectivity change (previously the split was sized from the
	// static degree once at enable time, leaving stale shares on
	// rewired links and uncapped budget on links of rejoined peers).
	ov            *overlay.Overlay
	edgeRemaining []float64
	edgePerTick   []float64
	fairVersion   uint64
	// fairDirty forces a share rebuild at the next Refill after a
	// capacity change (ReserveControl, SetCapacity): those move perTick
	// without touching the overlay mutation counter, so version
	// comparison alone would leave the per-edge split stale.
	fairDirty bool
}

// NewBudget allocates a budget for n peers with a uniform per-tick
// token allowance.
func NewBudget(n int, perTick float64) *Budget {
	b := &Budget{
		remaining: make([]float64, n),
		perTick:   make([]float64, n),
		floor:     math.Inf(-1),
		prevUtil:  make([]float64, n),
	}
	for i := range b.remaining {
		b.remaining[i] = perTick
		b.perTick[i] = perTick
	}
	return b
}

// EnableFairShare activates the [21]-style per-connection capacity
// split over ov's edges: the receiver of directed edge u->v accepts at
// most capacity(v)/activeDegree(v) per tick from u. The split follows
// the live overlay: Refill recomputes it whenever the overlay mutation
// counter has moved.
func (b *Budget) EnableFairShare(ov *overlay.Overlay) {
	b.ov = ov
	b.floor = math.Inf(-1)
	b.edgeRemaining = make([]float64, ov.NumDirectedEdges())
	b.edgePerTick = make([]float64, ov.NumDirectedEdges())
	b.rebuildFairShare()
	copy(b.edgeRemaining, b.edgePerTick)
}

// rebuildFairShare recomputes every per-edge arrival share from the
// overlay's current connectivity: capacity(v) divided across v's
// *active* connections (online neighbor, edge not cut). Inactive edges
// get a zero share, so a link that later reactivates is recapped by
// the rebuild its reactivation triggers rather than inheriting stale
// or uncapped budget.
func (b *Budget) rebuildFairShare() {
	b.fairVersion = b.ov.Version()
	for i := range b.edgePerTick {
		b.edgePerTick[i] = 0
	}
	for v := 0; v < b.ov.NumPeers(); v++ {
		_, edges := b.ov.Active(PeerID(v))
		if len(edges) == 0 {
			continue
		}
		share := b.perTick[v] / float64(len(edges))
		for _, e := range edges {
			// e is v->neighbor; the arrival budget for v over that link
			// is tracked on the edge pointing *to* v, its reverse.
			b.edgePerTick[b.ov.Reverse(e)] = share
		}
	}
}

// FairShare reports whether per-connection splitting is active.
func (b *Budget) FairShare() bool { return b.ov != nil }

// ReserveControl carves a control-plane reserve out of every peer's
// budget: the query flood is metered against the remaining (1-frac)
// capacity from the next refill on. The overload plane's simulator
// mirror calls this once at setup; the reserve itself is not modeled
// as tokens here — control traffic is fluid in the sim — but the
// query plane paying for it is what raises query drop rates while
// control loss stays capped.
func (b *Budget) ReserveControl(frac float64) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	for i := range b.perTick {
		b.perTick[i] *= 1 - frac
		if b.remaining[i] > b.perTick[i] {
			b.remaining[i] = b.perTick[i]
		}
		b.floor = min(b.floor, b.remaining[i])
	}
	b.fairDirty = true
}

// SetCapacity replaces peer p's per-tick allowance (negative clamps to
// zero), taking effect immediately on the current tick's remaining
// tokens and on the fair-share split at the next refill. The faults
// plane uses it for capacity brownouts.
func (b *Budget) SetCapacity(p PeerID, perTick float64) {
	if perTick < 0 {
		perTick = 0
	}
	b.perTick[p] = perTick
	if b.remaining[p] > perTick {
		b.remaining[p] = perTick
	}
	b.floor = min(b.floor, b.remaining[p])
	b.fairDirty = true
}

// arrivalCap returns how much may still arrive at v via the directed
// edge e (u->v) this tick, bounded by both the edge share (fair mode)
// and the peer's remaining total. Never negative: a cell that was
// overdrawn (see take) reports zero room, not negative room that would
// push a caller's accepted mass below zero.
func (b *Budget) arrivalCap(v PeerID, e overlay.EdgeID) float64 {
	room := b.remaining[v]
	if b.ov != nil && b.edgeRemaining[e] < room {
		room = b.edgeRemaining[e]
	}
	if room < 0 {
		return 0
	}
	return room
}

// take consumes amount from v's budget for an arrival via edge e,
// clamping at zero. Callers cap amount by arrivalCap first, but a
// precomputed cap can go stale when a same-tick sibling arrival lands
// between the read and the take; without the clamp that drives
// remaining/edgeRemaining negative, and the deficit silently steals
// capacity from the next refill's utilization accounting.
func (b *Budget) take(v PeerID, e overlay.EdgeID, amount float64) {
	if r := b.remaining[v] - amount; r > 0 {
		b.remaining[v] = r
	} else {
		b.remaining[v] = 0
	}
	if b.ov != nil {
		if r := b.edgeRemaining[e] - amount; r > 0 {
			b.edgeRemaining[e] = r
		} else {
			b.edgeRemaining[e] = 0
		}
	}
}

// refillPeer resets v's tokens for the next tick. An allowance of at
// least one token refills exactly (leftovers discarded, the original
// semantics); a sub-1.0 allowance instead accumulates its fractional
// remainder up to one whole token, so a peer granted 0.5 tokens/tick
// admits a query every other tick instead of rounding to zero and
// starving forever (the discrete flood path needs arrivalCap >= 1).
// It returns the refilled tokens.
func (b *Budget) refillPeer(v PeerID) float64 {
	p := b.perTick[v]
	if p > 0 && p < 1 {
		if r := b.remaining[v] + p; r < 1 {
			p = r
		} else {
			p = 1
		}
	}
	b.remaining[v] = p
	return p
}

// edgeRefill is refillPeer for a fair-share arrival edge.
func (b *Budget) edgeRefill(e overlay.EdgeID) {
	p := b.edgePerTick[e]
	if p > 0 && p < 1 {
		if r := b.edgeRemaining[e] + p; r < 1 {
			b.edgeRemaining[e] = r
		} else {
			b.edgeRemaining[e] = 1
		}
		return
	}
	b.edgeRemaining[e] = p
}

// Refill captures every peer's utilization for the ending tick, then
// resets its tokens to the per-tick allowance, in one pass in peer
// order that also takes their minimum as floor. In fair-share mode
// every arrival edge is refilled the same way, unless the overlay or a
// capacity moved since the last Refill, in which case the shares are
// rebuilt and reset whole.
func (b *Budget) Refill() {
	floor := math.Inf(1)
	for i := range b.remaining {
		b.prevUtil[i] = b.utilNow(PeerID(i))
		floor = min(floor, b.refillPeer(PeerID(i)))
	}
	b.floor = floor
	if b.ov != nil {
		b.floor = math.Inf(-1)
		if b.fairDirty || b.fairVersion != b.ov.Version() {
			b.rebuildFairShare()
			copy(b.edgeRemaining, b.edgePerTick)
		} else {
			for e := range b.edgeRemaining {
				b.edgeRefill(overlay.EdgeID(e))
			}
		}
	}
	b.fairDirty = false
}

func (b *Budget) utilNow(p PeerID) float64 {
	full := b.perTick[p]
	if full <= 0 {
		// A zero-capacity peer that processes nothing is idle, not
		// saturated: reporting u=1 here used to charge every flood path
		// through it the maximum queueing delay despite zero traffic.
		return 0
	}
	u := 1 - b.remaining[p]/full
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Utilization returns peer p's load estimate for queueing-delay
// purposes: the larger of the last completed tick's utilization and the
// current tick's consumption so far.
func (b *Budget) Utilization(p PeerID) float64 {
	u := b.utilNow(p)
	if b.prevUtil[p] > u {
		return b.prevUtil[p]
	}
	return u
}

// DelayModel converts a flood path into a response-time estimate using
// an M/M/1-style queueing term per hop:
//
//	hop delay = HopDelay * (1 + min(MaxQueue, QueueFactor * u/(1-u)))
//
// where u is the visited peer's budget utilization.
type DelayModel struct {
	// HopDelay is the base one-way per-hop latency in seconds.
	HopDelay float64
	// QueueFactor scales the queueing term.
	QueueFactor float64
	// MaxQueue clamps the queueing multiplier at saturation.
	MaxQueue float64
}

// DefaultDelayModel returns the calibration used by the experiments:
// 50 ms per overlay hop with M/M/1 queueing inflation clamped at 40x at
// full saturation — calibrated so that the paper's ~100-agent-equivalent
// attack inflates mean response time by its reported ~2.4x.
func DefaultDelayModel() DelayModel {
	return DelayModel{HopDelay: 0.05, QueueFactor: 0.3, MaxQueue: 40}
}

// hopDelay returns the delay contribution of one hop at utilization u.
func (dm DelayModel) hopDelay(u float64) float64 {
	q := 0.0
	if u >= 1 {
		q = dm.MaxQueue
	} else {
		q = dm.QueueFactor * u / (1 - u)
		if q > dm.MaxQueue {
			q = dm.MaxQueue
		}
	}
	return dm.HopDelay * (1 + q)
}

// QueryResult reports one discrete query flood.
type QueryResult struct {
	Processed     int     // peers that processed (looked up + forwarded) the query
	QueryMessages float64 // query copies sent over edges (incl. duplicates)
	DupMessages   float64 // copies discarded as duplicates
	CapacityDrops int     // copies discarded because the receiver was saturated
	Hit           bool    // at least one replica holder processed the query
	HitHolders    int     // number of holders reached
	FirstHitHops  int     // overlay hops to the nearest responder (-1 if no hit)
	HitMessages   float64 // QueryHit messages routed back along reverse paths
	ResponseDelay float64 // seconds until the first response arrives (0 if no hit)
}

// BatchResult reports one fluid batch flood.
type BatchResult struct {
	QueryMessages float64 // total query copies (weighted, incl. duplicates)
	DupMessages   float64
	CapacityDrops float64 // weighted copies dropped at saturated peers
	ProcessedMass float64 // Σ over peers of processed weight
	PeersReached  int     // peers that processed any positive weight
}

// CounterMode selects how the per-edge Q counters (and message totals)
// account for capacity-dropped queries.
type CounterMode int

// Counter accounting modes.
const (
	// CounterIdeal is the paper's measurement plane: a query's flood
	// tree is counted as if every peer forwarded everything it
	// received — the assumption underlying Definitions 2.1-2.3 and the
	// Figure 2 analysis ("we assume ... all the incoming queries are
	// sent out"). Capacity still limits which queries are actually
	// *resolved* (looked up, answered), so success and response time
	// degrade under attack, but the monitoring counters see the
	// idealized flows that make the General/Single indicators sum to
	// issued/q0.
	CounterIdeal CounterMode = iota
	// CounterPhysical counts only what a capacity-limited peer could
	// actually forward. Under network-wide saturation this clips every
	// peer's outflow below the (k-1)*inflow identity and the indicators
	// go negative for attackers and good peers alike — an effect the
	// paper does not model, preserved here for the ablation study.
	CounterPhysical
)

// Engine holds the reusable BFS state for one simulation replica. Not
// safe for concurrent use.
type Engine struct {
	ov   *overlay.Overlay
	mode CounterMode

	// Telemetry event counters (nil until AttachTelemetry; nil-safe).
	// They count BFS events, not fluid weight: one edge traversal per
	// neighbor considered, one suppression per duplicate arrival, one
	// drop per saturated-receiver clip.
	telFloods *telemetry.Counter // floods started (queries + batches)
	telEdges  *telemetry.Counter // edges traversed (query copies put on a link)
	telDups   *telemetry.Counter // duplicate suppressions
	telDrops  *telemetry.Counter // budget (capacity) drop events

	// Latency/shape distributions, recorded per successful query.
	telHitHops *telemetry.Histogram // hops to the nearest responder
	telDelay   *telemetry.Histogram // first-response delay, ms

	// depths tallies discrete query floods by hop depth; nil until
	// AttachTelemetry, so detached it costs a nil check per flood level.
	depths *depthTally

	epoch    uint32
	cells    []cell    // per-peer visit state of the flood numbered epoch
	mass     []float64 // batch mode: surviving (processed) weight at peer
	frontier []PeerID
	next     []PeerID

	// cache is the topology-versioned traversal cache (see cache.go);
	// nil when disabled. accBuf carries per-visit accepted mass from a
	// batch replay's read-only precheck pass to its mutation pass. rec
	// is the scratch tree live floods record into when the build policy
	// asks for one (see resetRec).
	cache  *travCache
	accBuf []float64
	rec    travTree

	// prewarmState is the sharded proposal phase's scratch and
	// counters (see shard.go).
	prewarmState
}

// NewEngine creates a flood engine over ov using the physical counter
// plane (the experiments' default); use SetCounterMode to switch to the
// idealized plane for ablations.
func NewEngine(ov *overlay.Overlay) *Engine {
	n := ov.NumPeers()
	return &Engine{
		ov:    ov,
		mode:  CounterPhysical,
		cells: make([]cell, n),
		mass:  make([]float64, n),
		cache: newTravCache(ov),
	}
}

// SetTraversalCache enables or disables the topology-versioned
// traversal cache. It is on by default; results are byte-identical
// either way, so disabling exists for A/B verification.
func (e *Engine) SetTraversalCache(on bool) {
	if on && e.cache == nil {
		e.cache = newTravCache(e.ov)
	} else if !on {
		e.cache = nil
	}
}

// TraversalCacheEnabled reports whether the traversal cache is active.
func (e *Engine) TraversalCacheEnabled() bool { return e.cache != nil }

// CacheStats returns traversal-cache effectiveness counters (zero
// values when the cache is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	s := e.cache.stats
	s.Trees = len(e.cache.trees)
	return s
}

// AttachTelemetry wires the engine's hot-path event counters into reg
// under the "flood." prefix. A nil registry detaches (counters become
// no-ops again).
func (e *Engine) AttachTelemetry(reg *telemetry.Registry) {
	e.telFloods = reg.Counter("flood.floods")
	e.telEdges = reg.Counter("flood.edges_traversed")
	e.telDups = reg.Counter("flood.dup_suppressed")
	e.telDrops = reg.Counter("flood.budget_drops")
	e.telHitHops = reg.Histogram("flood.hit_hops")
	e.telDelay = reg.Histogram("flood.response_delay_ms")
	e.telPrewarm = reg.Counter("flood.prewarm_trees")
	e.telPrewarmVisits = reg.Counter("flood.prewarm_visits")
	e.depths = nil
	if reg != nil {
		e.depths = &depthTally{reg: reg}
	}
}

// depthTally counts one discrete query flood's processed peers by hop
// depth (n[depth-1]), then flushes each count to the registry counter
// flood.processed_depth_<d> in one Add.
type depthTally struct {
	reg  *telemetry.Registry
	n    [MaxTTL]uint64
	ctrs [MaxTTL]*telemetry.Counter // made when a flood first reaches the depth
}

// flush ends a flood of the given TTL: its counts go to the registry.
func (t *depthTally) flush(ttl int) {
	for d, n := range t.n[:ttl] {
		if n == 0 {
			continue
		}
		if t.ctrs[d] == nil {
			t.ctrs[d] = t.reg.Counter(fmt.Sprintf("flood.processed_depth_%d", d+1))
		}
		t.ctrs[d].Add(n)
		t.n[d] = 0
	}
}

// SetCounterMode switches the counter accounting plane.
func (e *Engine) SetCounterMode(m CounterMode) { e.mode = m }

// Mode returns the current counter accounting plane.
func (e *Engine) Mode() CounterMode { return e.mode }

// bump starts a new flood: it advances the epoch, which invalidates
// every cell at once, and marks src as the root.
func (e *Engine) bump(src PeerID) {
	e.epoch++
	if e.epoch == 0 { // wrapped: clear marks once every 2^32 floods
		clear(e.cells)
		e.epoch = 1
	}
	e.cells[src] = cell{seen: e.epoch, parent: noParent, alive: true}
}

// resetRec clears and returns the engine's scratch recording tree.
// Trees are recorded as a byproduct of the live BFS (there is no
// second, structural pass): the live traversal IS the structural
// first-visit tree whenever every visited peer kept forwarding, and the
// dispatcher clones the scratch into the cache only when that held.
// Recording into a reused scratch keeps the no-store case (saturated
// floods that clip peers) allocation-free.
func (e *Engine) resetRec() *travTree {
	e.rec.nodes = e.rec.nodes[:0]
	e.rec.visits = e.rec.visits[:0]
	e.rec.edgeEvents, e.rec.dupEvents = 0, 0
	return &e.rec
}

// replayQuery re-runs one discrete flood over the cached tree. The
// physical plane splits it into a read-only precheck and a commit. The
// precheck asks whether any cached visit would be capacity-clipped (a
// clipped peer stops forwarding, which would reshape the tree); each
// peer and directed edge is charged at most once per flood, so the
// cells it reads keep their values until their own visit and its answer
// is exact. A failed precheck returns false with no state mutated, and
// the flood falls back to the live BFS. A passed one has proved that
// every cached visit forwards, so the commit charges and marks each
// visit without deciding anything again. The ideal plane has no
// precheck (a clipped peer keeps forwarding for the counters, so the
// tree always holds) and therefore owns the only deciding replay loop.
// Nor does a physical one while budget.floor >= 1 proves no visit can
// clip (negated, so a NaN floor keeps the precheck).
func (e *Engine) replayQuery(tr *travTree, src PeerID, budget *Budget, res *QueryResult) bool {
	if e.mode == CounterPhysical && !(budget.floor >= 1) {
		for i := range tr.visits {
			vt := &tr.visits[i]
			if budget.arrivalCap(vt.v, vt.eid) < 1 {
				tr.replayFailed()
				e.cache.stats.Fallbacks++
				return false
			}
		}
	}
	tr.failStreak = 0
	e.bump(src)
	ep, cells := e.epoch, e.cells
	res.QueryMessages = float64(tr.edgeEvents)
	res.DupMessages = float64(tr.dupEvents)
	e.telEdges.Add(tr.edgeEvents)
	e.telDups.Add(tr.dupEvents)
	// Both loops walk the nodes: each of a node's visits gets the node's
	// peer as parent and the node's hop plus one, which the tree does
	// not store per visit. A node is read once, through a pointer, so
	// its bookkeeping stays out of the per-visit body.
	ov, visits, j := e.ov, tr.visits, int32(0)
	if e.mode == CounterPhysical {
		for n := range tr.nodes {
			nd := &tr.nodes[n]
			c := cell{seen: ep, hop: nd.hop + 1, parent: nd.u, alive: true}
			for end := nd.end; j < end; j++ {
				vt := visits[j]
				ov.AddTraffic(vt.eid, 1)
				cells[vt.v] = c
				budget.take(vt.v, vt.eid, 1)
			}
		}
		if e.depths != nil { // every cached visit was processed, at its node's hop plus one
			k := int32(0)
			for n := range tr.nodes {
				e.depths.n[tr.nodes[n].hop] += uint64(tr.nodes[n].end - k)
				k = tr.nodes[n].end
			}
		}
		res.Processed = len(visits)
		return true
	}
	for n := range tr.nodes {
		nd := &tr.nodes[n]
		u, hop, upstream := nd.u, nd.hop+1, cells[nd.u].alive
		processed := res.Processed
		for end := nd.end; j < end; j++ {
			vt := visits[j]
			ov.AddTraffic(vt.eid, 1)
			alive := e.decide(upstream, vt.v, vt.eid, budget, res)
			cells[vt.v] = cell{seen: ep, hop: hop, parent: u, alive: alive}
		}
		if e.depths != nil {
			e.depths.n[nd.hop] += uint64(res.Processed - processed)
		}
	}
	e.telDrops.Add(uint64(res.CapacityDrops))
	return true
}

// decide settles one first visit of a discrete flood whose outcome is
// not known in advance: a copy whose upstream path died is dead, one
// arriving at a saturated peer is dropped there, and any other is
// charged one token and forwards.
func (e *Engine) decide(upstream bool, v PeerID, eid overlay.EdgeID, budget *Budget, res *QueryResult) bool {
	if !upstream {
		return false
	}
	if budget.arrivalCap(v, eid) < 1 {
		res.CapacityDrops++
		return false
	}
	budget.take(v, eid, 1)
	res.Processed++
	return true
}

// FloodQuery floods one discrete query from src with the given TTL (at
// most MaxTTL). holders is the replica set of the searched object (used
// for success accounting; the issuer itself is not counted as a
// responder). Each processing peer consumes one token from budget. Edge
// traffic counters in the overlay are incremented for every query copy
// sent.
func (e *Engine) FloodQuery(src PeerID, ttl int, holders []topology.NodeID, budget *Budget, dm DelayModel) QueryResult {
	res := QueryResult{FirstHitHops: -1}
	if ttl <= 0 || !e.ov.Online(src) {
		return res
	}
	if ttl > MaxTTL {
		panic("flood: FloodQuery ttl exceeds MaxTTL")
	}
	e.telFloods.Inc()
	e.query(src, ttl, budget, &res)
	if e.depths != nil {
		e.depths.flush(ttl)
	}
	budget.floor-- // the flood charged each peer at most one token
	e.scoreHolders(src, holders, budget, dm, &res)
	return res
}

// query runs FloodQuery's traversal: a replay of the cached tree when
// it holds, else the live BFS, recording the tree when the build policy
// asks for one.
func (e *Engine) query(src PeerID, ttl int, budget *Budget, res *QueryResult) {
	if e.cache != nil {
		e.cache.ensure()
		k := treeKey{src: src, entry: noEntry, ttl: int32(ttl)}
		tr, build := e.cache.lookup(k)
		if tr != nil && e.replayQuery(tr, src, budget, res) {
			e.cache.stats.Hits++
			return
		}
		if tr == nil && build {
			rec := e.resetRec()
			e.liveQuery(src, ttl, budget, res, rec)
			// A capacity-dropped peer stopped forwarding, so in the
			// physical plane a clipped traversal was not structural.
			e.cache.keep(k, rec, e.mode == CounterIdeal || res.CapacityDrops == 0)
			return
		}
	}
	e.liveQuery(src, ttl, budget, res, nil)
}

// liveQuery is the uncached BFS over the overlay's active rows
// (overlay.Active), with or without the cache. A non-nil rec collects
// the first-visit tree in traversal order as it runs.
func (e *Engine) liveQuery(src PeerID, ttl int, budget *Budget, res *QueryResult, rec *travTree) {
	e.bump(src)
	ep, cells := e.epoch, e.cells
	e.frontier = append(e.frontier[:0], src)
	var edges, dups uint64

	for depth := int32(1); int(depth) <= ttl && len(e.frontier) > 0; depth++ {
		e.next = e.next[:0]
		processed := res.Processed
		for _, u := range e.frontier {
			nbrs, eids := e.ov.Active(u)
			cu := cells[u]
			nd := travNode{u: u}
			for k, v := range nbrs {
				if v == cu.parent {
					continue // never send back where it came from
				}
				nd.edges++
				if cells[v].seen == ep {
					// Duplicate copy: wire traffic, but discarded before
					// the Out_query/In_query monitors count it (the
					// paper's no-duplication accounting, Fig 2).
					nd.dups++
					continue
				}
				eid := eids[k]
				if rec != nil {
					rec.visits = append(rec.visits, visit{v: v, eid: eid})
				}
				e.ov.AddTraffic(eid, 1)
				alive := e.decide(cu.alive, v, eid, budget, res)
				cells[v] = cell{seen: ep, hop: depth, parent: u, alive: alive}
				// A copy that died upstream or here stops in the physical
				// plane; in the ideal counter plane the message flow
				// continues for accounting.
				if alive || e.mode == CounterIdeal {
					e.next = append(e.next, v)
				}
			}
			edges += uint64(nd.edges)
			dups += uint64(nd.dups)
			if rec != nil && nd.edges > 0 {
				// Set here, not where nd is made: that cost the BFS ~10 %.
				nd.hop, nd.end = depth-1, int32(len(rec.visits))
				rec.nodes = append(rec.nodes, nd)
			}
		}
		if e.depths != nil {
			e.depths.n[depth-1] += uint64(res.Processed - processed)
		}
		e.frontier, e.next = e.next, e.frontier
	}
	res.QueryMessages = float64(edges)
	res.DupMessages = float64(dups)
	e.telEdges.Add(edges)
	e.telDups.Add(dups)
	e.telDrops.Add(uint64(res.CapacityDrops))
	if rec != nil {
		rec.edgeEvents, rec.dupEvents = edges, dups
	}
}

// scoreHolders runs the success accounting against the replica set,
// reading the cells the traversal (live or replayed) left behind. The
// responder that times the query is the first holder in list order at
// the minimum hop; its forward delay is computed here, on demand, for
// its path alone.
func (e *Engine) scoreHolders(src PeerID, holders []topology.NodeID, budget *Budget, dm DelayModel, res *QueryResult) {
	ep, cells := e.epoch, e.cells
	first := noParent
	for _, h := range holders {
		if h == src {
			continue // searching peers don't count their own copy
		}
		if c := cells[h]; c.seen == ep && c.alive {
			res.HitHolders++
			res.HitMessages += float64(c.hop) // QueryHit returns along the reverse path
			if !res.Hit || int(c.hop) < res.FirstHitHops {
				res.Hit = true
				res.FirstHitHops = int(c.hop)
				first = h
			}
		}
	}
	if res.Hit {
		// Round trip: accumulated forward delay plus the return path at
		// base latency (QueryHits are few and cheap).
		res.ResponseDelay = e.pathDelay(first, budget, dm) + float64(res.FirstHitHops)*dm.HopDelay
		e.telHitHops.Observe(uint64(res.FirstHitHops))
		e.telDelay.Observe(uint64(res.ResponseDelay * 1000))
	}
}

// pathDelay returns the one-way delay the query accumulated on its
// first-visit path to h: the per-hop delays of the peers on h's parent
// chain, summed from the source down, each at the utilization the peer
// had when the copy reached it. Computing that after the flood is exact
// because a flood charges each peer at most once (the seen mark), so
// remaining[v] is still what v's own take left, and prevUtil and
// perTick move only at Refill, SetCapacity and ReserveControl, none of
// which runs inside a flood.
func (e *Engine) pathDelay(h PeerID, budget *Budget, dm DelayModel) float64 {
	var path [MaxTTL]PeerID
	n := int(e.cells[h].hop)
	for i := n - 1; i >= 0; i-- {
		path[i] = h
		h = e.cells[h].parent
	}
	d := 0.0
	for _, v := range path[:n] {
		d += dm.hopDelay(budget.Utilization(v))
	}
	return d
}

// FloodBatch floods weight identical-routing bogus queries from src.
// entry optionally restricts the batch to enter the overlay through a
// single neighbor (the paper's Fig 1 attack pattern, where a bad peer
// issues *different* queries to each of its neighbors: the per-neighbor
// sub-batches never duplicate-cancel, so each is its own batch with
// entry = that neighbor). Pass entry = -1 for standard flooding to all
// neighbors.
//
// The source's own generation does not consume its processing budget;
// every downstream peer clips the surviving weight by its remaining
// tokens.
func (e *Engine) FloodBatch(src PeerID, entry PeerID, ttl int, weight float64, budget *Budget) BatchResult {
	var res BatchResult
	if ttl <= 0 || weight <= 0 || !e.ov.Online(src) {
		return res
	}
	if ttl > MaxTTL {
		panic("flood: FloodBatch ttl exceeds MaxTTL")
	}
	e.telFloods.Inc()
	budget.floor -= weight // it charges each peer at most once, at most weight
	if e.cache != nil {
		e.cache.ensure()
		key := entry
		if key < 0 {
			key = noEntry // normalize "any negative = unrestricted"
		}
		k := treeKey{src: src, entry: key, ttl: int32(ttl)}
		tr, build := e.cache.lookup(k)
		if tr != nil && e.replayBatch(tr, src, weight, budget, &res) {
			e.cache.stats.Hits++
			return res
		}
		if tr == nil && build {
			rec := e.resetRec()
			// Partial clips keep the tree shape (the peer forwards its
			// reduced mass); only a zero-clip removes a subtree, and
			// only in the physical plane.
			zeroClip := e.liveBatch(src, entry, ttl, weight, budget, &res, rec)
			e.cache.keep(k, rec, e.mode == CounterIdeal || !zeroClip)
			return res
		}
	}
	e.liveBatch(src, entry, ttl, weight, budget, &res, nil)
	return res
}

// replayBatch re-runs one fluid batch over the cached tree in two
// passes. Pass 1 is read-only on the budget: it computes the accepted
// mass of every cached visit (exact, because each peer/edge budget
// cell is charged at most once per flood) and, in the physical plane,
// bails out if any visit would be clipped to zero — a zero-mass peer
// stops forwarding and the tree would diverge. Pass 2 applies the
// mutations in the live event order, add for add, so floating-point
// accumulation is byte-identical to the uncached path, and leaves each
// visit's cell as liveBatch does.
func (e *Engine) replayBatch(tr *travTree, src PeerID, weight float64, budget *Budget, res *BatchResult) bool {
	if cap(e.accBuf) < len(tr.visits) {
		e.accBuf = make([]float64, len(tr.visits))
	}
	visits, mass := tr.visits, e.mass
	acc := e.accBuf[:len(visits)]
	mass[src] = weight
	j := int32(0)
	for n := range tr.nodes {
		nd := &tr.nodes[n]
		s := mass[nd.u]
		for end := nd.end; j < end; j++ {
			vt := &visits[j]
			a := s
			if room := budget.arrivalCap(vt.v, vt.eid); a > room {
				a = room
			}
			if a < 0 {
				a = 0
			}
			if e.mode == CounterPhysical && a <= 0 {
				tr.replayFailed()
				e.cache.stats.Fallbacks++
				return false
			}
			acc[j] = a
			mass[vt.v] = a
		}
	}
	tr.failStreak = 0
	e.bump(src)
	ep, cells := e.epoch, e.cells
	var drops uint64
	j = 0
	for n := range tr.nodes {
		nd := &tr.nodes[n]
		s := mass[nd.u]
		hop := nd.hop + 1
		counted := weight
		if e.mode == CounterPhysical {
			counted = s
		}
		// Same-value adds commute with nothing here: the live loop adds
		// `counted` once per edge event of this node, consecutively, so
		// repeating the adds (rather than adding counted*edges) keeps
		// the accumulation bit-exact.
		for k := int32(0); k < nd.edges; k++ {
			res.QueryMessages += counted
		}
		for k := int32(0); k < nd.dups; k++ {
			res.DupMessages += counted
		}
		for end := nd.end; j < end; j++ {
			vt := &visits[j]
			a := acc[j]
			e.ov.AddTraffic(vt.eid, counted)
			budget.take(vt.v, vt.eid, a)
			cells[vt.v] = cell{seen: ep, hop: hop, parent: nd.u, alive: a > 0}
			if a < s {
				drops++
			}
			res.CapacityDrops += s - a
			if a > 0 {
				res.ProcessedMass += a
				res.PeersReached++
			}
		}
	}
	e.telEdges.Add(tr.edgeEvents)
	e.telDups.Add(tr.dupEvents)
	e.telDrops.Add(drops)
	return true
}

// liveBatch is the uncached fluid BFS over the overlay's active rows,
// with or without the cache. A non-nil rec collects the first-visit tree
// in traversal order; the return reports whether any first visit was
// capacity-clipped to zero, which in the physical plane prunes a
// subtree and makes the recording non-structural.
func (e *Engine) liveBatch(src PeerID, entry PeerID, ttl int, weight float64, budget *Budget, res *BatchResult, rec *travTree) (zeroClip bool) {
	e.bump(src)
	ep, cells := e.epoch, e.cells
	e.mass[src] = weight
	e.frontier = append(e.frontier[:0], src)
	var edges, dups, drops uint64

	for depth := int32(1); int(depth) <= ttl && len(e.frontier) > 0; depth++ {
		e.next = e.next[:0]
		for _, u := range e.frontier {
			surviving := e.mass[u] // physical mass still alive at u
			counted := weight      // ideal plane: everything forwarded
			if e.mode == CounterPhysical {
				counted = surviving
				if counted <= 0 {
					continue
				}
			}
			nbrs, eids := e.ov.Active(u)
			parent := cells[u].parent
			nd := travNode{u: u}
			for k, v := range nbrs {
				if v == parent {
					continue
				}
				if u == src && entry >= 0 && v != entry {
					continue // restricted entry: batch leaves via one neighbor
				}
				res.QueryMessages += counted
				nd.edges++
				if cells[v].seen == ep {
					res.DupMessages += counted
					nd.dups++
					continue
				}
				eid := eids[k]
				if rec != nil {
					rec.visits = append(rec.visits, visit{v: v, eid: eid})
				}
				e.ov.AddTraffic(eid, counted)
				accepted := surviving
				if room := budget.arrivalCap(v, eid); accepted > room {
					accepted = room
				}
				if accepted < 0 {
					accepted = 0
				}
				budget.take(v, eid, accepted)
				if accepted < surviving {
					drops++
				}
				res.CapacityDrops += surviving - accepted
				cells[v] = cell{seen: ep, hop: depth, parent: u, alive: accepted > 0}
				e.mass[v] = accepted
				if accepted > 0 {
					res.ProcessedMass += accepted
					res.PeersReached++
				}
				if accepted <= 0 && e.mode == CounterPhysical {
					zeroClip = true
				}
				if accepted > 0 || e.mode == CounterIdeal {
					e.next = append(e.next, v)
				}
			}
			edges += uint64(nd.edges)
			dups += uint64(nd.dups)
			if rec != nil && nd.edges > 0 {
				// Set here, not where nd is made: that cost the BFS ~10 %.
				nd.hop, nd.end = depth-1, int32(len(rec.visits))
				rec.nodes = append(rec.nodes, nd)
			}
		}
		e.frontier, e.next = e.next, e.frontier
	}
	e.telEdges.Add(edges)
	e.telDups.Add(dups)
	e.telDrops.Add(drops)
	if rec != nil {
		rec.edgeEvents, rec.dupEvents = edges, dups
	}
	return zeroClip
}
