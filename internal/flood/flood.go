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
// By default tokens are taken first-come-first-served. EnableFairShare
// switches to the related-work baseline the paper contrasts DD-POLICE
// with (Daswani & Garcia-Molina's application-layer load balancing,
// reference [21]): each peer divides its capacity evenly across its
// incoming connections, so one flooding neighbor can only exhaust its
// own share and "clients get a fair share of available resources".
type Budget struct {
	// Remaining tokens this tick, indexed by peer.
	Remaining []float64
	// PerTick is the full refill amount, used for utilization-based
	// queueing delay.
	PerTick []float64
	// prevUtil is each peer's utilization over the last completed tick,
	// captured at Refill. Queueing delay uses it because mid-tick
	// utilization systematically understates a tick's true load.
	prevUtil []float64

	// Fair-share mode: per-directed-edge sub-budgets for the receiving
	// endpoint of each edge. edgeRemaining[e] caps what may arrive over
	// e this tick; the peer-level Remaining still applies on top.
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
	// capacity change (ReserveControl, SetCapacity): those move PerTick
	// without touching the overlay mutation counter, so version
	// comparison alone would leave the per-edge split stale.
	fairDirty bool

	// Touched-peer tracking makes Refill O(touched) instead of O(N):
	// take/SetCapacity/Touch record each peer (and, in fair mode, each
	// edge) whose tokens moved this tick, deduplicated by epoch marks.
	// An untouched peer still holds Remaining == PerTick, so skipping
	// it at Refill is exactly the full scan's no-op (utilization 0,
	// reset to the value it already has). ReserveControl flips
	// refillAll for one full pass. Peers/edges with a sub-1.0 per-tick
	// allowance live on the frac lists and are refilled every tick so
	// fractional remainders accumulate (see refillPeer).
	touched     []PeerID
	touchedPrev []PeerID
	mark        []uint32
	etouched    []overlay.EdgeID
	emark       []uint32
	epoch       uint32
	refillAll   bool
	prevAll     bool // prevUtil may be nonzero anywhere; clear all next Refill
	fracPeers   []PeerID
	fracMark    []bool
	fracEdges   []overlay.EdgeID
}

// NewBudget allocates a budget for n peers with a uniform per-tick
// token allowance.
func NewBudget(n int, perTick float64) *Budget {
	b := &Budget{
		Remaining: make([]float64, n),
		PerTick:   make([]float64, n),
		prevUtil:  make([]float64, n),
		mark:      make([]uint32, n),
		fracMark:  make([]bool, n),
		epoch:     1,
	}
	for i := range b.Remaining {
		b.Remaining[i] = perTick
		b.PerTick[i] = perTick
		b.noteFrac(PeerID(i))
	}
	return b
}

// noteFrac keeps p's membership in the sub-1.0-allowance list current.
// Entries are removed lazily (fracMark cleared; the Refill sweep skips
// them) and may be re-appended after a toggle, so the sweep also
// deduplicates by epoch mark.
func (b *Budget) noteFrac(p PeerID) {
	frac := b.PerTick[p] > 0 && b.PerTick[p] < 1
	if frac && !b.fracMark[p] {
		b.fracMark[p] = true
		b.fracPeers = append(b.fracPeers, p)
	} else if !frac {
		b.fracMark[p] = false
	}
}

// Touch marks peer p as mutated this tick so the next Refill resets
// it. take and SetCapacity call it internally; callers that write
// Remaining directly (tests, external capacity models) must call it
// themselves or the O(touched) refill will skip the peer.
func (b *Budget) Touch(p PeerID) {
	if b.mark[p] != b.epoch {
		b.mark[p] = b.epoch
		b.touched = append(b.touched, p)
	}
}

// touchEdge is Touch for a fair-share arrival edge.
func (b *Budget) touchEdge(e overlay.EdgeID) {
	if b.emark[e] != b.epoch {
		b.emark[e] = b.epoch
		b.etouched = append(b.etouched, e)
	}
}

// EnableFairShare activates the [21]-style per-connection capacity
// split over ov's edges: the receiver of directed edge u->v accepts at
// most capacity(v)/activeDegree(v) per tick from u. The split follows
// the live overlay: Refill recomputes it whenever the overlay mutation
// counter has moved.
func (b *Budget) EnableFairShare(ov *overlay.Overlay) {
	b.ov = ov
	b.edgeRemaining = make([]float64, ov.NumDirectedEdges())
	b.edgePerTick = make([]float64, ov.NumDirectedEdges())
	b.emark = make([]uint32, ov.NumDirectedEdges())
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
	g := b.ov.Graph()
	for v := 0; v < b.ov.NumPeers(); v++ {
		id := PeerID(v)
		deg := b.ov.ActiveDegree(id)
		if deg == 0 {
			continue
		}
		share := b.PerTick[v] / float64(deg)
		for k, w := range g.Neighbors(id) {
			// Edge id of v->neighbor; the *incoming* share for v over
			// that link is tracked on the reverse edge, but since the
			// share is symmetric per endpoint we track arrival budget
			// on the edge pointing *to* v: reverse of v's k-th edge.
			e := b.ov.EdgeID(id, k)
			if !b.ov.Online(w) || b.ov.EdgeCut(e) {
				continue
			}
			b.edgePerTick[b.ov.Reverse(e)] = share
		}
	}
	// Arrival shares below one token accumulate across ticks (see
	// edgeRefill); rebuild that list alongside the shares.
	b.fracEdges = b.fracEdges[:0]
	for e, p := range b.edgePerTick {
		if p > 0 && p < 1 {
			b.fracEdges = append(b.fracEdges, overlay.EdgeID(e))
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
	for i := range b.PerTick {
		b.PerTick[i] *= 1 - frac
		if b.Remaining[i] > b.PerTick[i] {
			b.Remaining[i] = b.PerTick[i]
		}
		b.noteFrac(PeerID(i))
	}
	b.fairDirty = true
	b.refillAll = true // every peer moved; one full pass next Refill
}

// SetCapacity replaces peer p's per-tick allowance (negative clamps to
// zero), taking effect immediately on the current tick's remaining
// tokens and on the fair-share split at the next refill. The faults
// plane uses it for capacity brownouts.
func (b *Budget) SetCapacity(p PeerID, perTick float64) {
	if perTick < 0 {
		perTick = 0
	}
	b.PerTick[p] = perTick
	if b.Remaining[p] > perTick {
		b.Remaining[p] = perTick
	}
	b.noteFrac(p)
	b.Touch(p)
	b.fairDirty = true
}

// arrivalCap returns how much may still arrive at v via the directed
// edge e (u->v) this tick, bounded by both the edge share (fair mode)
// and the peer's remaining total. Never negative: a cell that was
// overdrawn (see take) reports zero room, not negative room that would
// push a caller's accepted mass below zero.
func (b *Budget) arrivalCap(v PeerID, e overlay.EdgeID) float64 {
	room := b.Remaining[v]
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
// Remaining/edgeRemaining negative, and the deficit silently steals
// capacity from the next refill's utilization accounting.
func (b *Budget) take(v PeerID, e overlay.EdgeID, amount float64) {
	b.Touch(v)
	if r := b.Remaining[v] - amount; r > 0 {
		b.Remaining[v] = r
	} else {
		b.Remaining[v] = 0
	}
	if b.ov != nil {
		b.touchEdge(e)
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
func (b *Budget) refillPeer(v PeerID) {
	p := b.PerTick[v]
	if p > 0 && p < 1 {
		if r := b.Remaining[v] + p; r < 1 {
			b.Remaining[v] = r
		} else {
			b.Remaining[v] = 1
		}
		return
	}
	b.Remaining[v] = p
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

// Refill captures each touched peer's utilization for the ending tick,
// then resets its tokens to the per-tick allowance. Untouched peers
// need no work: their Remaining already equals PerTick, so their
// utilization is exactly 0 and the reset is the value they hold —
// which makes Refill O(touched + frac) rather than O(N). Sub-1.0
// allowances are visited every tick so their remainders accumulate.
func (b *Budget) Refill() {
	if b.refillAll {
		// ReserveControl moved every peer's allowance: one full pass.
		b.refillAll = false
		for i := range b.Remaining {
			b.prevUtil[i] = b.utilNow(PeerID(i))
			b.refillPeer(PeerID(i))
		}
		b.touched = b.touched[:0]
		b.touchedPrev = b.touchedPrev[:0]
		b.prevAll = true
	} else {
		// Clear the previous tick's utilization captures, then fold in
		// this tick's.
		if b.prevAll {
			b.prevAll = false
			for i := range b.prevUtil {
				b.prevUtil[i] = 0
			}
		} else {
			for _, v := range b.touchedPrev {
				b.prevUtil[v] = 0
			}
		}
		for _, v := range b.touched {
			b.prevUtil[v] = b.utilNow(v)
			b.refillPeer(v)
		}
		// Accumulating peers not touched this tick still gain their
		// fractional allowance. Marks double as the dedup against both
		// the touched pass above and stale duplicate list entries.
		for _, v := range b.fracPeers {
			if !b.fracMark[v] || b.mark[v] == b.epoch {
				continue
			}
			b.mark[v] = b.epoch
			b.refillPeer(v)
		}
		b.touchedPrev, b.touched = b.touched, b.touchedPrev[:0]
	}
	if b.ov != nil {
		if b.fairDirty || b.fairVersion != b.ov.Version() {
			b.rebuildFairShare()
			copy(b.edgeRemaining, b.edgePerTick)
			b.etouched = b.etouched[:0]
		} else {
			for _, e := range b.etouched {
				b.edgeRefill(e)
			}
			b.etouched = b.etouched[:0]
			for _, e := range b.fracEdges {
				if b.emark[e] == b.epoch {
					continue
				}
				b.emark[e] = b.epoch
				b.edgeRefill(e)
			}
		}
	}
	b.fairDirty = false
	b.epoch++
}

func (b *Budget) utilNow(p PeerID) float64 {
	full := b.PerTick[p]
	if full <= 0 {
		// A zero-capacity peer that processes nothing is idle, not
		// saturated: reporting u=1 here used to charge every flood path
		// through it the maximum queueing delay despite zero traffic.
		return 0
	}
	u := 1 - b.Remaining[p]/full
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

	epoch    uint32
	cells    []cell    // per-peer visit state of the flood numbered epoch
	mass     []float64 // batch mode: surviving (processed) weight at peer
	frontier []PeerID
	next     []PeerID
	nbuf     []PeerID

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

	// tv, when non-nil, receives every first-visit event of discrete
	// query floods (see SetTraceVisitor). One pointer check per visit
	// when disarmed; the cached replay and the live BFS emit identical
	// visit sequences, so traces are byte-identical across cache
	// hits and misses.
	tv TraceVisitFn
}

// VisitOutcome classifies one first visit of a traced flood.
type VisitOutcome uint8

// Visit outcomes.
const (
	// VisitForwarded: the peer processed the query and keeps flooding.
	VisitForwarded VisitOutcome = iota
	// VisitDropped: the copy was discarded at this saturated peer.
	VisitDropped
	// VisitDead: the copy's upstream path had already died; the visit
	// exists only in the ideal counter plane's accounting.
	VisitDead
)

// TraceVisitFn receives one first-visit event: the visited peer, its
// BFS parent, the hop depth, and what happened to the copy. Duplicate
// copies are not reported (the cached replay cannot re-enumerate
// them); their counts live in QueryResult.DupMessages.
type TraceVisitFn func(v, parent PeerID, depth int32, outcome VisitOutcome)

// SetTraceVisitor arms (or, with nil, disarms) the per-visit trace
// hook for subsequent discrete query floods. The caller owns the
// arming window — typically around a single FloodQuery of a sampled
// query. Batch floods are not traced.
func (e *Engine) SetTraceVisitor(fn TraceVisitFn) { e.tv = fn }

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

// activeAdj returns u's active neighbors, plus their directed edge ids
// when the traversal cache's CSR snapshot is available (nil eids means
// the caller must FindEdge).
func (e *Engine) activeAdj(u PeerID) ([]PeerID, []overlay.EdgeID) {
	if e.cache != nil {
		return e.cache.adj(u)
	}
	e.nbuf = e.ov.ActiveNeighbors(u, e.nbuf[:0])
	return e.nbuf, nil
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
func (e *Engine) replayQuery(tr *travTree, src PeerID, budget *Budget, res *QueryResult) bool {
	if e.mode == CounterPhysical {
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
	if e.mode == CounterPhysical {
		for i := range tr.visits {
			vt := &tr.visits[i]
			e.ov.AddTraffic(vt.eid, 1)
			cells[vt.v] = cell{seen: ep, hop: vt.depth, parent: vt.parent, alive: true}
			budget.take(vt.v, vt.eid, 1)
			if e.tv != nil {
				e.tv(vt.v, vt.parent, vt.depth, VisitForwarded)
			}
		}
		res.Processed = len(tr.visits)
		return true
	}
	for i := range tr.visits {
		vt := &tr.visits[i]
		e.ov.AddTraffic(vt.eid, 1)
		alive, outcome := e.decide(cells[vt.parent].alive, vt.v, vt.eid, budget, res)
		cells[vt.v] = cell{seen: ep, hop: vt.depth, parent: vt.parent, alive: alive}
		if e.tv != nil {
			e.tv(vt.v, vt.parent, vt.depth, outcome)
		}
	}
	e.telDrops.Add(uint64(res.CapacityDrops))
	return true
}

// decide settles one first visit of a discrete flood whose outcome is
// not known in advance: a copy whose upstream path died is dead, one
// arriving at a saturated peer is dropped there, and any other is
// charged one token and forwards.
func (e *Engine) decide(upstream bool, v PeerID, eid overlay.EdgeID, budget *Budget, res *QueryResult) (alive bool, outcome VisitOutcome) {
	if !upstream {
		return false, VisitDead
	}
	if budget.arrivalCap(v, eid) < 1 {
		res.CapacityDrops++
		return false, VisitDropped
	}
	budget.take(v, eid, 1)
	res.Processed++
	return true, VisitForwarded
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
	if e.cache != nil {
		e.cache.sync()
		k := treeKey{src: src, entry: noEntry, ttl: int32(ttl)}
		tr, build := e.cache.lookup(k)
		if tr != nil && e.replayQuery(tr, src, budget, &res) {
			e.cache.stats.Hits++
			e.scoreHolders(src, holders, budget, dm, &res)
			return res
		}
		if tr == nil && build {
			rec := e.resetRec()
			e.liveQuery(src, ttl, budget, &res, rec)
			e.scoreHolders(src, holders, budget, dm, &res)
			// A capacity-dropped peer stopped forwarding, so in the
			// physical plane a clipped traversal was not structural.
			e.cache.keep(k, rec, e.mode == CounterIdeal || res.CapacityDrops == 0)
			return res
		}
	}
	e.liveQuery(src, ttl, budget, &res, nil)
	e.scoreHolders(src, holders, budget, dm, &res)
	return res
}

// liveQuery is the uncached BFS; it still reads the CSR adjacency
// snapshot when the cache is enabled (the snapshot is connectivity
// state, not traversal memoization, so it is always sound). A non-nil
// rec collects the first-visit tree in traversal order as it runs.
func (e *Engine) liveQuery(src PeerID, ttl int, budget *Budget, res *QueryResult, rec *travTree) {
	e.bump(src)
	ep, cells := e.epoch, e.cells
	e.frontier = append(e.frontier[:0], src)
	var edges, dups uint64

	for depth := int32(1); int(depth) <= ttl && len(e.frontier) > 0; depth++ {
		e.next = e.next[:0]
		for _, u := range e.frontier {
			nbrs, eids := e.activeAdj(u)
			cu := cells[u]
			var nd travNode
			if rec != nil {
				nd = travNode{u: u, vStart: int32(len(rec.visits))}
			}
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
				eid := overlay.EdgeID(0)
				if eids != nil {
					eid = eids[k]
				} else {
					eid, _ = e.ov.FindEdge(u, v)
				}
				if rec != nil {
					rec.visits = append(rec.visits, visit{v: v, parent: u, eid: eid, depth: depth})
				}
				e.ov.AddTraffic(eid, 1)
				alive, outcome := e.decide(cu.alive, v, eid, budget, res)
				cells[v] = cell{seen: ep, hop: depth, parent: u, alive: alive}
				if e.tv != nil {
					e.tv(v, u, depth, outcome)
				}
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
				nd.vCount = int32(len(rec.visits)) - nd.vStart
				rec.nodes = append(rec.nodes, nd)
			}
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
		if c := cells[h]; c.seen == ep && c.alive && c.hop > 0 {
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
// Remaining[v] is still what v's own take left, and prevUtil and
// PerTick move only at Refill, SetCapacity and ReserveControl, none of
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
	e.telFloods.Inc()
	if e.cache != nil {
		e.cache.sync()
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
// accumulation is byte-identical to the uncached path.
func (e *Engine) replayBatch(tr *travTree, src PeerID, weight float64, budget *Budget, res *BatchResult) bool {
	if cap(e.accBuf) < len(tr.visits) {
		e.accBuf = make([]float64, len(tr.visits))
	}
	acc := e.accBuf[:len(tr.visits)]
	e.mass[src] = weight
	for _, nd := range tr.nodes {
		s := e.mass[nd.u]
		for j := nd.vStart; j < nd.vStart+nd.vCount; j++ {
			vt := &tr.visits[j]
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
			e.mass[vt.v] = a
		}
	}
	tr.failStreak = 0
	e.bump(src)
	var drops uint64
	for _, nd := range tr.nodes {
		s := e.mass[nd.u]
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
		for j := nd.vStart; j < nd.vStart+nd.vCount; j++ {
			vt := &tr.visits[j]
			a := acc[j]
			e.ov.AddTraffic(vt.eid, counted)
			budget.take(vt.v, vt.eid, a)
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

// liveBatch is the uncached fluid BFS (CSR-accelerated when the cache
// is enabled). A non-nil rec collects the first-visit tree in
// traversal order; the return reports whether any first visit was
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
			nbrs, eids := e.activeAdj(u)
			parent := cells[u].parent
			var nd travNode
			if rec != nil {
				nd = travNode{u: u, vStart: int32(len(rec.visits))}
			}
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
				eid := overlay.EdgeID(0)
				if eids != nil {
					eid = eids[k]
				} else {
					eid, _ = e.ov.FindEdge(u, v)
				}
				if rec != nil {
					rec.visits = append(rec.visits, visit{v: v, parent: u, eid: eid, depth: depth})
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
				nd.vCount = int32(len(rec.visits)) - nd.vStart
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
