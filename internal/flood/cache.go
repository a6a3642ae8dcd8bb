// Traversal cache: the TTL-bounded first-visit tree of a flood is a
// pure function of overlay connectivity (who is online, which edges are
// cut) — not of budgets or delays — whenever every visited peer keeps
// forwarding. The cache memoizes that tree per (source, entry, TTL) and
// replays it across ticks, charging the per-tick parts (capacity
// clipping, fair-share accounting) visit by visit in the cached order;
// queueing delay is computed afterwards, for the one path that is timed
// (pathDelay). Trees are recorded as a byproduct of a live flood and
// kept only when that flood was provably structural — no forwarding
// peer clipped away. A clipped recording is discarded, not rebuilt:
// budgets only fall within a tick, so the peer that clipped it would
// fail the replay precheck of a separately built tree until the next
// refill, and under churn the cache is flushed by then. The key stays
// eligible and the next use records again at no extra cost.
// overlay.Version() keys validity: any join/leave or cut/uncut
// (including partition apply/heal) bumps it and flushes the trees.
//
// Replay is only attempted when it provably reproduces the uncached
// traversal byte for byte:
//
//   - In the ideal counter plane the tree is always structural, so
//     replay is always sound.
//   - In the physical plane a capacity-dropped peer stops forwarding,
//     which would reshape the tree. Replay therefore prechecks the
//     cached visits against the current budget (each peer and each
//     directed edge is charged at most once per flood, so budget cells
//     read before any take of this flood keep their values until their
//     own visit) and falls back to the live BFS if any visit would
//     clip. Floating-point accumulation per visit mirrors the live
//     event order exactly — same adds, same values, same sequence.
package flood

import "ddpolice/internal/overlay"

// noEntry keys an unrestricted flood (FloodQuery, or FloodBatch with
// entry < 0) in the tree cache.
const noEntry PeerID = -1

// Cache tuning. Exposed as vars only to the package tests.
var (
	// cacheBuildAfterFloods: once the overlay version has been stable
	// for this many floods, trees are built on first use; below it, a
	// (src, entry, ttl) key must be requested twice before its tree is
	// built, so a churn-heavy run does not pay build costs for trees it
	// will never replay.
	cacheBuildAfterFloods uint64 = 192
	// cacheSkipAfterFails: consecutive physical-mode precheck failures
	// before a tree stops attempting replay until the next version
	// change (saturated regions fail the precheck every tick).
	cacheSkipAfterFails = 2
	// cacheMaxVisits bounds total cached tree memory (visit + node
	// entries across all trees); exceeding it flushes the whole cache.
	cacheMaxVisits = 1 << 21
)

// treeKey identifies one memoized traversal.
type treeKey struct {
	src   PeerID
	entry PeerID
	ttl   int32
}

// visit is one first-visit event: peer v first reached at hop depth via
// directed edge eid from parent.
type visit struct {
	v      PeerID
	parent PeerID
	eid    overlay.EdgeID
	depth  int32
}

// travNode is one forwarding peer in frontier order, with its edge
// events: edges counts every copy it puts on a link (first visits +
// duplicates), dups the duplicate-suppressed subset, and
// visits[vStart:vStart+vCount] its first-visit children.
type travNode struct {
	u      PeerID
	vStart int32
	vCount int32
	edges  int32
	dups   int32
}

// travTree is the memoized first-visit tree of one (src, entry, ttl).
type travTree struct {
	nodes      []travNode
	visits     []visit
	edgeEvents uint64 // Σ nodes[i].edges
	dupEvents  uint64 // Σ nodes[i].dups
	failStreak int
	skip       bool // replay disabled until next version flush
}

// CacheStats reports traversal-cache effectiveness counters.
type CacheStats struct {
	Hits      uint64 // floods served by tree replay
	Misses    uint64 // floods with no usable tree (includes builds)
	Builds    uint64 // trees constructed (organic + prewarmed)
	Prewarmed uint64 // trees built by the sharded proposal phase (subset of Builds)
	Fallbacks uint64 // replays abandoned by the physical-mode precheck
	// Discarded counts recordings thrown away because the flood clipped.
	// omitempty: bench/ pins digests of Result's JSON encoding with Cache
	// zeroed, so a field added here must vanish from it at zero.
	Discarded uint64 `json:",omitempty"`
	Flushes   uint64 // whole-cache invalidations (version change or size cap)
	Trees     int    // trees currently cached
}

// travCache holds the version-keyed derived views: a snapshot of the
// active adjacency (online, uncut neighbors with their directed edge
// ids — shared by every traversal, cached and live) and the memoized
// first-visit trees.
type travCache struct {
	ov      *overlay.Overlay
	version uint64
	synced  bool

	// Active adjacency, laid out at the static edge base so one row can
	// be rewritten without moving the others: row v occupies
	// adjPeer/adjEdge[EdgeID(v,0) : EdgeID(v,0)+adjCount[v]] and lists
	// v's reachable neighbors in static neighbor order.
	adjCount []int32
	adjPeer  []PeerID
	adjEdge  []overlay.EdgeID
	changed  []PeerID // scratch for overlay.ChangedSince

	trees        map[treeKey]*travTree
	seenOnce     map[treeKey]struct{}
	floodsStable uint64 // floods since the last version change
	cachedVisits int    // Σ len(visits)+len(nodes) over trees

	stats CacheStats
}

func newTravCache(ov *overlay.Overlay) *travCache {
	return &travCache{
		ov:       ov,
		trees:    make(map[treeKey]*travTree),
		seenOnce: make(map[treeKey]struct{}),
	}
}

// sync revalidates the cache against the overlay, flushing the trees
// and refreshing the adjacency snapshot if connectivity changed. Called
// once per flood.
func (c *travCache) sync() {
	c.floodsStable++
	c.ensure()
}

// ensure revalidates without advancing the flood counter: the sharded
// proposal phase (Engine.PrewarmTrees) calls it once per tick, and
// counting those calls as floods would make the build-policy heuristics
// diverge between serial and sharded runs of the same seed.
//
// Only the adjacency rows the overlay's change log names are rewritten;
// when the log does not reach back to c.version (or on first use) the
// changed set is every peer. Either way the rows are current before any
// traversal starts, so PrewarmTrees' workers see a read-only snapshot.
func (c *travCache) ensure() {
	if c.synced && c.version == c.ov.Version() {
		return
	}
	c.floodsStable = 0
	c.flush()
	ok := false
	if c.synced {
		c.changed, ok = c.ov.ChangedSince(c.version, c.changed[:0])
	} else {
		c.adjCount = make([]int32, c.ov.NumPeers())
		c.adjPeer = make([]PeerID, c.ov.NumDirectedEdges())
		c.adjEdge = make([]overlay.EdgeID, c.ov.NumDirectedEdges())
	}
	if ok {
		for _, v := range c.changed {
			c.rebuildRow(v)
		}
	} else {
		for v := range c.adjCount {
			c.rebuildRow(PeerID(v))
		}
	}
	c.version = c.ov.Version()
	c.synced = true
}

func (c *travCache) flush() {
	if len(c.trees) > 0 || len(c.seenOnce) > 0 {
		c.stats.Flushes++
	}
	clear(c.trees)
	clear(c.seenOnce)
	c.cachedVisits = 0
}

// rebuildRow rewrites v's row of the active-adjacency snapshot, so
// traversals read a flat slice instead of re-filtering (and
// binary-searching edge ids from) the static graph on every hop.
func (c *travCache) rebuildRow(v PeerID) {
	base := c.ov.EdgeID(v, 0)
	n := overlay.EdgeID(0)
	if c.ov.Online(v) {
		for k, w := range c.ov.Graph().Neighbors(v) {
			e := base + overlay.EdgeID(k)
			if c.ov.Online(w) && !c.ov.EdgeCut(e) {
				c.adjPeer[base+n] = w
				c.adjEdge[base+n] = e
				n++
			}
		}
	}
	c.adjCount[v] = int32(n)
}

// adj returns u's active neighbors and their directed edge ids.
func (c *travCache) adj(u PeerID) ([]PeerID, []overlay.EdgeID) {
	lo := c.ov.EdgeID(u, 0)
	hi := lo + overlay.EdgeID(c.adjCount[u])
	return c.adjPeer[lo:hi], c.adjEdge[lo:hi]
}

// lookup returns the replayable tree for key, or nil with build=true
// when the caller should construct (and store) one now. Build policy:
// second use by default, first use once the topology has been stable
// for cacheBuildAfterFloods floods.
func (c *travCache) lookup(k treeKey) (tr *travTree, build bool) {
	if tr, ok := c.trees[k]; ok {
		if tr.skip {
			c.stats.Misses++
			return nil, false
		}
		return tr, false
	}
	c.stats.Misses++
	if c.floodsStable >= cacheBuildAfterFloods {
		return nil, true
	}
	if _, ok := c.seenOnce[k]; ok {
		return nil, true
	}
	c.seenOnce[k] = struct{}{}
	return nil, false
}

// store inserts a freshly built tree, flushing first if the size cap
// would be exceeded.
func (c *travCache) store(k treeKey, tr *travTree) {
	c.stats.Builds++
	sz := len(tr.visits) + len(tr.nodes)
	if c.cachedVisits+sz > cacheMaxVisits {
		c.flush()
	}
	c.trees[k] = tr
	c.cachedVisits += sz
}

// keep ends a recording flood: a structural recording is cloned into
// the cache; a clipped one is discarded, leaving k eligible to record
// again on its next use (lookup's seenOnce entry stays).
func (c *travCache) keep(k treeKey, rec *travTree, structural bool) {
	if structural {
		c.store(k, rec.clone())
	} else {
		c.stats.Discarded++
	}
}

// clone copies the recorded tree into exactly-sized storage for the
// cache to own; the engine's scratch recording tree is reused by the
// next flood.
func (tr *travTree) clone() *travTree {
	return &travTree{
		nodes:      append([]travNode(nil), tr.nodes...),
		visits:     append([]visit(nil), tr.visits...),
		edgeEvents: tr.edgeEvents,
		dupEvents:  tr.dupEvents,
	}
}

// replayFailed records a physical-mode precheck failure; after
// cacheSkipAfterFails in a row the tree stops attempting replay until
// the next version flush.
func (tr *travTree) replayFailed() {
	tr.failStreak++
	if tr.failStreak >= cacheSkipAfterFails {
		tr.skip = true
	}
}
