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
// eligible and the next use records again at no extra cost. A key is
// recorded on its second sighting within a connectivity version, never
// its first: a source that floods once costs one sighted entry, not a
// copy of its tree.
// Trees are built from the overlay's active rows (overlay.Active), which
// each join/leave and cut/uncut rewrites itself; the cache keeps only
// trees. overlay.Version() keys their validity: any of those mutations
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
//     clip. A query replay skips it while Budget.floor proves that no
//     peer has fewer than one token. Floating-point accumulation per
//     visit mirrors the live event order exactly — same adds, same
//     values, same sequence.
package flood

import (
	"reflect"

	"ddpolice/internal/overlay"
)

// noEntry keys an unrestricted flood (FloodQuery, or FloodBatch with
// entry < 0) in the tree cache.
const noEntry PeerID = -1

// Cache limits.
const (
	// cacheSkipAfterFails: consecutive physical-mode precheck failures
	// before a tree stops attempting replay until the next version
	// change (saturated regions fail the precheck every tick).
	cacheSkipAfterFails = 2
	// cacheMaxVisits bounds total cached tree memory, counted in entries
	// (visits + nodes across all trees); exceeding it flushes the whole
	// cache. At 8 bytes a visit and 20 a node that is 16–40 MiB, about
	// 19 MiB at the one node per 7.7 visits of a BA(m=3) tree.
	cacheMaxVisits = 1 << 21
)

// treeKey identifies one memoized traversal.
type treeKey struct {
	src   PeerID
	entry PeerID
	ttl   int32
}

// visit is one first-visit event: peer v first reached via directed
// edge eid. It stores only what replay cannot derive (8 bytes): its
// parent is the travNode that owns it, and its hop one more than that
// node's.
type visit struct {
	v   PeerID
	eid overlay.EdgeID
}

// travNode is one forwarding peer u in frontier order, first reached at
// hop, with its edge events: edges counts every copy it puts on a link
// (first visits + duplicates), dups the duplicate-suppressed subset, and
// its first-visit children are the visits from the previous node's end
// up to its own (visits[nodes[i-1].end:nodes[i].end]). 20 bytes.
type travNode struct {
	u     PeerID
	hop   int32
	end   int32
	edges int32
	dups  int32
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
	// PeakTreeBytes is the most memory the cached trees' visits and nodes
	// held at once (omitempty, as Discarded).
	PeakTreeBytes uint64 `json:",omitempty"`
}

// travCache holds the memoized first-visit trees, valid for one
// overlay.Version().
type travCache struct {
	ov      *overlay.Overlay
	version uint64

	trees        map[treeKey]*travTree
	sighted      map[treeKey]struct{} // keys flooded once since the flush
	cachedVisits int                  // Σ len(visits)+len(nodes) over trees
	cachedBytes  uint64               // Σ bytes() over trees

	stats CacheStats
}

func newTravCache(ov *overlay.Overlay) *travCache {
	return &travCache{
		ov:      ov,
		version: ov.Version(),
		trees:   make(map[treeKey]*travTree),
		sighted: make(map[treeKey]struct{}),
	}
}

// ensure flushes the trees when connectivity changed since they were
// built. Every flood calls it, and so does the sharded proposal phase
// (Engine.PrewarmTrees) once per tick. The adjacency the trees are
// built from is the overlay's own (overlay.Active), which every mutation
// keeps current, so there is nothing else to refresh.
func (c *travCache) ensure() {
	if c.version == c.ov.Version() {
		return
	}
	c.flush()
	c.version = c.ov.Version()
}

func (c *travCache) flush() {
	if len(c.trees) > 0 || len(c.sighted) > 0 {
		c.stats.Flushes++
	}
	clear(c.trees)
	clear(c.sighted)
	c.cachedVisits = 0
	c.cachedBytes = 0
}

// lookup returns the replayable tree for key, or nil with build=true
// when the caller should construct (and store) one now: on the key's
// second sighting since the last flush.
func (c *travCache) lookup(k treeKey) (tr *travTree, build bool) {
	if tr, ok := c.trees[k]; ok {
		if tr.skip {
			c.stats.Misses++
			return nil, false
		}
		return tr, false
	}
	c.stats.Misses++
	if _, ok := c.sighted[k]; ok {
		return nil, true
	}
	c.sighted[k] = struct{}{}
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
	c.cachedBytes += tr.bytes()
	c.stats.PeakTreeBytes = max(c.stats.PeakTreeBytes, c.cachedBytes)
}

// keep ends a recording flood: a structural recording is cloned into
// the cache; a clipped one is discarded, leaving k eligible to record
// again on its next use (lookup's sighted entry stays).
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

// visitBytes and nodeBytes are the sizes of one visit and one travNode.
var (
	visitBytes = uint64(reflect.TypeOf(visit{}).Size())
	nodeBytes  = uint64(reflect.TypeOf(travNode{}).Size())
)

// bytes is the memory tr's visits and nodes occupy.
func (tr *travTree) bytes() uint64 {
	return uint64(len(tr.visits))*visitBytes + uint64(len(tr.nodes))*nodeBytes
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
