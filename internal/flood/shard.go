// Sharded proposal phase: the parallel half of the deterministic
// two-phase tick engine.
//
// The key observation (DESIGN.md §13) is that a flood's first-visit
// tree is a pure function of overlay connectivity — not of budgets,
// delays, or any other per-tick state — so the expensive traversal work
// of a tick can run ahead of time, in parallel, against the immutable
// CSR snapshot, as long as every *stateful* effect (capacity clipping,
// queueing delay, fair-share accounting, telemetry, journaling) is
// applied later by the serial commit phase in the exact order the
// serial engine would have produced it. PrewarmTrees is that proposal
// phase: worker shards build the structural trees the tick has declared
// it will flood, each into private scratch, and a serial commit loop
// stores them into the traversal cache in canonical (input key) order.
// The commit phase is then the ordinary FloodQuery/FloodBatch sequence,
// which finds the trees cached and replays them — a path whose
// byte-identity with the live BFS is already contractual (cache.go).
//
// Shard assignment uses rng.SubSeed, a pure per-key hash substream
// derivation: it is order-independent (no generator state is consumed,
// so the assignment does not depend on scheduling) and decorrelates the
// hub-adjacent key clusters that a modulo split would lump onto one
// shard.
package flood

import (
	"sync"

	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
)

// TreeKey names one traversal for proposal-phase prewarming: the flood
// source, the optional entry restriction (negative = unrestricted, as
// in FloodBatch), and the TTL.
type TreeKey struct {
	Src   PeerID
	Entry PeerID
	TTL   int32
}

// shardSalt decorrelates the shard-assignment hash from every other
// SubSeed consumer.
const shardSalt = 0xddb01ce5eed5a17e

// treeBuilder is one shard's private structural-BFS scratch. Builders
// share the read-only CSR adjacency snapshot but nothing mutable, so
// any number of them may run concurrently.
type treeBuilder struct {
	cache    *travCache
	epoch    uint32
	seen     []uint32
	parent   []PeerID
	frontier []PeerID
	next     []PeerID

	// Capacity hints for the next tree's visit/node slices, taken from
	// the previous build. Trees from nearby sources on the same
	// connectivity reach nearly the same peer set, so seeding the
	// capacity turns ~log(n) append-growth reallocations per build into
	// one or two exact allocations — the dominant allocation source in
	// large-overlay runs where most queries come from a source whose
	// tree is not cached. Hints only size memory; tree contents are
	// identical with or without them.
	visitHint int
	nodeHint  int

	// Shard-local tallies, merged serially at commit so the hot build
	// loop touches no shared counters.
	builds uint64
	visits uint64
}

func newTreeBuilder(n int) *treeBuilder {
	return &treeBuilder{
		seen:   make([]uint32, n),
		parent: make([]PeerID, n),
	}
}

// build runs the purely structural TTL-bounded BFS (parent skip +
// duplicate suppression, no budgets) and records the first-visit tree
// in frontier order. It reads only the CSR snapshot and its own
// scratch.
func (tb *treeBuilder) build(src, entry PeerID, ttl int) *travTree {
	tr := &travTree{
		visits: make([]visit, 0, tb.visitHint),
		nodes:  make([]travNode, 0, tb.nodeHint),
	}
	tb.epoch++
	if tb.epoch == 0 { // wrapped: clear marks once every 2^32 builds
		for i := range tb.seen {
			tb.seen[i] = 0
		}
		tb.epoch = 1
	}
	tb.seen[src] = tb.epoch
	tb.parent[src] = noParent
	tb.frontier = append(tb.frontier[:0], src)
	for depth := 1; depth <= ttl && len(tb.frontier) > 0; depth++ {
		tb.next = tb.next[:0]
		for _, u := range tb.frontier {
			nbrs, eids := tb.cache.adj(u)
			nd := travNode{u: u, vStart: int32(len(tr.visits))}
			for k, v := range nbrs {
				if v == tb.parent[u] {
					continue
				}
				if u == src && entry >= 0 && v != entry {
					continue
				}
				nd.edges++
				if tb.seen[v] == tb.epoch {
					nd.dups++
					continue
				}
				tb.seen[v] = tb.epoch
				tb.parent[v] = u
				tr.visits = append(tr.visits, visit{v: v, parent: u, eid: eids[k], depth: int32(depth)})
				tb.next = append(tb.next, v)
			}
			nd.vCount = int32(len(tr.visits)) - nd.vStart
			if nd.edges > 0 {
				tr.nodes = append(tr.nodes, nd)
				tr.edgeEvents += uint64(nd.edges)
				tr.dupEvents += uint64(nd.dups)
			}
		}
		tb.frontier, tb.next = tb.next, tb.frontier
	}
	tb.builds++
	tb.visits += uint64(len(tr.visits))
	tb.visitHint = len(tr.visits)
	tb.nodeHint = len(tr.nodes)
	return tr
}

// PrewarmTrees runs the proposal phase for one tick: it builds the
// structural first-visit trees for every key the caller has declared it
// will flood this tick, spreading the builds over the given number of
// worker shards, and stores them into the traversal cache in canonical
// input order. Returns the number of trees built.
//
// Determinism contract: the stored trees are identical to what the
// serial engine's own build paths would construct (both are the unique
// structural BFS of the current connectivity), shard assignment is a
// pure hash of the key (rng.SubSeed — independent of scheduling), and
// the cache store runs serially in input-key order, so a prewarmed run
// is byte-identical to a serial run in everything except the cache's
// effectiveness counters. Keys already cached, offline sources, and
// non-positive TTLs are skipped. No-op when the cache is disabled or
// shards < 1.
func (e *Engine) PrewarmTrees(keys []TreeKey, shards int) int {
	if e.cache == nil || shards < 1 || len(keys) == 0 {
		return 0
	}
	c := e.cache
	c.ensure()

	// Serial filter: normalize, dedup, drop keys that already have a
	// tree (including skip-marked ones — their trees exist; replay
	// refusal is per-tick budget state, not a build problem).
	if e.prewarmSeen == nil {
		e.prewarmSeen = make(map[treeKey]struct{}, len(keys))
	}
	want := e.prewarmWant[:0]
	for _, k := range keys {
		if k.TTL <= 0 || !e.ov.Online(k.Src) {
			continue
		}
		entry := k.Entry
		if entry < 0 {
			entry = noEntry
		}
		ik := treeKey{src: k.Src, entry: entry, ttl: k.TTL}
		if _, dup := e.prewarmSeen[ik]; dup {
			continue
		}
		e.prewarmSeen[ik] = struct{}{}
		if _, cached := c.trees[ik]; cached {
			continue
		}
		want = append(want, ik)
	}
	clear(e.prewarmSeen)
	e.prewarmWant = want
	if len(want) == 0 {
		return 0
	}
	if shards > len(want) {
		shards = len(want)
	}

	// Deterministic shard assignment: a pure hash of the key, so the
	// split never depends on input order or scheduling.
	if cap(e.prewarmAssign) < len(want) {
		e.prewarmAssign = make([]uint8, len(want))
	}
	assign := e.prewarmAssign[:len(want)]
	for i, k := range want {
		assign[i] = uint8(rng.SubSeed(shardSalt, uint64(uint32(k.src)), uint64(uint32(k.entry)), uint64(uint32(k.ttl))) % uint64(shards))
	}

	// Parallel proposal: each shard builds its keys into private
	// scratch; built[i] cells are disjoint per shard, the CSR snapshot
	// is read-only, and nothing else is shared.
	for len(e.builders) < shards {
		e.builders = append(e.builders, newTreeBuilder(e.ov.NumPeers()))
	}
	built := make([]*travTree, len(want))
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		tb := e.builders[s]
		tb.cache = c
		wg.Add(1)
		go func(s int, tb *treeBuilder) {
			defer wg.Done()
			for i, k := range want {
				if int(assign[i]) != s {
					continue
				}
				built[i] = tb.build(k.src, k.entry, int(k.ttl))
			}
		}(s, tb)
	}
	wg.Wait()

	// Serial commit: canonical input order, shard tallies merged once.
	for i, k := range want {
		c.store(k, built[i])
	}
	var visits uint64
	for s := 0; s < shards; s++ {
		visits += e.builders[s].visits
		e.builders[s].builds, e.builders[s].visits = 0, 0
	}
	c.stats.Prewarmed += uint64(len(want))
	e.telPrewarm.Add(uint64(len(want)))
	e.telPrewarmVisits.Add(visits)
	return len(want)
}

// prewarmState is the Engine's proposal-phase scratch, reused across
// ticks. Only the serial phase reads or writes its fields (the
// workers PrewarmTrees spawns receive their builder by value and never
// look back at the engine).
type prewarmState struct {
	prewarmSeen   map[treeKey]struct{}
	prewarmWant   []treeKey
	prewarmAssign []uint8
	builders      []*treeBuilder

	telPrewarm       *telemetry.Counter // trees built by the proposal phase
	telPrewarmVisits *telemetry.Counter // first-visit events in those trees
}
