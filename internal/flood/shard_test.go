package flood

import (
	"reflect"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// shardGraph builds a small Barabási–Albert overlay two engines can
// share structurally (same seed, same graph).
func shardGraph(t *testing.T, n int) (*overlay.Overlay, *overlay.Overlay) {
	t.Helper()
	g1, err := topology.BarabasiAlbert(rng.New(11), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := topology.BarabasiAlbert(rng.New(11), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	return overlay.New(g1), overlay.New(g2)
}

func shardKeys(n int) []TreeKey {
	var keys []TreeKey
	for i := 0; i < 40; i++ {
		keys = append(keys, TreeKey{Src: PeerID((i * 13) % n), Entry: -1, TTL: 3})
	}
	// Entry-restricted (spray-style) keys too.
	keys = append(keys,
		TreeKey{Src: 0, Entry: 1, TTL: 3},
		TreeKey{Src: 0, Entry: 2, TTL: 3},
	)
	return keys
}

// TestPrewarmTreesMatchOrganicBuilds asserts the tentpole's core
// equality: a tree built by a proposal-phase shard is structurally
// identical to the tree a lone serial treeBuilder constructs for the
// same key.
func TestPrewarmTreesMatchOrganicBuilds(t *testing.T) {
	const n = 300
	ovA, ovB := shardGraph(t, n)
	engA, engB := NewEngine(ovA), NewEngine(ovB)
	keys := shardKeys(n)

	if built := engA.PrewarmTrees(keys, 4); built == 0 {
		t.Fatal("prewarm built nothing")
	}
	// Reference builds on B: one treeBuilder, serially, over B's own
	// snapshot.
	engB.cache.sync()
	tb := newTreeBuilder(n)
	tb.cache = engB.cache
	for _, k := range keys {
		entry := k.Entry
		if entry < 0 {
			entry = noEntry
		}
		ik := treeKey{src: k.Src, entry: entry, ttl: k.TTL}
		if _, ok := engB.cache.trees[ik]; ok {
			continue
		}
		engB.cache.store(ik, tb.build(k.Src, entry, int(k.TTL)))
	}
	if len(engA.cache.trees) != len(engB.cache.trees) {
		t.Fatalf("tree counts diverge: prewarmed %d vs serial %d",
			len(engA.cache.trees), len(engB.cache.trees))
	}
	for ik, trB := range engB.cache.trees {
		trA, ok := engA.cache.trees[ik]
		if !ok {
			t.Fatalf("prewarmed cache missing key %+v", ik)
		}
		if !reflect.DeepEqual(trA.nodes, trB.nodes) || !reflect.DeepEqual(trA.visits, trB.visits) ||
			trA.edgeEvents != trB.edgeEvents || trA.dupEvents != trB.dupEvents {
			t.Fatalf("tree %+v diverges between prewarm and serial build", ik)
		}
	}
}

// TestPrewarmDeterministicAcrossShardCounts: the stored tree set (and
// every tree in it) must not depend on how many shards built it.
func TestPrewarmDeterministicAcrossShardCounts(t *testing.T) {
	const n = 300
	keys := shardKeys(n)
	var ref map[treeKey]*travTree
	for _, shards := range []int{1, 2, 4, 8} {
		g, err := topology.BarabasiAlbert(rng.New(11), n, 3)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(overlay.New(g))
		eng.PrewarmTrees(keys, shards)
		if ref == nil {
			ref = eng.cache.trees
			continue
		}
		if len(eng.cache.trees) != len(ref) {
			t.Fatalf("shards=%d: %d trees, want %d", shards, len(eng.cache.trees), len(ref))
		}
		for ik, want := range ref {
			got, ok := eng.cache.trees[ik]
			if !ok {
				t.Fatalf("shards=%d: missing tree %+v", shards, ik)
			}
			if !reflect.DeepEqual(got.visits, want.visits) || !reflect.DeepEqual(got.nodes, want.nodes) {
				t.Fatalf("shards=%d: tree %+v diverges", shards, ik)
			}
		}
	}
}

// TestPrewarmedFloodByteIdentical runs the same flood sequence on a
// prewarmed engine and a cold serial engine and asserts bit-equal
// results and budget state — the commit phase must not be able to tell
// the trees were built ahead of time.
func TestPrewarmedFloodByteIdentical(t *testing.T) {
	const n = 300
	ovA, ovB := shardGraph(t, n)
	engA, engB := NewEngine(ovA), NewEngine(ovB)
	budA, budB := NewBudget(n, 4), NewBudget(n, 4)
	dm := DefaultDelayModel()
	holders := []topology.NodeID{7, 99, 201}
	keys := shardKeys(n)

	engA.PrewarmTrees(keys, 4)
	for tick := 0; tick < 3; tick++ {
		budA.Refill()
		budB.Refill()
		for _, k := range keys {
			if k.Entry >= 0 {
				ra := engA.FloodBatch(k.Src, k.Entry, int(k.TTL), 2.5, budA)
				rb := engB.FloodBatch(k.Src, k.Entry, int(k.TTL), 2.5, budB)
				if ra != rb {
					t.Fatalf("tick %d: batch results diverge:\nprewarmed: %+v\nserial:    %+v", tick, ra, rb)
				}
				continue
			}
			ra := engA.FloodQuery(k.Src, int(k.TTL), holders, budA, dm)
			rb := engB.FloodQuery(k.Src, int(k.TTL), holders, budB, dm)
			if ra != rb {
				t.Fatalf("tick %d: query results diverge:\nprewarmed: %+v\nserial:    %+v", tick, ra, rb)
			}
		}
		if !reflect.DeepEqual(budA.Remaining, budB.Remaining) {
			t.Fatalf("tick %d: budget state diverges", tick)
		}
	}
	if engA.CacheStats().Prewarmed == 0 {
		t.Fatal("prewarmed counter never moved")
	}
}

// TestPrewarmSkipsUnbuildableKeys: cached keys, offline sources, and
// non-positive TTLs are filtered before any shard sees them, and
// duplicates collapse to one build.
func TestPrewarmSkipsUnbuildableKeys(t *testing.T) {
	const n = 100
	ovA, _ := shardGraph(t, n)
	eng := NewEngine(ovA)
	ovA.SetOnline(5, false)
	base := TreeKey{Src: 1, Entry: -1, TTL: 3}
	built := eng.PrewarmTrees([]TreeKey{
		base, base, // duplicate
		{Src: 5, Entry: -1, TTL: 3}, // offline
		{Src: 2, Entry: -1, TTL: 0}, // bad TTL
	}, 2)
	if built != 1 {
		t.Fatalf("built %d trees, want 1", built)
	}
	// Already cached: a second prewarm is a no-op.
	if again := eng.PrewarmTrees([]TreeKey{base}, 2); again != 0 {
		t.Fatalf("rebuilt a cached tree (%d builds)", again)
	}
	if s := eng.CacheStats(); s.Prewarmed != 1 || s.Builds != 1 {
		t.Fatalf("stats = %+v, want Prewarmed=1 Builds=1", s)
	}
}

// TestPrewarmDisabledCache: a no-op without the traversal cache.
func TestPrewarmDisabledCache(t *testing.T) {
	ovA, _ := shardGraph(t, 50)
	eng := NewEngine(ovA)
	eng.SetTraversalCache(false)
	if built := eng.PrewarmTrees([]TreeKey{{Src: 1, Entry: -1, TTL: 3}}, 4); built != 0 {
		t.Fatalf("prewarm built %d trees with the cache disabled", built)
	}
}
