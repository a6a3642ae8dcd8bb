package flood

import (
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// cachePair builds two independent overlays over the same static graph
// and one engine on each: A with the traversal cache, B without. Graphs
// are immutable, so sharing one is safe.
func cachePair(t *testing.T, seed uint64, n, m int) (ovA, ovB *overlay.Overlay, engA, engB *Engine) {
	t.Helper()
	g, err := topology.BarabasiAlbert(rng.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	ovA, ovB = overlay.New(g), overlay.New(g)
	engA, engB = NewEngine(ovA), NewEngine(ovB)
	engB.SetTraversalCache(false)
	if !engA.TraversalCacheEnabled() || engB.TraversalCacheEnabled() {
		t.Fatal("cache toggle wiring broken")
	}
	return ovA, ovB, engA, engB
}

// assertOverlayTrafficEqual compares the accumulating per-edge counters
// bit for bit.
func assertOverlayTrafficEqual(t *testing.T, step int, ovA, ovB *overlay.Overlay) {
	t.Helper()
	for e := 0; e < ovA.NumDirectedEdges(); e++ {
		a := ovA.CurrentMinuteEdge(overlay.EdgeID(e))
		b := ovB.CurrentMinuteEdge(overlay.EdgeID(e))
		if a != b {
			t.Fatalf("step %d: edge %d traffic diverged: cached=%v uncached=%v", step, e, a, b)
		}
	}
}

func assertBudgetsEqual(t *testing.T, step int, ba, bb *Budget) {
	t.Helper()
	for i := range ba.Remaining {
		if ba.Remaining[i] != bb.Remaining[i] {
			t.Fatalf("step %d: peer %d budget diverged: cached=%v uncached=%v", step, i, ba.Remaining[i], bb.Remaining[i])
		}
	}
}

// TestCachedQueryByteIdentical drives identical flood sequences through
// a cached and an uncached engine under a budget tight enough to force
// physical-mode drops (exercising the precheck fallback) and asserts
// every result field, edge counter, and budget cell stays bit-equal.
func TestCachedQueryByteIdentical(t *testing.T) {
	for _, mode := range []CounterMode{CounterPhysical, CounterIdeal} {
		_, _, engA, engB := cachePair(t, 11, 400, 3)
		ovA, ovB := engA.ov, engB.ov
		engA.SetCounterMode(mode)
		engB.SetCounterMode(mode)
		ba, bb := NewBudget(400, 12), NewBudget(400, 12)
		dm := DefaultDelayModel()
		holders := []topology.NodeID{7, 99, 250}
		r := rng.New(42)
		for step := 0; step < 600; step++ {
			if step%50 == 0 {
				ba.Refill()
				bb.Refill()
			}
			src := PeerID(r.Intn(40)) // few sources → repeats → trees build+replay
			ra := engA.FloodQuery(src, 4, holders, ba, dm)
			rb := engB.FloodQuery(src, 4, holders, bb, dm)
			if ra != rb {
				t.Fatalf("mode %v step %d src %d: result diverged:\ncached:   %+v\nuncached: %+v", mode, step, src, ra, rb)
			}
			assertOverlayTrafficEqual(t, step, ovA, ovB)
			assertBudgetsEqual(t, step, ba, bb)
		}
		st := engA.CacheStats()
		if st.Builds == 0 || st.Hits == 0 {
			t.Fatalf("mode %v: cache never engaged: %+v", mode, st)
		}
	}
}

// TestCachedBatchByteIdentical does the same for fluid batches,
// including entry-restricted (spray-pattern) floods and weights big
// enough to clip.
func TestCachedBatchByteIdentical(t *testing.T) {
	for _, mode := range []CounterMode{CounterPhysical, CounterIdeal} {
		_, _, engA, engB := cachePair(t, 5, 300, 3)
		ovA, ovB := engA.ov, engB.ov
		engA.SetCounterMode(mode)
		engB.SetCounterMode(mode)
		ba, bb := NewBudget(300, 40), NewBudget(300, 40)
		r := rng.New(7)
		for step := 0; step < 500; step++ {
			if step%25 == 0 {
				ba.Refill()
				bb.Refill()
			}
			src := PeerID(r.Intn(20))
			entry := PeerID(-1)
			if step%3 == 0 {
				nbrs := ovA.Graph().Neighbors(src)
				entry = nbrs[r.Intn(len(nbrs))]
			}
			w := 0.5 + 3*r.Float64()
			ra := engA.FloodBatch(src, entry, 4, w, ba)
			rb := engB.FloodBatch(src, entry, 4, w, bb)
			if ra != rb {
				t.Fatalf("mode %v step %d src %d entry %d: batch diverged:\ncached:   %+v\nuncached: %+v", mode, step, src, entry, ra, rb)
			}
			assertOverlayTrafficEqual(t, step, ovA, ovB)
			assertBudgetsEqual(t, step, ba, bb)
		}
		st := engA.CacheStats()
		if st.Builds == 0 || st.Hits == 0 {
			t.Fatalf("mode %v: cache never engaged: %+v", mode, st)
		}
	}
}

// TestCacheInvalidationOnMutation mutates the overlay mid-sequence —
// churn (SetOnline), cuts and heals — and asserts the cached engine
// tracks the uncached one through every flush.
func TestCacheInvalidationOnMutation(t *testing.T) {
	_, _, engA, engB := cachePair(t, 23, 300, 3)
	ovA, ovB := engA.ov, engB.ov
	ba, bb := NewBudget(300, 1e9), NewBudget(300, 1e9)
	dm := DefaultDelayModel()
	holders := []topology.NodeID{120, 200}
	r := rng.New(99)
	mutate := func(step int) {
		v := PeerID(100 + r.Intn(100))
		switch step % 3 {
		case 0:
			on := !ovA.Online(v)
			ovA.SetOnline(v, on)
			ovB.SetOnline(v, on)
		case 1:
			w := ovA.Graph().Neighbors(v)[0]
			if err := ovA.Cut(v, w); err != nil {
				t.Fatal(err)
			}
			if err := ovB.Cut(v, w); err != nil {
				t.Fatal(err)
			}
		case 2:
			w := ovA.Graph().Neighbors(v)[0]
			ovA.Uncut(v, w)
			ovB.Uncut(v, w)
		}
	}
	for step := 0; step < 400; step++ {
		if step%40 == 39 {
			mutate(step)
		}
		src := PeerID(r.Intn(30))
		ra := engA.FloodQuery(src, 4, holders, ba, dm)
		rb := engB.FloodQuery(src, 4, holders, bb, dm)
		if ra != rb {
			t.Fatalf("step %d src %d: result diverged after mutation:\ncached:   %+v\nuncached: %+v", step, src, ra, rb)
		}
		assertOverlayTrafficEqual(t, step, ovA, ovB)
	}
	st := engA.CacheStats()
	if st.Flushes == 0 {
		t.Fatalf("mutations never flushed the cache: %+v", st)
	}
	if st.Hits == 0 || st.Builds == 0 {
		t.Fatalf("cache never re-engaged between mutations: %+v", st)
	}
}

// TestCacheEagerBuildAfterStability verifies the adaptive build policy:
// under a stable topology the engine switches from build-on-second-use
// to build-on-first-use once cacheBuildAfterFloods floods pass.
func TestCacheEagerBuildAfterStability(t *testing.T) {
	ov := lineGraph(t, 12)
	eng := NewEngine(ov)
	b := bigBudget(12)
	dm := DefaultDelayModel()
	// Burn past the stability threshold with one repeating source.
	for i := uint64(0); i < cacheBuildAfterFloods+1; i++ {
		eng.FloodQuery(0, 3, nil, b, dm)
	}
	before := eng.CacheStats()
	eng.FloodQuery(5, 3, nil, b, dm) // first use of a fresh key
	eng.FloodQuery(5, 3, nil, b, dm)
	after := eng.CacheStats()
	if after.Builds != before.Builds+1 {
		t.Fatalf("expected eager build on first use after stability, stats before=%+v after=%+v", before, after)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("expected replay hit on second use, stats before=%+v after=%+v", before, after)
	}
}

// linePair builds a cached and an uncached engine over identical
// 8-peer lines and returns the cached one with a comparator that floods
// from peer 0 on both (TTL 7, holder 6) and fails the test if results
// or budgets diverge.
func linePair(t *testing.T) (engA *Engine, flood func(step int, ba, bb *Budget)) {
	t.Helper()
	engA, engB := NewEngine(lineGraph(t, 8)), NewEngine(lineGraph(t, 8))
	engB.SetTraversalCache(false)
	dm := DefaultDelayModel()
	holders := []topology.NodeID{6}
	return engA, func(step int, ba, bb *Budget) {
		t.Helper()
		ra := engA.FloodQuery(0, 7, holders, ba, dm)
		rb := engB.FloodQuery(0, 7, holders, bb, dm)
		if ra != rb {
			t.Fatalf("step %d: diverged:\ncached:   %+v\nuncached: %+v", step, ra, rb)
		}
		assertBudgetsEqual(t, step, ba, bb)
	}
}

// starvedBudget funds only the first four peers of the line, so every
// flood from peer 0 clips at peer 4.
func starvedBudget() *Budget {
	b := NewBudget(8, 0)
	for i := 0; i < 4; i++ {
		b.PerTick[i] = 5
		b.Remaining[i] = 5
	}
	return b
}

// TestCacheSkipsSaturatedTree checks the build policy under saturation:
// a flood that clips is never stored and never rebuilt by a second
// traversal, so a source whose every flood clips costs the cache
// nothing but discarded recordings — and once the budget is restored
// the next flood records its tree and the one after replays it.
func TestCacheSkipsSaturatedTree(t *testing.T) {
	engA, flood := linePair(t)
	for step := 0; step < 10; step++ {
		flood(step, starvedBudget(), starvedBudget())
	}
	st := engA.CacheStats()
	if st.Builds != 0 || st.Fallbacks != 0 || st.Trees != 0 {
		t.Fatalf("clipped floods reached the cache: %+v", st)
	}
	if st.Discarded != 9 { // all but the first use, which only marks the key seen
		t.Fatalf("Discarded = %d, want 9: %+v", st.Discarded, st)
	}
	// Recovery: the key stayed eligible, so the first unclipped flood
	// is the recording and the second is a hit.
	flood(10, bigBudget(8), bigBudget(8))
	if st = engA.CacheStats(); st.Builds != 1 || st.Hits != 0 {
		t.Fatalf("restored budget did not record a tree: %+v", st)
	}
	flood(11, bigBudget(8), bigBudget(8))
	if st = engA.CacheStats(); st.Builds != 1 || st.Hits != 1 || st.Discarded != 9 {
		t.Fatalf("recorded tree did not replay: %+v", st)
	}
}

// TestCacheSkipAfterPrecheckFailures checks the physical-mode fallback
// path: a tree recorded while unsaturated whose precheck then keeps
// failing stops attempting replay until the next flush, and the engine
// keeps producing correct (live) results.
func TestCacheSkipAfterPrecheckFailures(t *testing.T) {
	engA, flood := linePair(t)
	flood(0, bigBudget(8), bigBudget(8)) // first use: key marked seen
	flood(1, bigBudget(8), bigBudget(8)) // second use: tree recorded
	if st := engA.CacheStats(); st.Builds != 1 {
		t.Fatalf("unsaturated flood did not record a tree: %+v", st)
	}
	for step := 2; step < 12; step++ {
		flood(step, starvedBudget(), starvedBudget())
	}
	st := engA.CacheStats()
	if st.Fallbacks != uint64(cacheSkipAfterFails) {
		t.Fatalf("Fallbacks = %d, want the skip flag armed after %d: %+v", st.Fallbacks, cacheSkipAfterFails, st)
	}
	if st.Builds != 1 || st.Discarded != 0 {
		t.Fatalf("a skipped tree was rebuilt or re-recorded: %+v", st)
	}
}

// TestFairShareTracksChurn is the regression test for the stale-share
// bug: EnableFairShare used to split capacity by *static* degree once,
// so a peer whose neighbor left kept the old (smaller) per-link share
// and a rejoining peer's links were never re-capped. The split must
// follow the overlay's active degree across churn.
func TestFairShareTracksChurn(t *testing.T) {
	ov := star(t, 5) // hub 0 with leaves 1..4
	b := NewBudget(5, 8)
	b.EnableFairShare(ov)
	hub := PeerID(0)
	e1, _ := ov.FindEdge(1, hub) // arrival edge 1 -> hub
	if got := b.arrivalCap(hub, e1); got != 2 {
		t.Fatalf("initial share: got %v, want capacity/degree = 8/4 = 2", got)
	}
	// Two leaves leave: the hub's capacity now splits across 2 links.
	ov.SetOnline(3, false)
	ov.SetOnline(4, false)
	b.Refill()
	if got := b.arrivalCap(hub, e1); got != 4 {
		t.Fatalf("share after churn: got %v, want 8/2 = 4", got)
	}
	// One leaf rejoins; its link must be re-capped, not left at zero or
	// at a stale value.
	ov.SetOnline(3, true)
	b.Refill()
	e3, _ := ov.FindEdge(3, hub)
	if got := b.arrivalCap(hub, e3); got != 8.0/3 {
		t.Fatalf("rejoined link share: got %v, want 8/3", got)
	}
	if got := b.arrivalCap(hub, e1); got != 8.0/3 {
		t.Fatalf("surviving link share: got %v, want 8/3", got)
	}
	// A cut edge also changes the split.
	if err := ov.Cut(hub, 1); err != nil {
		t.Fatal(err)
	}
	b.Refill()
	if got := b.arrivalCap(hub, e3); got != 4 {
		t.Fatalf("share after cut: got %v, want 8/2 = 4", got)
	}
}

// TestAdjacencyRowsMatchFullRebuild is the property test for the
// changed-row snapshot: across seeded random SetOnline/Cut/Uncut
// sequences (rejoins clearing cuts, a partition applied and healed), a
// cache that revalidates every step and one that lags past the
// overlay's change-log bound both hold, row for row, exactly what a
// cache built from scratch on the same overlay holds.
func TestAdjacencyRowsMatchFullRebuild(t *testing.T) {
	const n = 300
	for seed := uint64(1); seed <= 3; seed++ {
		g, err := topology.BarabasiAlbert(rng.New(seed), n, 3)
		if err != nil {
			t.Fatal(err)
		}
		ov := overlay.New(g)
		prompt, laggard := newTravCache(ov), newTravCache(ov)
		prompt.ensure()
		laggard.ensure()
		src := rng.New(500 + seed)
		var partition [][2]PeerID
		for step := 1; step <= 1200; step++ {
			v := PeerID(src.Intn(n))
			ns := g.Neighbors(v)
			switch src.Intn(7) {
			case 0, 1, 2:
				ov.SetOnline(v, !ov.Online(v))
			case 3, 4:
				if err := ov.Cut(v, ns[src.Intn(len(ns))]); err != nil {
					t.Fatal(err)
				}
			case 5:
				ov.Uncut(v, ns[src.Intn(len(ns))])
			case 6:
				if len(partition) > 0 {
					for _, e := range partition {
						ov.Uncut(e[0], e[1])
					}
					partition = partition[:0]
					break
				}
				for _, w := range ns { // isolate v, as a one-peer partition does
					if err := ov.Cut(v, w); err != nil {
						t.Fatal(err)
					}
					partition = append(partition, [2]PeerID{v, w})
				}
			}
			caches := []*travCache{prompt}
			if step%150 == 0 {
				caches = append(caches, laggard)
			}
			fresh := newTravCache(ov)
			fresh.ensure()
			for _, c := range caches {
				c.ensure()
				for u := PeerID(0); u < n; u++ {
					gotP, gotE := c.adj(u)
					wantP, wantE := fresh.adj(u)
					if len(gotP) != len(wantP) {
						t.Fatalf("seed %d step %d: row %d has %d entries, full rebuild %d", seed, step, u, len(gotP), len(wantP))
					}
					for i := range wantP {
						if gotP[i] != wantP[i] || gotE[i] != wantE[i] {
							t.Fatalf("seed %d step %d: row %d entry %d = (%d, e%d), full rebuild (%d, e%d)",
								seed, step, u, i, gotP[i], gotE[i], wantP[i], wantE[i])
						}
					}
				}
			}
		}
		if _, ok := ov.ChangedSince(0, nil); ok {
			t.Fatalf("seed %d: the change log never wrapped, so the laggard never lagged", seed)
		}
	}
}
