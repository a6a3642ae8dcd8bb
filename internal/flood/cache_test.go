package flood

import (
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
	"ddpolice/internal/workload"
)

// cachePair builds two independent overlays over the same static graph,
// both counting traffic, and one engine on each: A with the traversal
// cache, B without. Graphs are immutable, so sharing one is safe.
func cachePair(t *testing.T, seed uint64, n, m int) (ovA, ovB *overlay.Overlay, engA, engB *Engine) {
	t.Helper()
	g, err := topology.BarabasiAlbert(rng.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	ovA, ovB = overlay.New(g), overlay.New(g)
	ovA.CountTraffic()
	ovB.CountTraffic()
	engA, engB = NewEngine(ovA), NewEngine(ovB)
	engB.SetTraversalCache(false)
	if !engA.TraversalCacheEnabled() || engB.TraversalCacheEnabled() {
		t.Fatal("cache toggle wiring broken")
	}
	return ovA, ovB, engA, engB
}

// assertOverlayTrafficEqual compares the accumulating per-edge counters
// bit for bit, and fails when every counter reads zero: two planes that
// counted nothing agree without proving anything.
func assertOverlayTrafficEqual(t *testing.T, step int, ovA, ovB *overlay.Overlay) {
	t.Helper()
	counted := false
	for e := 0; e < ovA.NumDirectedEdges(); e++ {
		a := ovA.CurrentMinuteEdge(overlay.EdgeID(e))
		b := ovB.CurrentMinuteEdge(overlay.EdgeID(e))
		if a != b {
			t.Fatalf("step %d: edge %d traffic diverged: cached=%v uncached=%v", step, e, a, b)
		}
		counted = counted || a != 0
	}
	if !counted {
		t.Fatalf("step %d: no edge counted any traffic", step)
	}
}

func assertBudgetsEqual(t *testing.T, step int, ba, bb *Budget) {
	t.Helper()
	for i := range ba.remaining {
		if ba.remaining[i] != bb.remaining[i] {
			t.Fatalf("step %d: peer %d budget diverged: cached=%v uncached=%v", step, i, ba.remaining[i], bb.remaining[i])
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
		holders := replicas(t, 400, 7, 99, 250)
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

// TestCachedReplayFloorByteIdentical holds the precheck skip to the
// uncached engine: a per-tick allowance of a few floods lets
// Budget.floor cross one between refills, so physical query replays run
// both without the precheck and with it; every key is prewarmed, so
// replays start at the first flood. Each change to the cells under the
// floor lands just after a refill, while replays still skip: the
// control reserve halves every allowance once, a hub browns out below
// one token and is restored, and fluid batches charge fractions.
// Results, edge counters and budgets must stay bit-equal.
func TestCachedReplayFloorByteIdentical(t *testing.T) {
	const n = 300
	_, _, engA, engB := cachePair(t, 17, n, 3)
	ovA, ovB := engA.ov, engB.ov
	ba, bb := NewBudget(n, 8), NewBudget(n, 8)
	dm := DefaultDelayModel()
	holders := replicas(t, n, 9, 150, 280)
	var keys []TreeKey
	for src := PeerID(0); src < 12; src++ { // replays from the first flood on
		keys = append(keys, TreeKey{Src: src, Entry: -1, TTL: 4}, TreeKey{Src: src, Entry: -1, TTL: 3})
	}
	engA.PrewarmTrees(keys, 1)
	r := rng.New(3)
	hub := PeerID(0)
	for step := 0; step < 2000; step++ {
		switch {
		case step%8 == 0:
			ba.Refill()
			bb.Refill()
		case step == 9:
			ba.ReserveControl(0.5) // every allowance 8 -> 4
			bb.ReserveControl(0.5)
		case step%96 == 33:
			hub = PeerID(r.Intn(12)) // the low ids are BA hubs
			ba.SetCapacity(hub, 0.5)
			bb.SetCapacity(hub, 0.5)
		case step%96 == 65:
			ba.SetCapacity(hub, 4)
			bb.SetCapacity(hub, 4)
		}
		src := PeerID(r.Intn(12))
		if step%5 == 4 {
			w := 0.25 + r.Float64()
			ra, rb := engA.FloodBatch(src, -1, 3, w, ba), engB.FloodBatch(src, -1, 3, w, bb)
			if ra != rb {
				t.Fatalf("step %d src %d: batch diverged:\ncached:   %+v\nuncached: %+v", step, src, ra, rb)
			}
		} else {
			ra, rb := engA.FloodQuery(src, 4, holders, ba, dm), engB.FloodQuery(src, 4, holders, bb, dm)
			if ra != rb {
				t.Fatalf("step %d src %d: query diverged:\ncached:   %+v\nuncached: %+v", step, src, ra, rb)
			}
		}
		assertOverlayTrafficEqual(t, step, ovA, ovB)
		assertBudgetsEqual(t, step, ba, bb)
	}
	if st := engA.CacheStats(); st.Hits == 0 || st.Fallbacks == 0 {
		t.Fatalf("replays never ran both with and without a failing precheck: %+v", st)
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
	holders := replicas(t, 300, 120, 200)
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

// TestCacheRecordsOnSecondSighting holds the build policy on a stable
// topology long past any warm-up: a key's tree is recorded on its
// second sighting and replayed from its third, and a source that floods
// once records nothing however long connectivity has held still.
func TestCacheRecordsOnSecondSighting(t *testing.T) {
	const n = 400
	_, _, eng, _ := cachePair(t, 31, n, 3)
	b := bigBudget(n)
	dm := DefaultDelayModel()
	for i := 0; i < 500; i++ { // one repeating source, well past 192 floods
		eng.FloodQuery(0, 3, workload.Replicas{}, b, dm)
	}
	before := eng.CacheStats()
	if before.Builds != 1 || before.Hits != 498 {
		t.Fatalf("repeating source: want 1 build and 498 replays, got %+v", before)
	}
	for src := PeerID(1); src <= 300; src++ { // 300 one-shot sources
		eng.FloodQuery(src, 3, workload.Replicas{}, b, dm)
	}
	if st := eng.CacheStats(); st.Builds != before.Builds || st.Hits != before.Hits || st.Trees != 1 {
		t.Fatalf("one-shot sources recorded trees: before %+v after %+v", before, st)
	}
	for use, want := range []CacheStats{
		{Builds: 1, Hits: 498}, // first sighting: marked seen only
		{Builds: 2, Hits: 498}, // second: recorded
		{Builds: 2, Hits: 499}, // third: replayed
	} {
		eng.FloodQuery(350, 3, workload.Replicas{}, b, dm)
		if st := eng.CacheStats(); st.Builds != want.Builds || st.Hits != want.Hits {
			t.Fatalf("use %d of a fresh key: want builds=%d hits=%d, got %+v", use+1, want.Builds, want.Hits, st)
		}
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
	holders := replicas(t, 8, 6)
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
		b.perTick[i] = 5
		b.remaining[i] = 5
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
	e1 := ov.EdgeID(1, 0) // arrival edge 1 -> hub, leaf 1's one edge
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
	e3 := ov.EdgeID(3, 0)
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

// TestReplayLeavesTheLiveCells holds the per-peer state a replay leaves
// to the live BFS's. A query's cells carry no parent or hop in the tree
// (replay derives both from the visit's node), so after every flood each
// peer must agree on whether this flood visited it, its hop, its parent
// and whether the copy is alive there. A batch's cells are compared as
// well, although nothing reads cells after a batch (FloodBatch), so the
// two paths stay interchangeable. Its masses are compared too: the
// replay derives the mass that reached each peer from its node's peer,
// as the live BFS does, and the per-peer masses can differ where the
// result's sums agree. Every source floods three times: once to be
// seen, once to record, once to replay.
func TestReplayLeavesTheLiveCells(t *testing.T) {
	const n = 400
	for _, tc := range []struct {
		name    string
		mode    CounterMode
		batch   bool
		perTick float64
		refill  int                      // floods between refills; 0 = never
		replay  func(b *Budget)          // run before the replaying round
		check   func(st CacheStats) bool // the path was exercised
	}{
		{"physical, floor >= 1", CounterPhysical, false, 1e9, 0, nil,
			func(st CacheStats) bool { return st.Hits == n && st.Fallbacks == 0 }},
		// A peer browned out after recording fails the precheck of
		// every tree through it, and the rest pass it.
		{"physical, floor < 1", CounterPhysical, false, 1e9, 0, func(b *Budget) { b.SetCapacity(n-1, 0.5) },
			func(st CacheStats) bool { return st.Hits > 0 && st.Fallbacks > 0 }},
		{"ideal, clipping", CounterIdeal, false, 6, 8, nil,
			func(st CacheStats) bool { return st.Hits == n }},
		{"batch", CounterPhysical, true, 0, 1, nil,
			func(st CacheStats) bool { return st.Hits == n }},
	} {
		_, _, engA, engB := cachePair(t, 41, n, 3)
		engA.SetCounterMode(tc.mode)
		engB.SetCounterMode(tc.mode)
		ba, bb := NewBudget(n, tc.perTick), NewBudget(n, tc.perTick)
		if tc.batch {
			// Uneven capacities make each peer's mass depend on its path.
			r := rng.New(8)
			for v := PeerID(0); v < n; v++ {
				c := 0.5 + 2*r.Float64()
				ba.SetCapacity(v, c)
				bb.SetCapacity(v, c)
			}
		}
		ba.Refill()
		bb.Refill()
		dm := DefaultDelayModel()
		holders := replicas(t, n, 3, 77, 250, 390)
		clipped := false
		for round := 0; round < 3; round++ {
			if round == 2 {
				engA.cache.stats = CacheStats{}
				if tc.replay != nil {
					tc.replay(ba)
					tc.replay(bb)
				}
			}
			for src := PeerID(0); src < n; src++ {
				step := round*n + int(src)
				if tc.refill > 0 && step%tc.refill == 0 {
					ba.Refill()
					bb.Refill()
				}
				if tc.batch {
					w := 1 + float64(src%3)
					ra, rb := engA.FloodBatch(src, -1, 3, w, ba), engB.FloodBatch(src, -1, 3, w, bb)
					if ra != rb {
						t.Fatalf("%s: flood %d: batch diverged:\ncached:   %+v\nuncached: %+v", tc.name, step, ra, rb)
					}
					clipped = clipped || ra.CapacityDrops > 0
					for v, c := range engB.cells {
						if c.seen == engB.epoch && engA.mass[v] != engB.mass[v] {
							t.Fatalf("%s: flood %d: peer %d mass %v, live %v", tc.name, step, v, engA.mass[v], engB.mass[v])
						}
					}
				} else {
					ra, rb := engA.FloodQuery(src, 3, holders, ba, dm), engB.FloodQuery(src, 3, holders, bb, dm)
					if ra != rb {
						t.Fatalf("%s: flood %d: query diverged:\ncached:   %+v\nuncached: %+v", tc.name, step, ra, rb)
					}
					clipped = clipped || ra.CapacityDrops > 0
				}
				assertCellsEqual(t, tc.name, step, engA, engB)
				assertBudgetsEqual(t, step, ba, bb)
			}
		}
		if st := engA.CacheStats(); !tc.check(st) {
			t.Errorf("%s: the replaying round did not take its path: %+v", tc.name, st)
		}
		if (tc.mode == CounterIdeal || tc.batch) && !clipped {
			t.Errorf("%s: no flood clipped", tc.name)
		}
	}
}

// assertCellsEqual compares every peer's state after one flood on two
// engines: visited by this flood, and if so its hop, parent and liveness.
func assertCellsEqual(t *testing.T, name string, step int, a, b *Engine) {
	t.Helper()
	for v := range a.cells {
		ca, cb := a.cells[v], b.cells[v]
		seen := ca.seen == a.epoch
		if seen != (cb.seen == b.epoch) || seen && (ca.hop != cb.hop || ca.parent != cb.parent || ca.alive != cb.alive) {
			t.Fatalf("%s: flood %d: peer %d left %+v (seen %v), live %+v (seen %v)",
				name, step, v, ca, seen, cb, cb.seen == b.epoch)
		}
	}
}

// TestCachedTreeBytesPerVisit is the ceiling on what the cache stores:
// with every source of a BA(2000, 3) overlay recorded at TTL 3, its
// visits and nodes take at most 12 bytes per visit (a 16-byte visit
// alone took more), and PeakTreeBytes reports exactly that sum.
func TestCachedTreeBytesPerVisit(t *testing.T) {
	const n = 2000
	g, err := topology.BarabasiAlbert(rng.New(1), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(overlay.New(g))
	keys := make([]TreeKey, n)
	for src := range keys {
		keys[src] = TreeKey{Src: PeerID(src), Entry: -1, TTL: 3}
	}
	if built := e.PrewarmTrees(keys, 1); built != n {
		t.Fatalf("recorded %d trees, want %d", built, n)
	}
	var visits, nodes uint64
	for _, tr := range e.cache.trees {
		visits += uint64(len(tr.visits))
		nodes += uint64(len(tr.nodes))
	}
	bytes := visits*visitBytes + nodes*nodeBytes
	if per := float64(bytes) / float64(visits); per > 12 {
		t.Errorf("%d trees: %d visits, %d nodes, %d bytes: %.1f B per visit, want at most 12", n, visits, nodes, bytes, per)
	}
	if st := e.CacheStats(); st.Flushes != 0 || st.PeakTreeBytes != bytes {
		t.Errorf("PeakTreeBytes = %d after %d flushes, want the %d bytes cached", st.PeakTreeBytes, st.Flushes, bytes)
	}
}

// rebuiltOverlay builds a fresh overlay over ov's graph and brings it to
// ov's state: the offline peers leave first (a leave clears the cuts on
// a peer's edges), then every cut edge is cut. Its rows carry none of
// ov's mutation history.
func rebuiltOverlay(t *testing.T, ov *overlay.Overlay) *overlay.Overlay {
	t.Helper()
	g := ov.Graph()
	fresh := overlay.New(g)
	for v := PeerID(0); v < PeerID(ov.NumPeers()); v++ {
		if !ov.Online(v) {
			fresh.SetOnline(v, false)
		}
	}
	for v := PeerID(0); v < PeerID(ov.NumPeers()); v++ {
		for k, w := range g.Neighbors(v) {
			if v < w && ov.EdgeCut(ov.EdgeID(v, k)) {
				if err := fresh.Cut(v, w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return fresh
}

// TestAdjacencyRowsMatchFullRebuild checks the rows every flood BFS,
// replay and prewarm build walks (overlay.Active) against a full
// rebuild: after each step of a random sequence of flips, cuts, uncuts
// and one-peer partitions, each row, peers and edge ids in order,
// equals the row of a fresh overlay brought to the same state.
func TestAdjacencyRowsMatchFullRebuild(t *testing.T) {
	const n = 300
	for seed := uint64(1); seed <= 3; seed++ {
		g, err := topology.BarabasiAlbert(rng.New(seed), n, 3)
		if err != nil {
			t.Fatal(err)
		}
		ov := overlay.New(g)
		src := rng.New(500 + seed)
		var partition [][2]PeerID
		cuts := 0
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
			cuts = max(cuts, ov.CutCount())
			fresh := rebuiltOverlay(t, ov)
			for u := PeerID(0); u < n; u++ {
				gotP, gotE := ov.Active(u)
				wantP, wantE := fresh.Active(u)
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
		if cuts == 0 {
			t.Fatalf("seed %d: no edge was ever cut, so the rebuild never replayed a cut", seed)
		}
	}
}
