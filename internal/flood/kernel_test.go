package flood

import (
	"fmt"
	"math"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// eagerTree is the reference's per-peer first-visit tree: whether the
// query reached each peer, at which hop, from which parent, and whether
// the copy was processed there (a dead or dropped copy has delay -1).
type eagerTree struct {
	seen   []bool
	hop    []int32
	parent []PeerID
	delay  []float64
}

// eagerQuery is the reference the on-demand delay is held to: a plain
// BFS that computes delay[v] = delay[parent] + hopDelay(Utilization(v))
// at every visit, the way the engine did before pathDelay, and scores
// the holders from those arrays. It is the only eager copy left. The
// tree is nil when the query never left src.
func eagerQuery(ov *overlay.Overlay, mode CounterMode, b *Budget, src PeerID, ttl int, holders []topology.NodeID, dm DelayModel) (QueryResult, *eagerTree) {
	res := QueryResult{FirstHitHops: -1}
	if ttl <= 0 || !ov.Online(src) {
		return res, nil
	}
	n := ov.NumPeers()
	seen, hop, parent, delay := make([]bool, n), make([]int32, n), make([]PeerID, n), make([]float64, n)
	seen[src], parent[src] = true, noParent
	frontier := []PeerID{src}
	for depth := int32(1); int(depth) <= ttl && len(frontier) > 0; depth++ {
		var next []PeerID
		for _, u := range frontier {
			nbrs, eids := ov.Active(u)
			for k, v := range nbrs {
				if v == parent[u] {
					continue
				}
				res.QueryMessages++
				if seen[v] {
					res.DupMessages++
					continue
				}
				eid := eids[k]
				ov.AddTraffic(eid, 1)
				seen[v], hop[v], parent[v], delay[v] = true, depth, u, -1
				forwarded := delay[u] >= 0
				if forwarded && b.arrivalCap(v, eid) < 1 {
					forwarded = false
					res.CapacityDrops++
				}
				if forwarded {
					b.take(v, eid, 1)
					res.Processed++
					delay[v] = delay[u] + dm.hopDelay(b.Utilization(v))
				} else if mode == CounterPhysical {
					continue
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
	for _, h := range holders {
		if h == src || !seen[h] || delay[h] < 0 {
			continue
		}
		res.HitHolders++
		res.HitMessages += float64(hop[h])
		if !res.Hit || int(hop[h]) < res.FirstHitHops {
			res.Hit, res.FirstHitHops = true, int(hop[h])
			res.ResponseDelay = delay[h] + float64(hop[h])*dm.HopDelay
		}
	}
	return res, &eagerTree{seen, hop, parent, delay}
}

// assertCellsMatchTree holds the engine's cells of its last flood to
// the reference tree, peer by peer: visited, hop, parent and alive.
func assertCellsMatchTree(t *testing.T, at string, e *Engine, ref *eagerTree) {
	t.Helper()
	for v, c := range e.cells {
		seen := c.seen == e.epoch
		if seen != ref.seen[v] {
			t.Fatalf("%s: peer %d visited = %v, want %v", at, v, seen, ref.seen[v])
		}
		if !seen {
			continue
		}
		if want := (cell{seen: c.seen, hop: ref.hop[v], parent: ref.parent[v], alive: ref.delay[v] >= 0}); c != want {
			t.Fatalf("%s: peer %d cell = %+v, want %+v", at, v, c, want)
		}
	}
}

// TestQueryResultMatchesEagerReference: the lazy delay is the eager
// delay. Three lanes flood the same sequence over the same BA overlay —
// the eager reference, an engine with the traversal cache and one
// without — under budgets drained by the earlier floods of the tick,
// utilization carried over Refill, offline peers and cut edges, with
// fair-share on and off in both counter planes; halfway through, a peer
// leaves (the trees flush and build again) and a few allowances fall
// below one token or to zero (in the physical plane every flood through
// them then clips, so the second half is recordings discarded and live
// floods). Whole QueryResults are compared with == (floats bitwise),
// and after every flood each engine's per-peer cells (visited, hop,
// parent, alive) must be the reference's tree: the replay writes them
// as the live BFS does.
func TestQueryResultMatchesEagerReference(t *testing.T) {
	const n, ticks, floodsPerTick = 300, 12, 60
	dm := DefaultDelayModel()
	for _, mode := range []CounterMode{CounterPhysical, CounterIdeal} {
		for _, fair := range []bool{false, true} {
			for seed := uint64(3); seed <= 4; seed++ {
				name := fmt.Sprintf("mode=%d fair=%v seed=%d", mode, fair, seed)
				g, err := topology.BarabasiAlbert(rng.New(seed), n, 3)
				if err != nil {
					t.Fatal(err)
				}
				// Lane 0 is the reference, 1 the cached engine, 2 the
				// uncached one; each owns its overlay and budget.
				var ovs [3]*overlay.Overlay
				var buds [3]*Budget
				var engs [3]*Engine
				// Fair-share splits an allowance over the peer's links: give
				// hubs a share above one token, or every flood clips there.
				perTick := 20.0
				if fair {
					perTick = 400
				}
				r := rng.New(seed * 101)
				setup := rng.New(seed * 977)
				for l := range ovs {
					ovs[l] = overlay.New(g)
					ovs[l].CountTraffic()
					buds[l] = NewBudget(n, perTick)
					if l > 0 {
						engs[l] = NewEngine(ovs[l])
						engs[l].SetCounterMode(mode)
						engs[l].SetTraversalCache(l == 1)
					}
				}
				for i := 0; i < 12; i++ {
					off, u := PeerID(40+setup.Intn(n-40)), PeerID(setup.Intn(n))
					w := g.Neighbors(u)[setup.Intn(len(g.Neighbors(u)))]
					for l := range ovs {
						ovs[l].SetOnline(off, false)
						if err := ovs[l].Cut(u, w); err != nil {
							t.Fatal(err)
						}
					}
				}
				if fair {
					for l := range ovs {
						buds[l].EnableFairShare(ovs[l])
					}
				}
				for tick := 0; tick < ticks; tick++ {
					slow, dead := PeerID(setup.Intn(n)), PeerID(setup.Intn(n))
					for l := range ovs {
						buds[l].Refill()
						if tick == ticks/2 {
							ovs[l].SetOnline(PeerID(39), false) // flush: trees build again
						}
						if tick >= ticks/2 {
							buds[l].SetCapacity(slow, 0.5)
							buds[l].SetCapacity(dead, 0)
						}
					}
					for f := 0; f < floodsPerTick; f++ {
						src, ttl := PeerID(r.Intn(12)), 3+r.Intn(2)
						holders := make([]topology.NodeID, 6)
						for i := range holders {
							holders[i] = topology.NodeID(r.Intn(n))
						}
						var res [3]QueryResult
						var ref *eagerTree
						res[0], ref = eagerQuery(ovs[0], mode, buds[0], src, ttl, holders, dm)
						for l := 1; l < 3; l++ {
							res[l] = engs[l].FloodQuery(src, ttl, holders, buds[l], dm)
							if res[l] != res[0] {
								t.Fatalf("%s tick %d flood %d src %d lane %d:\n got %+v\nwant %+v", name, tick, f, src, l, res[l], res[0])
							}
							if ref != nil {
								assertCellsMatchTree(t, fmt.Sprintf("%s tick %d flood %d lane %d", name, tick, f, l), engs[l], ref)
							}
						}
					}
					for l := 1; l < 3; l++ {
						assertBudgetsEqual(t, tick, buds[l], buds[0])
						assertOverlayTrafficEqual(t, tick, ovs[l], ovs[0])
					}
				}
				// Every path ran: replay, recording build, precheck fallback
				// (the ideal plane has no precheck); lane 2 is the live path.
				c := engs[1].CacheStats()
				if c.Hits == 0 || c.Builds == 0 || (mode == CounterPhysical && c.Fallbacks == 0) {
					t.Fatalf("%s: the cached lane missed a path: %+v", name, c)
				}
			}
		}
	}
}

// TestBudgetConservationProperty drives a Budget through seeded random
// sequences of FloodQuery, FloodBatch, SetCapacity, Refill and churn
// and checks after every operation that tokens stay within their
// bounds and that, summed over every peer, they left only by being
// processed. Each seed is its own subtest and a failure ends in the
// command that reruns it alone.
func TestBudgetConservationProperty(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { budgetConservation(t, seed) })
	}
}

func budgetConservation(t *testing.T, seed uint64) {
	const n, steps = 200, 1500
	r := rng.New(seed)
	g, err := topology.BarabasiAlbert(rng.New(seed+1000), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	ov := overlay.New(g)
	eng := NewEngine(ov)
	// The seed's low bits choose the configuration: counter plane,
	// fair-share, and whether SetCapacity may grant sub-1.0 allowances.
	mode, fair, frac := CounterPhysical, seed&2 != 0, seed&4 != 0
	if seed&1 != 0 {
		mode = CounterIdeal
	}
	eng.SetCounterMode(mode)
	b := NewBudget(n, 8)
	if fair {
		b.EnableFairShare(ov)
	}
	capacities := []float64{0, 1, 3, 8, 25}
	if frac {
		capacities = append(capacities, 0.25, 0.6)
	}
	dm := DefaultDelayModel()

	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: %s\nrepro: go test ./internal/flood -run 'TestBudgetConservationProperty/seed=%d'", step, fmt.Sprintf(format, args...), seed)
	}
	// processed is this tick's processed tokens; clean says no
	// SetCapacity has run since the last Refill.
	processed, clean := 0.0, true
	check := func(step int, op string) {
		t.Helper()
		for v := range b.remaining {
			rem, per := b.remaining[v], b.perTick[v]
			if rem < 0 || rem > math.Max(per, 1) {
				fail(step, "after %s: Remaining[%d] = %v outside [0, max(PerTick=%v, 1)]", op, v, rem, per)
			}
		}
		for e, rem := range b.edgeRemaining {
			limit := b.edgePerTick[e]
			if limit > 0 && limit < 1 {
				limit = 1 // a sub-1.0 share accumulates up to one token
			}
			if rem < 0 || rem > limit {
				fail(step, "after %s: edgeRemaining[%d] = %v outside [0, %v]", op, e, rem, limit)
			}
		}
		// Conservation: with whole-token allowances and no capacity
		// change this tick, what the peers are short of is exactly what
		// the floods report as processed.
		if mode == CounterPhysical && !frac && clean {
			spent := 0.0
			for v := range b.remaining {
				spent += b.perTick[v] - b.remaining[v]
			}
			if math.Abs(spent-processed) > 1e-6*(1+processed) {
				fail(step, "after %s: peers are short %v tokens, floods processed %v", op, spent, processed)
			}
		}
	}

	for step := 0; step < steps; step++ {
		op := ""
		switch p := r.Intn(100); {
		case p < 60:
			op = "FloodQuery"
			holders := []topology.NodeID{topology.NodeID(r.Intn(n)), topology.NodeID(r.Intn(n))}
			processed += float64(eng.FloodQuery(PeerID(r.Intn(30)), 1+r.Intn(5), holders, b, dm).Processed)
		case p < 88:
			op = "FloodBatch"
			src, entry := PeerID(r.Intn(30)), PeerID(-1)
			if r.Intn(2) == 0 {
				entry = g.Neighbors(src)[r.Intn(len(g.Neighbors(src)))]
			}
			processed += eng.FloodBatch(src, entry, 1+r.Intn(5), float64(1+r.Intn(40)), b).ProcessedMass
		case p < 90:
			op = "SetCapacity"
			b.SetCapacity(PeerID(r.Intn(n)), capacities[r.Intn(len(capacities))])
			clean = false
		case p < 92:
			op = "SetOnline"
			v := PeerID(30 + r.Intn(n-30)) // sources stay up
			ov.SetOnline(v, !ov.Online(v))
		default:
			op = "Refill"
			b.Refill()
			processed, clean = 0, true
		}
		check(step, op)
	}
}
