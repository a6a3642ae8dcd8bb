package flood

import (
	"fmt"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
)

// The hop-distance oracle. An uncongested flood is a function of hop
// distances alone (the per-source form of Biernacki's flooding analysis,
// PAPERS.md): every peer within TTL hops of the source processes the
// query once, every peer short of the horizon sends one copy on each
// active edge but the one it heard from, and every copy beyond the first
// a peer receives is a duplicate. The oracle builds whole QueryResults
// and BatchResults from that closed form and nothing of the engine's.

// hopDistances returns d(v), the hop distance from src over active
// edges, or -1 for a peer the flood cannot reach. With entry >= 0 the
// flood leaves src through entry alone: d(entry) = 1, and the rest is a
// BFS from entry with src already visited.
func hopDistances(ov *overlay.Overlay, src, entry PeerID) []int {
	d := make([]int, ov.NumPeers())
	for v := range d {
		d[v] = -1
	}
	d[src] = 0
	frontier := []PeerID{src}
	if entry >= 0 {
		d[entry] = 1
		frontier = []PeerID{entry}
	}
	var nbrs []PeerID
	for len(frontier) > 0 {
		var next []PeerID
		for _, u := range frontier {
			nbrs = ov.ActiveNeighbors(u, nbrs[:0])
			for _, v := range nbrs {
				if d[v] < 0 {
					d[v] = d[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return d
}

// oracleCounts returns the peers that process a flood of the given TTL,
// #{v : 1 <= d(v) <= ttl}, and the copies it puts on the wire: each
// peer with d(v) <= ttl-1 sends to every active neighbour but its
// parent; the source, which has none, sends to all of them, or only to
// entry when one is set.
func oracleCounts(ov *overlay.Overlay, d []int, ttl int, entry PeerID) (processed int, messages float64) {
	for v, dv := range d {
		if dv < 0 || dv > ttl {
			continue
		}
		if dv >= 1 {
			processed++
		}
		if dv <= ttl-1 {
			nbrs, _ := ov.Active(PeerID(v))
			sent := len(nbrs)
			switch {
			case dv > 0:
				sent--
			case entry >= 0:
				sent = 1
			}
			messages += float64(sent)
		}
	}
	return processed, messages
}

// oracleQuery is the expected FloodQuery result. A responder is a holder
// other than the source within TTL hops; the first response travels
// FirstHitHops hops out at HopDelay each (no queueing: dm has none) and
// as many back.
func oracleQuery(ov *overlay.Overlay, d []int, src PeerID, ttl int, holders []topology.NodeID, dm DelayModel) QueryResult {
	res := QueryResult{FirstHitHops: -1}
	res.Processed, res.QueryMessages = oracleCounts(ov, d, ttl, -1)
	res.DupMessages = res.QueryMessages - float64(res.Processed)
	for _, h := range holders {
		if dh := d[h]; h != src && dh >= 1 && dh <= ttl {
			res.HitHolders++
			res.HitMessages += float64(dh)
			if !res.Hit || dh < res.FirstHitHops {
				res.Hit, res.FirstHitHops = true, dh
			}
		}
	}
	if res.Hit {
		for range res.FirstHitHops {
			res.ResponseDelay += dm.HopDelay
		}
		res.ResponseDelay += float64(res.FirstHitHops) * dm.HopDelay
	}
	return res
}

// oracleBatch is the expected FloodBatch result at weight 1.
func oracleBatch(ov *overlay.Overlay, d []int, ttl int, entry PeerID) BatchResult {
	processed, messages := oracleCounts(ov, d, ttl, entry)
	return BatchResult{
		QueryMessages: messages,
		DupMessages:   messages - float64(processed),
		ProcessedMass: float64(processed),
		PeersReached:  processed,
	}
}

// oracleOverlay is BA(200, m=3, seed 5), the graph the message-level
// simulator was cross-validated on, intact or damaged: a third of the
// peers offline and twenty live edges cut, so some online peers sit
// beyond any flood's reach.
func oracleOverlay(t *testing.T, damaged bool) *overlay.Overlay {
	t.Helper()
	g, err := topology.BarabasiAlbert(rng.New(5), 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	ov := overlay.New(g)
	if !damaged {
		return ov
	}
	r := rng.New(6)
	n := ov.NumPeers()
	for _, v := range r.Perm(n)[:n/3] {
		ov.SetOnline(PeerID(v), false)
	}
	for cuts := 0; cuts < 20; {
		u := PeerID(r.Intn(n))
		if nbrs := ov.ActiveNeighbors(u, nil); len(nbrs) > 0 {
			if err := ov.Cut(u, nbrs[r.Intn(len(nbrs))]); err != nil {
				t.Fatal(err)
			}
			cuts++
		}
	}
	return ov
}

// floodThrice floods one key three times and requires want each time.
// With the cache on, the three floods are the key's first sighting (the
// live BFS, nothing recorded), the recording build and the cached
// replay, and CacheStats must say so flood by flood.
func floodThrice[R comparable](t *testing.T, e *Engine, name string, want R, flood func() R) {
	t.Helper()
	paths := [3]struct {
		name         string
		builds, hits uint64
	}{{"first sighting", 0, 0}, {"recording build", 1, 0}, {"cached replay", 0, 1}}
	for _, p := range paths {
		before := e.CacheStats()
		if got := flood(); got != want {
			t.Fatalf("%s, %s:\n got %+v\nwant %+v", name, p.name, got, want)
		}
		after := e.CacheStats()
		if e.TraversalCacheEnabled() && (after.Builds-before.Builds != p.builds || after.Hits-before.Hits != p.hits) {
			t.Fatalf("%s: the %s ran another path: cache %+v -> %+v", name, p.name, before, after)
		}
	}
}

// TestFloodMatchesHopDistanceOracle holds FloodQuery and FloodBatch to
// the closed form, whole struct with == (floats bitwise), under infinite
// capacity: every online issuer, query TTL 1..7 against holders {42, 77,
// 130}, batch TTL 1..5 unrestricted and through each active neighbour,
// each key flooded three times (live, build, replay), with the traversal
// cache on and off, in both counter planes, on the intact overlay and a
// damaged one. Each query flood also moves flood.processed_depth_<d> by
// the number of peers at hop distance d <= TTL, Processed in all, and no
// batch moves it.
func TestFloodMatchesHopDistanceOracle(t *testing.T) {
	holders := []topology.NodeID{42, 77, 130}
	list := replicas(t, 200, holders...)
	dm := DelayModel{HopDelay: 0.05}
	for _, damaged := range []bool{false, true} {
		hits, misses := 0, 0
		for _, mode := range []CounterMode{CounterPhysical, CounterIdeal} {
			for _, cached := range []bool{true, false} {
				// Queries and batches get an engine each: an unrestricted batch
				// shares its tree key with the query of the same source and TTL,
				// so it would replay the query's tree on its first sighting.
				for _, batch := range []bool{false, true} {
					ov := oracleOverlay(t, damaged)
					eng := NewEngine(ov)
					eng.SetCounterMode(mode)
					eng.SetTraversalCache(cached)
					reg := telemetry.New()
					eng.AttachTelemetry(reg)
					var depthCtrs [8]*telemetry.Counter // by depth; [0] unused
					for d := 1; d <= 7; d++ {
						depthCtrs[d] = reg.Counter(fmt.Sprintf("flood.processed_depth_%d", d))
					}
					budget := NewBudget(ov.NumPeers(), 1e9)
					for src := range PeerID(ov.NumPeers()) {
						if !ov.Online(src) {
							continue
						}
						if !batch {
							d := hopDistances(ov, src, -1)
							var layer [8]int // peers at each hop distance 1..7
							for _, dv := range d {
								if dv >= 1 && dv <= 7 {
									layer[dv]++
								}
							}
							for ttl := 1; ttl <= 7; ttl++ {
								name := fmt.Sprintf("damaged=%v mode=%d cache=%v query src=%d ttl=%d", damaged, mode, cached, src, ttl)
								want := oracleQuery(ov, d, src, ttl, holders, dm)
								if want.Hit {
									hits++
								} else {
									misses++
								}
								floodThrice(t, eng, name, want, func() QueryResult {
									var before [8]uint64
									for dd := 1; dd <= 7; dd++ {
										before[dd] = depthCtrs[dd].Load()
									}
									qr := eng.FloodQuery(src, ttl, list, budget, dm)
									sum := 0
									for dd := 1; dd <= 7; dd++ {
										got, want := int(depthCtrs[dd].Load()-before[dd]), 0
										if dd <= ttl {
											want = layer[dd]
										}
										if got != want {
											t.Fatalf("%s: flood.processed_depth_%d moved by %d, want %d", name, dd, got, want)
										}
										sum += got
									}
									if sum != qr.Processed {
										t.Fatalf("%s: depth counters moved by %d in all, Processed = %d", name, sum, qr.Processed)
									}
									return qr
								})
							}
							continue
						}
						for _, entry := range append([]PeerID{-1}, ov.ActiveNeighbors(src, nil)...) {
							d := hopDistances(ov, src, entry)
							for ttl := 1; ttl <= 5; ttl++ {
								name := fmt.Sprintf("damaged=%v mode=%d cache=%v batch src=%d entry=%d ttl=%d", damaged, mode, cached, src, entry, ttl)
								floodThrice(t, eng, name, oracleBatch(ov, d, ttl, entry), func() BatchResult {
									return eng.FloodBatch(src, entry, ttl, 1, budget)
								})
							}
						}
					}
					for dd := 1; batch && dd <= 7; dd++ {
						if n := depthCtrs[dd].Load(); n != 0 {
							t.Fatalf("damaged=%v mode=%d cache=%v: batches moved flood.processed_depth_%d by %d", damaged, mode, cached, dd, n)
						}
					}
					if st := eng.CacheStats(); cached && (st.Builds == 0 || st.Hits == 0) {
						t.Fatalf("damaged=%v mode=%d batch=%v: the cache never built or replayed: %+v", damaged, mode, batch, st)
					}
				}
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("damaged=%v: %d query cases hit and %d missed; the holder accounting needs both", damaged, hits, misses)
		}
	}
}
