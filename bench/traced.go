package main

import (
	"math"
	"time"

	"ddpolice/internal/flood"
	"ddpolice/internal/overlay"
	"ddpolice/internal/police"
	"ddpolice/internal/sim"
)

// The layer driver's wall time must sit this close to sim.Run's, or
// its per-layer split does not describe sim.Run. The two are measured
// in pairs, and the ratio is taken between the fastest of each, because
// what the box adds to a measurement (a co-tenant, a slow spell) only
// ever adds; a pair is repeated, up to driverPairs, while the ratio is
// outside the band.
const (
	driverBandLo, driverBandHi = 0.85, 1.15
	driverPairs                = 5
)

// r2MaxPeers bounds the overlay police.evaluate_minute_r2_ms is
// measured on: Radius 2 keeps a map entry per peer within two hops of
// every peer, which at 40,000 peers outgrew 16 GB (README.md, known
// findings).
const r2MaxPeers = 5000

// tracedSim produces the per-layer ledger of one simulator Config:
// an untraced sim.Run as the base and the layer driver under the span
// recorder, in pairs; the same run with Config.Telemetry on for the
// program's own stage timers; then the flood and police side
// measurements on the world the driver leaves behind.
func tracedSim(cfg sim.Config, tr *tracedRun) error {
	tr.Attempted++
	var (
		baseRes  *sim.Result
		baseWall = math.Inf(1)
		drvWall  = math.Inf(1)
		rec      *recorder
		w        *world
		counts   driverCounts
		ratio    float64
	)
	for pair := 0; pair < driverPairs; pair++ {
		base, err := timed(func() (err error) {
			baseRes, err = sim.Run(cfg)
			return err
		})
		if err != nil {
			return err
		}
		baseWall = math.Min(baseWall, base.wall)

		r := newRecorder(tr.Workload)
		var (
			rw *world
			rc driverCounts
		)
		drv, err := timed(func() (err error) {
			root := r.begin("driver.run")
			defer r.end(root)
			setup := r.begin("driver.setup")
			rw, err = buildWorld(cfg, r)
			r.end(setup)
			if err != nil {
				return err
			}
			rc = drive(rw, r)
			return nil
		})
		if err != nil {
			return err
		}
		if drv.wall < drvWall {
			drvWall, rec, w, counts = drv.wall, r, rw, rc
		}
		ratio = drvWall / baseWall
		// A run of under a second gets all its pairs: whichever of the
		// two goes first also pays for cold caches, which is a tenth of
		// so short a run.
		if tr.Smoke || (baseWall >= 1 && ratio >= driverBandLo && ratio <= driverBandHi) {
			break
		}
	}
	tr.recs = append(tr.recs, rec)
	tr.set("sim.driver_vs_run", ratio)
	tr.set("sim.peer_ticks_per_s", float64(cfg.NumPeers)*float64(cfg.DurationSec)/baseWall)
	if !tr.Smoke && (ratio < driverBandLo || ratio > driverBandHi) {
		tr.fail("sim.driver_vs_run = %.3f outside %.2f-%.2f after %d pairs: the layer split does not describe sim.Run", ratio, driverBandLo, driverBandHi, driverPairs)
	}
	if relDiff(float64(counts.queriesIssued), float64(baseRes.QueriesIssued)) > 0.01 ||
		relDiff(counts.meanTraffic, baseRes.MeanTraffic) > 0.01 {
		tr.fail("layer driver issued %d queries at %.0f msgs/min, sim.Run %d at %.0f: more than 1%% apart",
			counts.queriesIssued, counts.meanTraffic, baseRes.QueriesIssued, baseRes.MeanTraffic)
	}

	tcfg := cfg
	tcfg.Telemetry = true
	var telRes *sim.Result
	tel, err := timed(func() (err error) {
		telRes, err = sim.Run(tcfg)
		return err
	})
	if err != nil {
		return err
	}
	staged := 0.0
	for _, st := range telRes.Stages {
		tr.set("sim.stage_"+st.Name+"_s", st.Total.Seconds())
		staged += st.Total.Seconds()
	}
	tr.set("sim.unstaged_s", tel.wall-staged)
	tr.set("sim.telemetry_overhead", tel.wall/baseWall)

	st := rec.stats()
	mean := func(name string, per float64) float64 { return st[name].MeanNs / per }
	share := func(name string, n int, per float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(st[name].TotalNs) / float64(n) / per
	}
	ratioOf := func(a float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return a / float64(n)
	}
	tr.set("topology.ba_build_ms", mean("topology.ba_build", 1e6))
	tr.set("overlay.new_ms", mean("overlay.new", 1e6))
	tr.set("workload.catalog_build_ms", mean("workload.catalog_build", 1e6))
	tr.set("attack.fleet_build_ms", mean("attack.fleet_build", 1e6))
	tr.set("police.new_ms", mean("police.new", 1e6))
	tr.set("police.notify_join_us", share("police.notify_join", counts.initialJoins, 1e3))

	tr.set("overlay.churn_tick_us", mean("overlay.churn_tick", 1e3))
	tr.set("overlay.churn_flips_per_tick", ratioOf(float64(counts.flips), counts.ticks))
	tr.set("overlay.append_online_us", mean("overlay.append_online", 1e3))
	tr.set("overlay.roll_minute_us", mean("overlay.roll_minute", 1e3))

	tr.set("workload.querygen_tick_us", mean("workload.querygen_tick", 1e3))
	tr.set("workload.queries_per_tick", ratioOf(float64(counts.queries), counts.ticks))

	tr.set("attack.tick_sliced_us", mean("attack.tick_sliced", 1e3))
	tr.set("attack.msgs_per_tick", ratioOf(counts.attackMsgs, counts.attackTicks))

	tr.set("flood.query_hit_us", mean("flood.query_hit", 1e3))
	tr.set("flood.query_build_us", mean("flood.query_build", 1e3))
	tr.set("flood.query_fallback_us", mean("flood.query_fallback", 1e3))
	tr.set("flood.query_live_us", mean("flood.query_live", 1e3))
	tr.set("flood.budget_refill_us", mean("flood.budget_refill", 1e3))
	tr.set("flood.visits_per_query", ratioOf(float64(counts.visits), counts.queries))
	tr.set("flood.alloc_bytes_per_query", ratioOf(float64(counts.floodAllocBytes), counts.queries))
	cs := counts.cache
	tr.set("flood.cache_hit_ratio", ratioOf(float64(cs.Hits), int(cs.Hits+cs.Misses)))
	tr.set("flood.cache_builds", float64(cs.Builds))
	tr.set("flood.cache_fallbacks", float64(cs.Fallbacks))
	tr.set("flood.cache_flushes", float64(cs.Flushes))
	tr.set("flood.cache_trees", float64(cs.Trees))

	tr.set("police.tick_us", mean("police.tick", 1e3))
	tr.set("police.evaluate_minute_ms", mean("police.evaluate_minute", 1e6))
	tr.set("police.msgs_list", float64(counts.overhead.NeighborListMsgs))
	tr.set("police.msgs_nt", float64(counts.overhead.NeighborTrafficMsgs))
	tr.set("police.detections", float64(counts.detections))
	tr.set("police.alloc_bytes_per_minute", ratioOf(float64(counts.policeAllocBytes), counts.minutes))

	tr.set("metrics.record_query_ns", share("metrics.record_queries", counts.queries, 1))
	tr.set("metrics.close_minute_us", mean("metrics.close_minute", 1e3))

	tr.set("bench.span_overhead_ns", spanOverheadNs())

	prewarm(w, tr)
	floodBatchClasses(w, tr)
	if cfg.PoliceEnabled && cfg.NumPeers <= r2MaxPeers {
		if err := policeRadius2(w, tr); err != nil {
			return err
		}
	}
	return nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// spanOverheadNs times the recorder itself: what one begin/end pair
// adds to a driver tick, and so how much of driver_vs_run it explains.
func spanOverheadNs() float64 {
	const n = 200000
	rec := newRecorder("overhead")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.end(rec.begin("bench.span"))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// tickKeys declares one tick's floods the way sim.Run's proposal phase
// does: the fleet's batch keys, then one unrestricted key per good
// query the generator issues.
func tickKeys(w *world) []flood.TreeKey {
	var keys []flood.TreeKey
	if w.fleet.Size() > 0 {
		keys = w.fleet.FloodKeys(w.ov, keys)
	}
	online := w.ov.AppendOnline(nil)
	for _, q := range w.qgen.Tick(online, 1, nil) {
		keys = append(keys, flood.TreeKey{Src: q.Issuer, Entry: -1, TTL: int32(w.cfg.TTL)})
	}
	return keys
}

// prewarm times flood.Engine.PrewarmTrees on one tick's keys with one
// and with two worker shards, each on a fresh engine so every key is a
// build. It is the only evidence for keeping Config.Shards.
func prewarm(w *world, tr *tracedRun) {
	keys := tickKeys(w)
	var one, two series
	for i := 0; i < 5; i++ {
		for _, shards := range []int{1, 2} {
			eng := flood.NewEngine(w.ov)
			t0 := time.Now()
			eng.PrewarmTrees(keys, shards)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			if shards == 1 {
				one = append(one, ms)
			} else {
				two = append(two, ms)
			}
		}
	}
	tr.set("flood.prewarm_ms_shards1", one.median())
	tr.set("flood.prewarm_ms_shards2", two.median())
	if two.median() > 0 {
		tr.set("flood.prewarm_speedup", one.median()/two.median())
	}
}

// floodBatchClasses times FloodBatch by what the cache did with it.
// Batches run inside Fleet.TickSliced, where the benchmark cannot see
// them one by one, so each agent floods three batches here on a fresh
// engine over the driver's final overlay: the first is flooded live,
// the second builds the tree, the third replays it.
func floodBatchClasses(w *world, tr *tracedRun) {
	rec := newRecorder(tr.Workload)
	eng := flood.NewEngine(w.ov)
	budget := flood.NewBudget(w.cfg.NumPeers, w.cfg.GoodCapacityPerMin/60)
	for _, a := range w.fleet.Agents() {
		for i := 0; i < 3; i++ {
			budget.Refill()
			before := eng.CacheStats()
			id := rec.begin("flood.batch")
			eng.FloodBatch(a.ID, -1, w.cfg.Agent.TTL, 1, budget)
			rec.end(id)
			rec.rename(id, batchSpanNames[cacheOutcome(before, eng.CacheStats())])
		}
	}
	st := rec.stats()
	tr.set("flood.batch_hit_us", st["flood.batch_hit"].MeanNs/1e3)
	tr.set("flood.batch_build_us", st["flood.batch_build"].MeanNs/1e3)
	tr.set("flood.batch_live_us", st["flood.batch_live"].MeanNs/1e3)
}

// policeRadius2 times EvaluateMinute with Radius 2 (the map-keyed
// state; Radius 1 uses the dense arrays the driver already timed) on
// the driver's final overlay, whose last-minute counters still hold the
// attack.
func policeRadius2(w *world, tr *tracedRun) error {
	pcfg := w.cfg.Police
	pcfg.Radius = 2
	pol, err := police.New(w.ov, pcfg)
	if err != nil {
		return err
	}
	for _, a := range w.fleet.Agents() {
		pol.SetBad(a.ID, w.cfg.Agent.Cheat)
	}
	now := float64(w.cfg.DurationSec)
	for v := 0; v < w.cfg.NumPeers; v++ {
		if w.ov.Online(overlay.PeerID(v)) {
			pol.NotifyJoin(overlay.PeerID(v), now)
		}
	}
	pol.Tick(now)
	t0 := time.Now()
	pol.EvaluateMinute(now + 1)
	tr.set("police.evaluate_minute_r2_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	return nil
}
