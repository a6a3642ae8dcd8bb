package main

import (
	"fmt"
	"runtime/metrics"

	"ddpolice/internal/attack"
	"ddpolice/internal/flood"
	imetrics "ddpolice/internal/metrics"
	"ddpolice/internal/overlay"
	"ddpolice/internal/police"
	"ddpolice/internal/rng"
	"ddpolice/internal/sim"
	"ddpolice/internal/topology"
	"ddpolice/internal/workload"
)

// world is everything sim.Run constructs before its first tick, built
// here through the same public constructors in the same order and with
// the same rng.Split sequence, so the layer driver below replays the
// run sim.Run would make of the same Config.
type world struct {
	cfg     sim.Config
	ov      *overlay.Overlay
	cat     *workload.Catalog
	qgen    *workload.QueryGen
	fleet   *attack.Fleet
	pol     *police.Police
	churn   *overlay.Churn
	eng     *flood.Engine
	budget  *flood.Budget
	coll    *imetrics.Collector
	lossSrc *rng.Source
}

// buildWorld mirrors the set-up half of sim.Run for the Config subset
// the benchmark workloads use (no faults, overload plane, fair share,
// ideal counters, journal or tracer). rec may be nil.
func buildWorld(cfg sim.Config, rec *recorder) (*world, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil || cfg.Overload != nil || cfg.FairShareDrop || cfg.IdealCounters ||
		cfg.Journal != nil || cfg.Trace != nil || cfg.Shards > 1 || cfg.AgentsLieAboutLists {
		return nil, fmt.Errorf("bench: layer driver does not mirror this sim.Config")
	}
	w := &world{cfg: cfg}
	root := rng.New(cfg.Seed)

	id := rec.begin("topology.ba_build")
	g, err := topology.BarabasiAlbert(root.Split(), cfg.NumPeers, cfg.TopologyM)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("overlay.new")
	w.ov = overlay.New(g)
	rec.end(id)

	id = rec.begin("workload.catalog_build")
	w.cat, err = workload.NewCatalog(cfg.Catalog, cfg.NumPeers, root.Split())
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if w.qgen, err = workload.NewQueryGen(w.cat, cfg.QueriesPerMin, root.Split()); err != nil {
		return nil, err
	}
	id = rec.begin("attack.fleet_build")
	w.fleet, err = attack.NewFleet(cfg.NumAgents, cfg.NumPeers, cfg.Agent, cfg.Links, root.Split())
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if cfg.PoliceEnabled {
		id = rec.begin("police.new")
		w.pol, err = police.New(w.ov, cfg.Police)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		for _, a := range w.fleet.Agents() {
			w.pol.SetBad(a.ID, cfg.Agent.Cheat)
		}
	}
	if cfg.ChurnEnabled {
		id = rec.begin("overlay.churn_new")
		w.churn = overlay.NewChurn(w.ov, cfg.Churn, root.Split())
		for _, a := range w.fleet.Agents() {
			w.churn.Pin(a.ID)
		}
		rec.end(id)
	}
	for _, a := range w.fleet.Agents() {
		w.ov.SetOnline(a.ID, false)
	}
	id = rec.begin("flood.engine_new")
	w.eng = flood.NewEngine(w.ov)
	if cfg.DisableFloodCache {
		w.eng.SetTraversalCache(false)
	}
	w.budget = flood.NewBudget(cfg.NumPeers, cfg.GoodCapacityPerMin/60)
	rec.end(id)
	w.coll = imetrics.NewCollector()
	w.lossSrc = root.Split()
	if w.pol != nil {
		id = rec.begin("police.notify_join")
		for v := 0; v < cfg.NumPeers; v++ {
			if w.ov.Online(overlay.PeerID(v)) {
				w.pol.NotifyJoin(overlay.PeerID(v), 0)
			}
		}
		rec.end(id)
	}
	return w, nil
}

// driverCounts are the counts taken at the layer boundaries while the
// driver runs; the per-layer ratios divide them.
type driverCounts struct {
	ticks, attackTicks, minutes int
	initialJoins                int
	flips                       int
	queries                     int
	visits                      int
	attackMsgs                  float64
	floodAllocBytes             uint64
	policeAllocBytes            uint64

	queriesIssued uint64
	meanTraffic   float64
	cache         flood.CacheStats
	overhead      police.Overhead
	detections    int
}

// heapAllocBytes reads the cumulative heap allocation counter without
// stopping the world (runtime.ReadMemStats would, once per tick). The
// runtime flushes per-P allocation tallies lazily, so a short window
// can under- or over-count by one size-class span; the sums over a run
// do not drift.
type heapAllocBytes struct{ s [1]metrics.Sample }

func newHeapAllocBytes() *heapAllocBytes {
	h := &heapAllocBytes{}
	h.s[0].Name = "/gc/heap/allocs:bytes"
	return h
}

func (h *heapAllocBytes) read() uint64 {
	metrics.Read(h.s[:])
	return h.s[0].Value.Uint64()
}

// What the traversal cache did with one flood. A flood span is named
// after it once the call is over (the names are constants so that the
// hot loop does not allocate them).
const (
	cacheHit = iota
	cacheFallback
	cacheBuild
	cacheLive // cache off, or a first sighting under churn flooded live without keeping its tree
)

var (
	querySpanNames = [...]string{"flood.query_hit", "flood.query_fallback", "flood.query_build", "flood.query_live"}
	batchSpanNames = [...]string{"flood.batch_hit", "flood.batch_fallback", "flood.batch_build", "flood.batch_live"}
)

// cacheOutcome reads the outcome from the CacheStats delta across the
// call.
func cacheOutcome(before, after flood.CacheStats) int {
	switch {
	case after.Hits > before.Hits:
		return cacheHit
	case after.Fallbacks > before.Fallbacks:
		return cacheFallback
	case after.Builds > before.Builds:
		return cacheBuild
	}
	return cacheLive
}

// drive replays sim.Run's tick loop over w through the public API of
// each layer, one span per call. The order of calls is sim.Run's:
// Budget.Refill, Churn.Tick (+ police notifications), attack onset,
// QueryGen.Tick, first attack half, the good-peer floods, second attack
// half, Police.Tick, and per minute RollMinute / EvaluateMinute /
// CloseMinute / control-loss derivation. One deliberate difference:
// the tick's query results are recorded into the collector in one
// batch after the flood loop (still between the two attack halves, so
// every float sum keeps its order) to time RecordQuery apart from
// FloodQuery.
func drive(w *world, rec *recorder) driverCounts {
	cfg := w.cfg
	var (
		c          driverCounts
		onlineBuf  []overlay.PeerID
		onlineVer  uint64
		onlineInit bool
		queryBuf   []workload.Query
		results    []flood.QueryResult
		overheadAt uint64
		heap       = newHeapAllocBytes()
	)
	if w.pol != nil {
		c.initialJoins = w.ov.OnlineCount()
	}
	for t := 0; t < cfg.DurationSec; t++ {
		tick := rec.begin("driver.tick")
		now := float64(t)
		id := rec.begin("flood.budget_refill")
		w.budget.Refill()
		rec.end(id)

		if w.churn != nil {
			id = rec.begin("overlay.churn_tick")
			w.churn.Tick(1)
			rec.end(id)
			c.flips += len(w.churn.Flips())
			if w.pol != nil {
				id = rec.begin("police.notify_flips")
				for _, p := range w.churn.Flips() {
					if w.ov.Online(p) {
						w.pol.NotifyJoin(p, now)
					} else if !w.churn.Crashed(p) {
						w.pol.NotifyLeave(p, now)
					}
				}
				rec.end(id)
			}
		}
		if t == cfg.AttackStartSec && w.fleet.Size() > 0 {
			for _, a := range w.fleet.Agents() {
				w.ov.SetOnline(a.ID, true)
				if w.pol != nil {
					w.pol.NotifyJoin(a.ID, now)
				}
			}
		}

		attacking := t >= cfg.AttackStartSec && w.fleet.Size() > 0
		slices := cfg.AttackSlices
		if slices < 2 {
			slices = 2
		}
		if !onlineInit || onlineVer != w.ov.Version() {
			onlineInit = true
			onlineVer = w.ov.Version()
			id = rec.begin("overlay.append_online")
			onlineBuf = w.ov.AppendOnline(onlineBuf[:0])
			rec.end(id)
		}
		id = rec.begin("workload.querygen_tick")
		queryBuf = w.qgen.Tick(onlineBuf, 1, queryBuf[:0])
		rec.end(id)
		c.queries += len(queryBuf)

		if attacking {
			c.attackTicks++
			id = rec.begin("attack.tick_sliced")
			br := w.fleet.TickSliced(w.eng, w.ov, w.budget, 0.5, slices/2, 2*t)
			rec.end(id)
			w.coll.RecordBatch(br)
			c.attackMsgs += br.QueryMessages
		}

		results = results[:0]
		a0 := heap.read()
		before := w.eng.CacheStats()
		for _, q := range queryBuf {
			id = rec.begin("flood.query")
			qr := w.eng.FloodQuery(q.Issuer, cfg.TTL, w.cat.Holders(q.Object), w.budget, cfg.Delay)
			rec.end(id)
			after := w.eng.CacheStats()
			rec.rename(id, querySpanNames[cacheOutcome(before, after)])
			before = after
			results = append(results, qr)
			c.visits += qr.Processed
		}
		c.floodAllocBytes += heap.read() - a0
		id = rec.begin("metrics.record_queries")
		for _, qr := range results {
			w.coll.RecordQuery(qr)
		}
		rec.end(id)

		if attacking {
			id = rec.begin("attack.tick_sliced")
			br := w.fleet.TickSliced(w.eng, w.ov, w.budget, 0.5, slices-slices/2, 2*t+1)
			rec.end(id)
			w.coll.RecordBatch(br)
			c.attackMsgs += br.QueryMessages
		}

		if w.pol != nil {
			id = rec.begin("police.tick")
			w.pol.Tick(now)
			rec.end(id)
		}

		if (t+1)%60 == 0 {
			c.minutes++
			id = rec.begin("overlay.roll_minute")
			w.ov.RollMinute()
			rec.end(id)
			if w.pol != nil {
				a0 = heap.read()
				id = rec.begin("police.evaluate_minute")
				w.pol.EvaluateMinute(now + 1)
				rec.end(id)
				c.policeAllocBytes += heap.read() - a0
				oh := w.pol.Overhead().Total()
				w.coll.AddControl(float64(oh - overheadAt))
				overheadAt = oh
			}
			id = rec.begin("metrics.close_minute")
			w.coll.SetOnline(len(onlineBuf))
			w.coll.CloseMinute()
			rec.end(id)
			if w.pol != nil {
				ms := w.coll.Minutes()
				last := ms[len(ms)-1]
				loss := 0.0
				if total := last.QueryMsgs + last.CapacityDrop; total > 0 {
					loss = last.CapacityDrop / total
				}
				if loss > cfg.ControlLossCap {
					loss = cfg.ControlLossCap
				}
				w.pol.SetControlLoss(loss, w.lossSrc)
			}
		}
		rec.end(tick)
	}
	c.ticks = cfg.DurationSec
	c.queriesIssued = w.qgen.Issued()
	c.meanTraffic = w.coll.MeanTrafficPerMinute()
	c.cache = w.eng.CacheStats()
	if w.pol != nil {
		c.overhead = w.pol.Overhead()
		c.detections = len(w.pol.Detections())
	}
	return c
}
