// Command ddbench runs the pinned performance suite and emits
// BENCH.json: per-benchmark ns/op and allocs/op plus throughput
// metrics, and the derived cached-vs-uncached tick-loop speedup the
// perf gate enforces.
//
// Usage:
//
//	go run ./cmd/ddbench              # full suite -> BENCH.json (+ BENCH_PR9.json snapshot)
//	go run ./cmd/ddbench -gate        # full suite, fail if a derived speedup misses its floor
//	go run ./cmd/ddbench -quick       # 1-iteration smoke, no gate, no snapshot
//
// Four derived gates: tick_2k_speedup (cached vs uncached tick loop,
// floor -gatemin), nt_flood_delivery (DD-POLICE control delivery under
// a 3x offered-over-capacity flood with the overload plane on, floor
// 0.95 — a robustness gate, not a timing one), trace_overhead (the tick
// loop with a sample-rate-0 tracer attached vs untraced, ceiling 1.03 —
// the disabled tracing plane must cost under 3%), and
// tick_100k_allocs_per_peer (mean heap allocations per peer per tick in
// the steady 100k-peer loop, ceiling 0.10 — the dense-index scale gate:
// per-tick work and allocation must stay O(active peers), not O(N)).
// tick_10k_parallel_speedup (serial vs 4-shard two-phase tick under
// churn + attack) is reported, not gated: since the serial engine
// stopped building trees it never replays, it beats the sharded one on
// that scenario, whose proposal phase still builds every declared tree
// (DESIGN.md §13).
//
// Unlike `go test -bench`, the suite is a fixed list with fixed
// iteration counts, so successive commits produce comparable rows: the
// JSON is committed and reviewed as a perf trajectory, not regenerated
// noise. Timings are wall-clock on whatever machine runs it — compare
// ratios (and the derived speedup) across commits, not absolute ns
// across machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ddpolice/internal/flood"
	"ddpolice/internal/gnet"
	"ddpolice/internal/overlay"
	"ddpolice/internal/outfile"
	"ddpolice/internal/overload"
	"ddpolice/internal/police"
	"ddpolice/internal/rng"
	"ddpolice/internal/sim"
	"ddpolice/internal/topology"
	"ddpolice/internal/trace"
)

// Benchmark is one BENCH.json row.
type Benchmark struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Output is the BENCH.json document.
type Output struct {
	GeneratedBy string             `json:"generated_by"`
	GeneratedAt string             `json:"generated_at,omitempty"`
	Quick       bool               `json:"quick,omitempty"`
	Benchmarks  []Benchmark        `json:"benchmarks"`
	Derived     map[string]float64 `json:"derived"`
}

var (
	quick    = flag.Bool("quick", false, "one iteration per benchmark, no warmup, no gate (CI smoke)")
	out      = flag.String("out", "BENCH.json", "output file")
	gate     = flag.Bool("gate", false, "fail when a derived speedup misses its floor (ignored with -quick)")
	gateMin  = flag.Float64("gatemin", 1.5, "minimum accepted cached/uncached tick-loop speedup")
	snapshot = flag.String("snapshot", "BENCH_PR9.json", "also write a timestamped snapshot of this run (empty disables; skipped with -quick)")
)

// measure times iters calls of op (after warmup warmup calls) and
// reports mean ns/op and heap allocations/op.
func measure(name string, warmup, iters int, op func(i int)) Benchmark {
	if *quick {
		warmup, iters = 0, 1
	}
	for i := 0; i < warmup; i++ {
		op(i)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		op(i)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	b := Benchmark{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters),
		Metrics:     map[string]float64{},
	}
	fmt.Printf("%-28s %10d iters  %14.0f ns/op  %10.1f allocs/op  %12.0f B/op\n",
		name, iters, b.NsPerOp, b.AllocsPerOp, b.BytesPerOp)
	return b
}

const benchPeers = 2000

// floodFixture is one overlay + engine + budget set over the pinned
// 2k-peer Barabási–Albert graph.
type floodFixture struct {
	ov     *overlay.Overlay
	eng    *flood.Engine
	budget *flood.Budget
	srcs   []flood.PeerID
}

func newFloodFixture(cached bool) *floodFixture {
	g, err := topology.BarabasiAlbert(rng.New(7), benchPeers, 3)
	if err != nil {
		fatal(err)
	}
	ov := overlay.New(g)
	eng := flood.NewEngine(ov)
	eng.SetTraversalCache(cached)
	f := &floodFixture{
		ov:     ov,
		eng:    eng,
		budget: flood.NewBudget(benchPeers, 1000.0/60), // capacity.EffectiveForwardPerMin per tick
	}
	for i := 0; i < 64; i++ {
		f.srcs = append(f.srcs, flood.PeerID((i*31)%benchPeers))
	}
	return f
}

func benchFloodQuery(cached bool) Benchmark {
	f := newFloodFixture(cached)
	holders := []topology.NodeID{17, 203, 641, 988, 1337, 1650, 1801, 1999}
	dm := flood.DefaultDelayModel()
	name := "flood_query_2k_uncached"
	if cached {
		name = "flood_query_2k_cached"
	}
	processed := 0
	// Warmup cycles the source set past the cache's stability threshold
	// so the measured loop runs on built trees (replay path).
	b := measure(name, 512, 5000, func(i int) {
		f.budget.Refill()
		qr := f.eng.FloodQuery(f.srcs[i%len(f.srcs)], sim.DefaultSimTTL, holders, f.budget, dm)
		processed += qr.Processed
	})
	b.Metrics["peers_per_sec"] = float64(processed) / float64(b.Iters) / (b.NsPerOp / 1e9)
	return b
}

func benchFloodBatch(cached bool) Benchmark {
	f := newFloodFixture(cached)
	name := "flood_batch_2k_uncached"
	if cached {
		name = "flood_batch_2k_cached"
	}
	reached := 0
	b := measure(name, 512, 5000, func(i int) {
		f.budget.Refill()
		br := f.eng.FloodBatch(f.srcs[i%len(f.srcs)], -1, sim.DefaultSimTTL, 8, f.budget)
		reached += br.PeersReached
	})
	b.Metrics["peers_per_sec"] = float64(reached) / float64(b.Iters) / (b.NsPerOp / 1e9)
	return b
}

// tickVariant is one configuration of the steady-topology tick loop.
// traced attaches a sample-rate-0 tracer, measuring what the
// instrumentation costs when every trace is sampled out — the price of
// merely having the plane wired in.
type tickVariant struct {
	name         string
	disableCache bool
	traced       bool
}

// benchSimTickSet times full sim runs of several tick-loop variants and
// reports per-tick cost. The variants are measured interleaved
// (variant A run 1, variant B run 1, ..., A run 2, B run 2, ...) so
// slow machine drift — thermal throttling, a co-tenant waking up —
// lands on every variant equally instead of biasing the derived
// ratios; each variant still keeps its best run.
func benchSimTickSet(peers, durationSec int, variants []tickVariant) []Benchmark {
	runs := 3
	if *quick {
		runs = 1
	}
	best := make([]Benchmark, len(variants))
	for r := 0; r < runs; r++ {
		for i, v := range variants {
			cfg := sim.DefaultConfig()
			cfg.NumPeers = peers
			cfg.DurationSec = durationSec
			cfg.ChurnEnabled = false
			cfg.DisableFloodCache = v.disableCache
			if v.traced {
				cfg.Trace = trace.New(0, 0)
			}
			b := measure(fmt.Sprintf("%s(run%d)", v.name, r+1), 0, 1, func(int) {
				if _, err := sim.Run(cfg); err != nil {
					fatal(err)
				}
			})
			if r == 0 || b.NsPerOp < best[i].NsPerOp {
				best[i] = b
			}
		}
	}
	for i, v := range variants {
		b := &best[i]
		b.Name = v.name
		b.NsPerOp /= float64(durationSec) // per simulated tick
		b.Metrics["ticks_per_sec"] = 1e9 / b.NsPerOp
		b.Metrics["peers_per_sec"] = float64(peers) * 1e9 / b.NsPerOp
		fmt.Printf("%-28s %31.0f ns/tick %14.0f peers/sec\n", b.Name, b.NsPerOp, b.Metrics["peers_per_sec"])
	}
	return best
}

// benchSimTick is the single-variant form of benchSimTickSet, for rows
// that feed no cross-variant ratio.
func benchSimTick(name string, peers, durationSec int, disableCache, traced bool) Benchmark {
	return benchSimTickSet(peers, durationSec,
		[]tickVariant{{name, disableCache, traced}})[0]
}

// benchParallelTick times the churn-plus-attack tick loop — the
// workload where connectivity changes nearly every tick, so the
// traversal cache rebuilds constantly and the sharded proposal phase
// carries the build cost. shards <= 1 is the serial baseline; results
// are byte-identical either way, so the ratio is pure engine speed.
func benchParallelTick(name string, peers, agents, durationSec, shards int) Benchmark {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = peers
	cfg.NumAgents = agents
	cfg.DurationSec = durationSec
	cfg.AttackStartSec = 30
	cfg.ChurnEnabled = true
	cfg.Shards = shards
	runs := 3
	if *quick {
		runs = 1
	}
	var best Benchmark
	for r := 0; r < runs; r++ {
		b := measure(fmt.Sprintf("%s(run%d)", name, r+1), 0, 1, func(int) {
			if _, err := sim.Run(cfg); err != nil {
				fatal(err)
			}
		})
		if r == 0 || b.NsPerOp < best.NsPerOp {
			best = b
		}
	}
	best.Name = name
	best.NsPerOp /= float64(durationSec)
	best.Metrics["ticks_per_sec"] = 1e9 / best.NsPerOp
	best.Metrics["peers_per_sec"] = float64(peers) * 1e9 / best.NsPerOp
	fmt.Printf("%-28s %31.0f ns/tick %14.0f peers/sec\n", name, best.NsPerOp, best.Metrics["peers_per_sec"])
	return best
}

// benchPoliceEvaluate times the per-minute DD-POLICE sweep (Tick +
// EvaluateMinute) over a quiet 2k-peer overlay: the steady-state cost
// every simulated minute pays whether or not an attack is running.
func benchPoliceEvaluate() Benchmark {
	g, err := topology.BarabasiAlbert(rng.New(7), benchPeers, 3)
	if err != nil {
		fatal(err)
	}
	ov := overlay.New(g)
	pol, err := police.New(ov, police.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	for v := 0; v < benchPeers; v++ {
		pol.NotifyJoin(overlay.PeerID(v), 0)
	}
	now := 0.0
	b := measure("police_evaluate_2k", 5, 60, func(int) {
		now += 60
		ov.RollMinute()
		pol.Tick(now)
		pol.EvaluateMinute(now)
	})
	b.Metrics["peers_per_sec"] = benchPeers / (b.NsPerOp / 1e9)
	return b
}

// benchGnetNTRound times one full Neighbor_Traffic evaluation round
// over live TCP: the observer asks 8 buddy-group members about a
// suspect and collects every report before the verdict. Dominated by
// real socket round-trips, so treat it as a latency row, not a CPU one.
func benchGnetNTRound() Benchmark {
	const members = 8
	tb := topology.NewBuilder(2 + members)
	check(tb.AddEdge(0, 1))
	for i := 0; i < members; i++ {
		check(tb.AddEdge(0, topology.NodeID(2+i)))
	}
	pcfg := police.DefaultConfig()
	h, err := gnet.NewHarness(tb.Build(), func(i int, cfg *gnet.Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour // rounds driven by hand
	})
	if err != nil {
		fatal(err)
	}
	defer h.Close()
	observer := h.Node(0)
	const suspect = int32(2)
	memberIDs := make([]int32, members)
	for i := range memberIDs {
		memberIDs[i] = int32(3 + i)
	}
	check(observer.BenchPrimeSuspect(suspect, memberIDs, 20, 20))
	b := measure("gnet_nt_round", 3, 25, func(int) {
		got, err := observer.BenchNTRound(suspect, 5*time.Second)
		if err != nil {
			fatal(err)
		}
		if got != members {
			fatal(fmt.Errorf("nt round collected %d/%d reports", got, members))
		}
	})
	b.Metrics["reports_per_op"] = members
	b.Metrics["reports_per_sec"] = members / (b.NsPerOp / 1e9)
	return b
}

// ntFloodDeliveryMin is the robustness gate floor: control-plane
// delivery under a 3x offered-over-capacity flood with the overload
// plane enabled must stay at or above 95%.
const ntFloodDeliveryMin = 0.95

// traceOverheadMax is the tracing-plane gate ceiling: the steady tick
// loop with a sample-rate-0 tracer attached may cost at most 3% over
// the untraced run — the nil/sampled-out checks must stay negligible.
const traceOverheadMax = 1.03

// allocsPerPeerTickMax is the dense-index allocation gate ceiling for
// the sim_tick_100k row: mean heap allocations per peer per simulated
// tick. The dense per-peer state (index-addressed slices, pooled
// epoch-marked buffers) keeps the steady 100k loop around 0.01
// allocs/peer/tick; the ceiling carries ~10x headroom for machine and
// GC jitter while still catching any change that reintroduces a
// per-peer map or per-tick rebuild (those show up as >= 1).
const allocsPerPeerTickMax = 0.10

// benchNTFloodDelivery times a defended simulation whose agents offer
// 3x every peer's processing capacity with the overload-resilience
// plane on, and reports the run's DD-POLICE control delivery as the
// nt_flood_delivery metric the gate enforces.
func benchNTFloodDelivery(durationSec, iters int) (Benchmark, float64) {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 1000
	cfg.Catalog.NumObjects = 2000
	cfg.DurationSec = durationSec
	cfg.AttackStartSec = 60
	cfg.ChurnEnabled = false
	cfg.NumAgents = 10
	cfg.PoliceEnabled = true
	cfg.Agent.RatePerMin = 3 * cfg.GoodCapacityPerMin
	cfg.Overload = &overload.SimPlane{}
	var delivery float64
	b := measure("sim_nt_flood_3x", 0, iters, func(int) {
		res, err := sim.Run(cfg)
		if err != nil {
			fatal(err)
		}
		if sent := res.Overhead.Total(); sent > 0 {
			delivery = 1 - float64(res.ControlLost)/float64(sent)
		} else {
			delivery = 1
		}
	})
	b.Metrics["nt_flood_delivery"] = delivery
	return b, delivery
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddbench:", err)
	os.Exit(1)
}

func main() {
	flag.Parse()
	tickDur := 600
	tick10kDur := 300
	if *quick {
		tickDur, tick10kDur = 120, 60
	}
	doc := Output{GeneratedBy: "cmd/ddbench", Quick: *quick, Derived: map[string]float64{}}

	doc.Benchmarks = append(doc.Benchmarks,
		benchFloodQuery(true),
		benchFloodQuery(false),
		benchFloodBatch(true),
		benchFloodBatch(false),
	)
	// The three 2k tick variants feed two derived ratios
	// (tick_2k_speedup, trace_overhead), so they are measured
	// interleaved to keep machine drift out of the comparison.
	tick2k := benchSimTickSet(benchPeers, tickDur, []tickVariant{
		{"sim_tick_2k_cached", false, false},
		{"sim_tick_2k_uncached", true, false},
		{"sim_tick_2k_traced", false, true},
	})
	cached, uncached, traced := tick2k[0], tick2k[1], tick2k[2]
	tick100kDur := 120
	if *quick {
		tick100kDur = 60
	}
	// The 100k row is the dense-index scale gate: the tick loop's
	// per-tick allocations must stay O(active peers), so the
	// allocs-per-peer-per-tick ratio is gated, not the raw timing
	// (which is machine-relative).
	tick100k := benchSimTick("sim_tick_100k", 100000, tick100kDur, false, false)
	allocsPerPeerTick := tick100k.AllocsPerOp / float64(tick100kDur) / 100000
	tick100k.Metrics["allocs_per_peer_tick"] = allocsPerPeerTick
	doc.Benchmarks = append(doc.Benchmarks, cached, uncached, traced,
		benchSimTick("sim_tick_10k_cached", 10000, tick10kDur, false, false),
		tick100k,
	)

	// Sharded two-phase tick rows: churn + attack, so the traversal
	// cache rebuilds nearly every tick and the proposal phase carries
	// the build cost.
	ptickDur, ptick10kDur, ptick50kDur := 120, 90, 60
	if *quick {
		ptickDur, ptick10kDur, ptick50kDur = 60, 60, 60
	}
	pser := benchParallelTick("sim_ptick_10k_serial", 10000, 25, ptick10kDur, 0)
	psh4 := benchParallelTick("sim_ptick_10k_shard4", 10000, 25, ptick10kDur, 4)
	doc.Benchmarks = append(doc.Benchmarks,
		benchParallelTick("sim_ptick_2k_serial", benchPeers, 10, ptickDur, 0),
		benchParallelTick("sim_ptick_2k_shard4", benchPeers, 10, ptickDur, 4),
		pser, psh4,
		benchParallelTick("sim_ptick_10k_shard8", 10000, 25, ptick10kDur, 8),
		benchParallelTick("sim_ptick_50k_serial", 50000, 50, ptick50kDur, 0),
		benchParallelTick("sim_ptick_50k_shard8", 50000, 50, ptick50kDur, 8),
		benchPoliceEvaluate(),
		benchGnetNTRound(),
	)
	ntIters, ntDur := 3, 600
	if *quick {
		ntIters, ntDur = 1, 300
	}
	ntRow, ntDelivery := benchNTFloodDelivery(ntDur, ntIters)
	doc.Benchmarks = append(doc.Benchmarks, ntRow)

	speedup := uncached.NsPerOp / cached.NsPerOp
	pspeedup := pser.NsPerOp / psh4.NsPerOp
	traceOverhead := traced.NsPerOp / cached.NsPerOp
	doc.Derived["tick_2k_speedup"] = speedup
	doc.Derived["tick_10k_parallel_speedup"] = pspeedup
	doc.Derived["gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	doc.Derived["nt_flood_delivery"] = ntDelivery
	doc.Derived["trace_overhead"] = traceOverhead
	doc.Derived["tick_100k_allocs_per_peer"] = allocsPerPeerTick
	fmt.Printf("derived: tick_100k_allocs_per_peer = %.4f (gate ceiling %.2f)\n",
		allocsPerPeerTick, allocsPerPeerTickMax)
	fmt.Printf("derived: tick_2k_speedup = %.2fx\n", speedup)
	fmt.Printf("derived: tick_10k_parallel_speedup = %.2fx at GOMAXPROCS=%d (reported, not gated)\n",
		pspeedup, runtime.GOMAXPROCS(0))
	fmt.Printf("derived: nt_flood_delivery = %.3f (gate floor %.2f)\n", ntDelivery, ntFloodDeliveryMin)
	fmt.Printf("derived: trace_overhead = %.3fx (gate ceiling %.2fx)\n", traceOverhead, traceOverheadMax)

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := outfile.Write(*out, func(w io.Writer) error {
		_, err := w.Write(append(buf, '\n'))
		return err
	}); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if *snapshot != "" && !*quick {
		doc.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := outfile.Write(*snapshot, func(w io.Writer) error {
			_, err := w.Write(append(buf, '\n'))
			return err
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *snapshot)
	}

	if *gate && !*quick {
		if speedup < *gateMin {
			fatal(fmt.Errorf("perf gate: tick_2k_speedup %.2fx < %.2fx", speedup, *gateMin))
		}
		if ntDelivery < ntFloodDeliveryMin {
			fatal(fmt.Errorf("robustness gate: nt_flood_delivery %.3f < %.2f",
				ntDelivery, ntFloodDeliveryMin))
		}
		if traceOverhead > traceOverheadMax {
			fatal(fmt.Errorf("perf gate: trace_overhead %.3fx > %.2fx", traceOverhead, traceOverheadMax))
		}
		if allocsPerPeerTick > allocsPerPeerTickMax {
			fatal(fmt.Errorf("alloc gate: tick_100k_allocs_per_peer %.4f > %.2f",
				allocsPerPeerTick, allocsPerPeerTickMax))
		}
	}
}
