package sim

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"ddpolice/internal/faults"
	"ddpolice/internal/flood"
	"ddpolice/internal/metrics"
)

// smallConfig returns a fast configuration for unit tests: 1,000 peers
// (so that the test agent counts stay near the paper's <=1% density),
// 6 simulated minutes, no churn (tests opt in to churn explicitly).
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 1000
	cfg.DurationSec = 360
	cfg.AttackStartSec = 60
	cfg.ChurnEnabled = false
	cfg.Catalog.NumObjects = 2000
	return cfg
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumPeers = 5 },
		func(c *Config) { c.TopologyM = 0 },
		func(c *Config) { c.QueriesPerMin = -1 },
		func(c *Config) { c.TTL = 0 },
		func(c *Config) { c.TTL = flood.MaxTTL + 1 },
		func(c *Config) { c.GoodCapacityPerMin = 0 },
		func(c *Config) { c.NumAgents = -1 },
		func(c *Config) { c.NumAgents = 1000 },
		func(c *Config) { c.DurationSec = 30 },
		func(c *Config) { c.AttackStartSec = -1 },
		func(c *Config) { c.PoliceEnabled = true; c.Police.Q0 = 0 },
		// NaN fails every float check, and ControlLossCap is a probability.
		func(c *Config) { c.QueriesPerMin = math.NaN() },
		func(c *Config) { c.GoodCapacityPerMin = math.NaN() },
		func(c *Config) { c.ControlLossCap = math.NaN() },
		func(c *Config) { c.ControlLossCap = -0.1 },
		func(c *Config) { c.ControlLossCap = 1.5 },
		func(c *Config) { c.Faults = &faults.Schedule{ControlLoss: math.NaN()} },
		func(c *Config) {
			c.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
				{StartSec: 60, EndSec: 120, Peers: []int{1}, Factor: math.NaN()},
			}}
		},
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// The TTL ceiling names its field and admits the bound itself.
	cfg := smallConfig()
	cfg.TTL = flood.MaxTTL + 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "TTL = 256") {
		t.Errorf("TTL %d: err = %v, want one naming TTL = 256", cfg.TTL, err)
	}
	cfg.TTL = flood.MaxTTL
	if err := cfg.Validate(); err != nil {
		t.Errorf("TTL %d refused: %v", cfg.TTL, err)
	}
}

func TestBaselineHealthy(t *testing.T) {
	cfg := smallConfig()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Minutes) != 6 {
		t.Fatalf("minutes = %d", len(r.Minutes))
	}
	if r.OverallSuccess < 0.9 {
		t.Fatalf("baseline success = %v, want healthy (>0.9)", r.OverallSuccess)
	}
	if r.MeanResponseTime <= 0 || r.MeanResponseTime > 1 {
		t.Fatalf("baseline response time = %v s", r.MeanResponseTime)
	}
	if r.QueriesIssued == 0 {
		t.Fatal("no queries issued")
	}
	if r.MeanHitHops < 1 {
		t.Fatalf("mean hit hops = %v", r.MeanHitHops)
	}
	if r.CutEdges != 0 || r.Detections != 0 {
		t.Fatal("undefended baseline recorded defense activity")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAgents = 3
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OverallSuccess != b.OverallSuccess || a.MeanTraffic != b.MeanTraffic ||
		a.QueriesIssued != b.QueriesIssued || a.AttackVolume != b.AttackVolume {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestAttackDegradesSystem verifies the §3.6 findings at reduced scale:
// agents inflate traffic and depress success rate and response time.
func TestAttackDegradesSystem(t *testing.T) {
	base, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.NumAgents = 10
	hit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit.MeanTraffic < base.MeanTraffic*2 {
		t.Errorf("attack traffic %v not >= 2x baseline %v", hit.MeanTraffic, base.MeanTraffic)
	}
	if hit.OverallSuccess >= base.OverallSuccess {
		t.Errorf("attack success %v not below baseline %v", hit.OverallSuccess, base.OverallSuccess)
	}
	if hit.OverallSuccess > 0.7 {
		t.Errorf("a one-percent agent population should hurt: success %v", hit.OverallSuccess)
	}
	if hit.MeanResponseTime <= base.MeanResponseTime {
		t.Errorf("attack response %v not above baseline %v", hit.MeanResponseTime, base.MeanResponseTime)
	}
	if hit.AttackVolume == 0 {
		t.Error("no attack volume recorded")
	}
}

// TestPoliceRestoresService: with DD-POLICE enabled, agents are
// detected and the success rate recovers toward baseline.
func TestPoliceRestoresService(t *testing.T) {
	cfg := smallConfig()
	cfg.DurationSec = 600
	cfg.NumAgents = 10

	undefended, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PoliceEnabled = true
	defended, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if defended.Detections == 0 {
		t.Fatal("no detections")
	}
	if defended.FalsePositives > 2 {
		t.Errorf("missed %d of 10 agents", defended.FalsePositives)
	}
	if defended.OverallSuccess <= undefended.OverallSuccess {
		t.Errorf("defended success %v not above undefended %v",
			defended.OverallSuccess, undefended.OverallSuccess)
	}
	// Late minutes should be near-healthy once agents are isolated.
	late := defended.SuccessSeries[len(defended.SuccessSeries)-1]
	if late < 0.8 {
		t.Errorf("late defended success = %v, want recovered", late)
	}
	if defended.CutEdges == 0 {
		t.Error("no edges cut")
	}
	if defended.Overhead.Total() == 0 {
		t.Error("no control overhead recorded")
	}
}

func TestChurnRunCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.ChurnEnabled = true
	cfg.Churn.MeanLifetime = 120
	cfg.Churn.StddevLifetime = 30
	cfg.Churn.MeanOffline = 120
	cfg.NumAgents = 5
	cfg.PoliceEnabled = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Minutes) != 6 {
		t.Fatalf("minutes = %d", len(r.Minutes))
	}
	// With churn the online population must dip below the full size.
	sawPartial := false
	for _, m := range r.Minutes {
		if m.OnlinePeers < cfg.NumPeers {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("churn never took peers offline")
	}
}

func TestDamagePipeline(t *testing.T) {
	cfg := smallConfig()
	cfg.DurationSec = 600
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumAgents = 10
	cfg.PoliceEnabled = true
	def, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dmg := metrics.DamageSeries(base.SuccessSeries, def.SuccessSeries)
	// Damage must spike after attack start (minute 1) and then recover.
	peak := 0.0
	for _, d := range dmg {
		if d > peak {
			peak = d
		}
	}
	if peak < 20 {
		t.Fatalf("peak damage = %v%%, expected an attack spike", peak)
	}
	tail := metrics.MeanTail(dmg, 0.2)
	if tail >= peak {
		t.Fatalf("damage did not recover: tail %v%% vs peak %v%%", tail, peak)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	cfgA := smallConfig()
	cfgB := smallConfig()
	cfgB.NumAgents = 5
	rs, err := RunParallel([]Config{cfgA, cfgB})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].OverallSuccess != seq.OverallSuccess || rs[1].MeanTraffic != seq.MeanTraffic {
		t.Fatal("parallel result differs from sequential run")
	}
}

func TestAveraged(t *testing.T) {
	cfg := smallConfig()
	cfg.DurationSec = 120
	r, err := Averaged(cfg, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.OverallSuccess <= 0 || r.OverallSuccess > 1 {
		t.Fatalf("averaged success = %v", r.OverallSuccess)
	}
	single, err := Averaged(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if single.QueriesIssued == 0 {
		t.Fatal("empty-seed Averaged did not run")
	}
}

func TestFairShareDropFlag(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAgents = 5
	fcfs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FairShareDrop = true
	fair, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The budget policy must actually change the outcome.
	if fair.OverallSuccess == fcfs.OverallSuccess && fair.MeanTraffic == fcfs.MeanTraffic {
		t.Fatal("fair-share flag had no effect")
	}
	// And the same flag must stay deterministic.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.OverallSuccess != fair.OverallSuccess {
		t.Fatal("fair-share run not deterministic")
	}
}

func TestIdealCountersFlag(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAgents = 5
	cfg.PoliceEnabled = true
	physical, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.IdealCounters = true
	ideal, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The monitoring plane changes what observers see, hence decisions.
	if ideal.Detections == physical.Detections && ideal.FalseNegatives == physical.FalseNegatives {
		t.Fatal("ideal-counters flag had no effect on detection behaviour")
	}
}

func TestAgentsJoinAtAttackStart(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAgents = 5
	cfg.AttackStartSec = 120
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Minute 0-1: agents offline => online population below full.
	if r.Minutes[0].OnlinePeers != cfg.NumPeers-cfg.NumAgents {
		t.Fatalf("pre-attack online = %d, want %d",
			r.Minutes[0].OnlinePeers, cfg.NumPeers-cfg.NumAgents)
	}
	// After the attack starts they are online (no churn in smallConfig).
	if r.Minutes[3].OnlinePeers != cfg.NumPeers {
		t.Fatalf("post-attack online = %d, want %d", r.Minutes[3].OnlinePeers, cfg.NumPeers)
	}
}

// steady2kConfig is the steady 2,000-peer loop the allocation tests
// difference: no churn, no agents, no police.
func steady2kConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 2000
	cfg.ChurnEnabled = false
	return cfg
}

// runMallocs runs cfg and returns the heap allocations the process made
// meanwhile. Callers must not be parallel tests: Mallocs is process-wide.
func runMallocs(t *testing.T, cfg Config) (uint64, *Result) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, res
}

// TestTickMarginalAllocsBounded owns the per-peer allocation ceiling of
// the tick loop, cheap enough for `make race`: with the pooled per-tick
// buffers (epoch-marked slices, budget touch lists, query-trace pool,
// treeBuilder capacity hints) the steady tick loop allocates
// O(workload), not O(peers). Differencing a 240s run against a 120s run
// cancels setup cost, leaving the per-tick marginal allocation rate,
// which must stay under 0.10 per peer (steady state measures ~0.03; an
// O(N) rescan reintroduced into the tick loop shows up as >= 1). The
// repository benchmark holds the same quantity at 100,000 peers as
// scale-100k/allocs_per_op.
func TestTickMarginalAllocsBounded(t *testing.T) {
	run := func(durationSec int) uint64 {
		cfg := steady2kConfig()
		cfg.DurationSec = durationSec
		mallocs, _ := runMallocs(t, cfg)
		return mallocs
	}
	short, long := run(120), run(240)
	if long <= short {
		t.Fatalf("marginal allocs non-positive (%d vs %d): measurement broken", short, long)
	}
	perPeerTick := float64(long-short) / 120 / 2000
	// ~3x headroom over the measured rate for GC and machine jitter.
	const ceiling = 0.10
	t.Logf("marginal allocs per peer per tick: %.4f", perPeerTick)
	if perPeerTick > ceiling {
		t.Fatalf("marginal allocs per peer per tick = %.4f, want <= %.2f (tick loop no longer O(active))",
			perPeerTick, ceiling)
	}
}
