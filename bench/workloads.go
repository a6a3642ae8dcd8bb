package main

import (
	"fmt"
	"time"

	"ddpolice"
	"ddpolice/internal/rng"
	"ddpolice/internal/sim"
)

// repResult is one measured repetition of a workload.
type repResult struct {
	sample
	ops       float64 // peer-ticks, or answered good queries on live-12
	attempted int
	failed    int
	// digest is the SHA-256 of the program's output for this
	// repetition; empty when the output is not deterministic (live-12).
	digest string
	notes  []string
}

// workloadRun is one world of a workload: its inputs generated from
// one seed.
type workloadRun interface {
	// setup builds the world once, throws it away and returns the
	// seconds the building took.
	setup() (float64, error)
	// rep runs the measured job once, tracing off.
	rep() (repResult, error)
	// traced runs the workload once more under the span recorder and
	// fills the per-layer ledger.
	traced(tr *tracedRun) error
}

// tracedRun is a traced run in progress: the result it fills (ledger
// entries, attempts, failures, notes) and the span recorders to merge.
// With Smoke the sizes are too small to time and the driver band is
// only noted.
type tracedRun struct {
	*result
	recs []*recorder
}

// set records one per-layer metric, a single reading.
func (tr *tracedRun) set(name string, v float64) {
	tr.put(name, metricOut{Value: v, Min: v, Max: v, N: 1})
}

// workloadDef is one entry of the fixed workload list. Later issues
// cite these names; the sizes are the largest that fit the per-run cap
// on the 2-core reference box (ticks were cut, never peers or agents).
type workloadDef struct {
	name string
	size string // stated in every result
	new  func(seed uint64, smoke bool) workloadRun
}

var workloads = []workloadDef{
	{"steady-2k", "2000 peers, churn off, no agents, police off, 10800 ticks", newSimWorkload("steady-2k")},
	{"attack-40k", "40000 peers, 200 agents, churn on, DD-POLICE on, 180 ticks, attack at 30 s", newSimWorkload("attack-40k")},
	{"scale-100k", "100000 peers, churn off, no agents, police off, 60 ticks", newSimWorkload("scale-100k")},
	{"paper-figs", "Fig9To11+Fig12 at 2000 peers, 54 runs (18 configurations x 3 seeds), churn on, 180 ticks, attack at 60 s", newFigsWorkload},
	{"live-12", "12-node BA(m=2) gnet harness on loopback TCP, 2 closed-loop clients x 4000 queries, then one 330 q/s agent until cut", newLiveWorkload},
}

// instantiate builds the worlds of workload i for a run seed. Every
// world has its own seed derived from (run seed, workload, world), so
// no two share a random stream.
func instantiate(i int, seed uint64, smoke bool) []workloadRun {
	n := worldsPerRun
	if smoke {
		n = smokeWorlds
	}
	worlds := make([]workloadRun, n)
	for k := range worlds {
		worlds[k] = workloads[i].new(rng.SubSeed(seed, uint64(i), uint64(k)), smoke)
	}
	return worlds
}

// simConfig is a simulator workload's Config. Everything but the seed
// is fixed: the workloads differ in working-set size against the
// traversal cache (cacheMaxVisits), in whether connectivity changes
// per tick, and in which layers run at all.
func simConfig(name string, seed uint64, smoke bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.ChurnEnabled = false
	switch name {
	case "steady-2k":
		// 2,000 trees fit the cache: replay does almost all the work.
		cfg.NumPeers, cfg.DurationSec = 2000, 10800
		if smoke {
			cfg.NumPeers, cfg.DurationSec = 300, 600
		}
	case "attack-40k":
		// Paper agent density (0.5 %), connectivity changing every tick,
		// working set far beyond the cache.
		cfg.NumPeers, cfg.NumAgents, cfg.DurationSec, cfg.AttackStartSec = 40000, 200, 180, 30
		cfg.ChurnEnabled, cfg.PoliceEnabled = true, true
		if smoke {
			cfg.NumPeers, cfg.NumAgents, cfg.DurationSec = 1500, 8, 120
		}
	case "scale-100k":
		// Cold cache at the largest committed size.
		cfg.NumPeers, cfg.DurationSec = 100000, 60
		if smoke {
			cfg.NumPeers = 6000
		}
	}
	return cfg
}

type simWorkload struct{ cfg sim.Config }

func newSimWorkload(name string) func(seed uint64, smoke bool) workloadRun {
	return func(seed uint64, smoke bool) workloadRun {
		return &simWorkload{cfg: simConfig(name, seed, smoke)}
	}
}

func (s *simWorkload) setup() (float64, error) { return timedBuild(s.cfg) }

// timedBuild times the set-up half of sim.Run for cfg.
func timedBuild(cfg sim.Config) (float64, error) {
	smp, err := timed(func() error {
		_, err := buildWorld(cfg, nil)
		return err
	})
	return smp.wall, err
}

func (s *simWorkload) rep() (repResult, error) {
	var res *sim.Result
	smp, err := timed(func() (err error) {
		res, err = sim.Run(s.cfg)
		return err
	})
	if err != nil {
		return repResult{}, err
	}
	d, err := digestSimResult(res)
	if err != nil {
		return repResult{}, err
	}
	r := repResult{
		sample: smp, ops: float64(s.cfg.NumPeers) * float64(s.cfg.DurationSec),
		attempted: 1, digest: d, notes: implausible(s.cfg, res),
	}
	if len(r.notes) > 0 {
		r.failed = 1
	}
	return r, nil
}

// implausible lists what is wrong with a Result whatever the seed. The
// pinned digest is the exact check; this is what a seed with no pin
// still gets, beside repeating exactly.
func implausible(cfg sim.Config, res *sim.Result) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if got, want := len(res.Minutes), cfg.DurationSec/60; got != want {
		fail("%d minutes closed, want %d", got, want)
	}
	// Every online peer issues QueriesPerMin; churn keeps a share offline.
	expect := cfg.QueriesPerMin * float64(cfg.NumPeers) * float64(cfg.DurationSec) / 60
	if q := float64(res.QueriesIssued); q < 0.3*expect || q > 1.1*expect {
		fail("%d queries issued, expected about %.0f", res.QueriesIssued, expect)
	}
	if res.OverallSuccess <= 0 || res.OverallSuccess > 1 {
		fail("overall success rate %v outside (0,1]", res.OverallSuccess)
	}
	if res.MeanTraffic <= 0 {
		fail("mean traffic %v per minute", res.MeanTraffic)
	}
	attacked := cfg.NumAgents > 0 && cfg.AttackStartSec < cfg.DurationSec
	if attacked != (res.AttackVolume > 0) {
		fail("attack volume %v with %d agents", res.AttackVolume, cfg.NumAgents)
	}
	if attacked && cfg.PoliceEnabled && res.Detections == 0 {
		fail("DD-POLICE detected none of %d agents", cfg.NumAgents)
	}
	if !cfg.PoliceEnabled && (res.Detections != 0 || res.CutEdges != 0) {
		fail("%d detections and %d cut edges with DD-POLICE off", res.Detections, res.CutEdges)
	}
	return bad
}

func (s *simWorkload) traced(tr *tracedRun) error { return tracedSim(s.cfg, tr) }

// figsWorkload regenerates the paper's Figs 9-12 the way `ddexp -scale
// paper` does, with the replica seeds derived from the run seed.
type figsWorkload struct{ scale ddpolice.Scale }

func newFigsWorkload(seed uint64, smoke bool) workloadRun {
	sc := ddpolice.PaperScale()
	sc.DurationSec, sc.AttackStartSec = 180, 60
	sc.Seed = rng.SubSeed(seed, 0)
	for i := range sc.Seeds {
		sc.Seeds[i] = rng.SubSeed(seed, uint64(i+1))
	}
	if smoke {
		sc.NumPeers, sc.DurationSec, sc.AttackStartSec = 200, 60, 20
		sc.Seeds = sc.Seeds[:2]
		sc.AgentCounts = []int{0, 2}
		sc.TimelineAgents, sc.TimelineCTs = 2, []float64{5}
	}
	return &figsWorkload{scale: sc}
}

// runs counts the sim.Run calls behind Fig9To11 + Fig12.
func (f *figsWorkload) runs() int {
	configs := 1 // Fig9To11 baseline
	for _, k := range f.scale.AgentCounts {
		if k > 0 {
			configs += 2 // attacked, defended
		}
	}
	configs += 2 + len(f.scale.TimelineCTs) // Fig12 baseline, undefended, one per CT
	return configs * len(f.scale.Seeds)
}

// defended is the one configuration of the sweep the layer driver
// replays: the Fig 12 defended timeline on the first replica seed. It
// repeats what the root package's unexported Scale.baseConfig does.
func (f *figsWorkload) defended() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = f.scale.Seeds[0]
	cfg.NumPeers = f.scale.NumPeers
	cfg.DurationSec = f.scale.DurationSec
	cfg.AttackStartSec = f.scale.AttackStartSec
	cfg.NumAgents = f.scale.TimelineAgents
	cfg.PoliceEnabled = true
	return cfg
}

func (f *figsWorkload) setup() (float64, error) { return timedBuild(f.defended()) }

// figures regenerates Figs 9-12 and returns the digest of their data
// and what is wrong with it whatever the seed (see implausible).
func (f *figsWorkload) figures(rec *recorder) (digest string, bad []string, err error) {
	id := rec.begin("exp.fig9_11")
	sweep, err := ddpolice.Fig9To11(f.scale)
	rec.end(id)
	if err != nil {
		return "", nil, err
	}
	id = rec.begin("exp.fig12")
	timelines, err := ddpolice.Fig12(f.scale)
	rec.end(id)
	if err != nil {
		return "", nil, err
	}
	if len(sweep) != len(f.scale.AgentCounts) {
		bad = append(bad, fmt.Sprintf("Fig 9-11: %d points for %d agent counts", len(sweep), len(f.scale.AgentCounts)))
	}
	for _, p := range sweep {
		if p.TrafficBaseline <= 0 || p.TrafficAttack <= 0 || p.TrafficDefended <= 0 ||
			p.SuccessBaseline <= 0 || p.SuccessBaseline > 1 {
			bad = append(bad, fmt.Sprintf("Fig 9-11 at %d agents: %+v", p.Agents, p))
		}
	}
	if len(timelines) != 1+len(f.scale.TimelineCTs) {
		bad = append(bad, fmt.Sprintf("Fig 12: %d timelines for %d thresholds", len(timelines), len(f.scale.TimelineCTs)))
	}
	for _, tl := range timelines {
		if len(tl.Damage) != f.scale.DurationSec/60 {
			bad = append(bad, fmt.Sprintf("Fig 12 %s: %d minutes, want %d", tl.Label, len(tl.Damage), f.scale.DurationSec/60))
		}
	}
	digest, err = digestJSON(struct {
		Sweep     []ddpolice.SweepPoint
		Timelines []ddpolice.Timeline
	}{sweep, timelines})
	return digest, bad, err
}

func (f *figsWorkload) rep() (repResult, error) {
	r := repResult{attempted: 1}
	var err error
	r.sample, err = timed(func() (err error) {
		r.digest, r.notes, err = f.figures(nil)
		return err
	})
	if err != nil {
		return repResult{}, err
	}
	if len(r.notes) > 0 {
		r.failed = 1
	}
	r.ops = float64(f.runs()) * float64(f.scale.NumPeers) * float64(f.scale.DurationSec)
	return r, nil
}

func (f *figsWorkload) traced(tr *tracedRun) error {
	rec := newRecorder(tr.Workload)
	tr.recs = append(tr.recs, rec)
	tr.Attempted++
	_, bad, err := f.figures(rec)
	if err != nil {
		return err
	}
	for _, b := range bad {
		tr.fail("%s", b)
	}
	st := rec.stats()
	tr.set("exp.fig9_11_s", float64(st["exp.fig9_11"].TotalNs)/1e9)
	tr.set("exp.fig12_s", float64(st["exp.fig12"].TotalNs)/1e9)
	tr.set("exp.runs", float64(f.runs()))

	// Replica-level parallelism: the same three replicas one after the
	// other, then through the worker pool sim.Averaged uses.
	cfgs := make([]sim.Config, len(f.scale.Seeds))
	for i, s := range f.scale.Seeds {
		cfgs[i] = f.defended()
		cfgs[i].Seed = s
	}
	var single series
	for _, c := range cfgs {
		t0 := time.Now()
		if _, err := sim.Run(c); err != nil {
			return err
		}
		single = append(single, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if _, err := sim.RunParallel(cfgs); err != nil {
		return err
	}
	par := time.Since(t0).Seconds()
	sequential := 0.0
	for _, s := range single {
		sequential += s
	}
	tr.set("sim.run_2k_s", single.median())
	tr.set("sim.replica_speedup", sequential/par)

	return tracedSim(f.defended(), tr)
}
