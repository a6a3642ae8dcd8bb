package ddpolice

import (
	"errors"
	"fmt"
	"slices"

	"ddpolice/internal/capacity"
	"ddpolice/internal/metrics"
	"ddpolice/internal/police"
	"ddpolice/internal/sim"
)

// Scale bundles the experiment dimensions so the same harness can run
// a quick (bench/CI) or a full (paper) regeneration.
type Scale struct {
	NumPeers       int
	DurationSec    int
	AttackStartSec int
	Seed           uint64
	// Seeds, when non-empty, averages every experiment over these
	// replica seeds (element-wise for series, mean for scalars).
	Seeds          []uint64
	AgentCounts    []int     // x-axis of Figs 9-11
	CutThresholds  []float64 // x-axis of Figs 13-14
	TimelineAgents int       // agent count for Fig 12 timelines
	TimelineCTs    []float64 // CT variants in Fig 12
}

// QuickScale is small enough for unit benches: ~1 simulated minute per
// sweep point at 600 peers.
func QuickScale() Scale {
	return Scale{
		NumPeers:       600,
		DurationSec:    300,
		AttackStartSec: 60,
		Seed:           1,
		AgentCounts:    []int{0, 1, 3, 6},
		CutThresholds:  []float64{1, 3, 5, 7, 10, 15},
		TimelineAgents: 6,
		TimelineCTs:    []float64{3, 7, 10},
	}
}

// PaperScale matches the paper's environment per DESIGN.md: 2,000
// peers (the paper's agent-density range maps 1:10 onto its 20,000-peer
// topologies), 30 simulated minutes.
func PaperScale() Scale {
	return Scale{
		NumPeers:       2000,
		DurationSec:    1800,
		AttackStartSec: 300,
		Seed:           1,
		Seeds:          []uint64{1, 2, 3},
		AgentCounts:    []int{0, 1, 2, 5, 10, 15, 20},
		CutThresholds:  []float64{1, 2, 3, 5, 7, 10, 15, 20},
		TimelineAgents: 10,
		TimelineCTs:    []float64{3, 7, 10},
	}
}

func (s Scale) baseConfig() Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.NumPeers = s.NumPeers
	cfg.DurationSec = s.DurationSec
	cfg.AttackStartSec = s.AttackStartSec
	return cfg
}

// Row is one run of a figure. The figure's plan declares it (Label,
// unique within the figure, and the Config to run), the executor finishes
// it (Result, Observed) and the row builder says what it is compared
// with (Against). Columns read Config and Result directly.
type Row struct {
	Label    string
	Config   Config
	Result   *Result
	Against  *Result // the study's no-attack run, or for an ablation the same variant without DD-POLICE; nil: compared with nothing
	Observed any     // what the figure's Observe made of the run's Journal, Trace or Telemetry
}

// Execute runs the figure's plan at scale and builds its data. Outside
// the Run/RunParallel facade it is the one place a simulation starts: the
// whole plan is one sim.Grid — every row on every one of scale.Seeds (none:
// on its own Config.Seed) as flat jobs on one worker pool, a seed's rows
// sharing its world — and the data is what running them in declared order
// would give. Under Observe a Journal, Trace or registry narrates one run,
// so those rows execute one at a time on their own Config.Seed and are
// condensed as they end (a study of seven holds one journal at a time).
func (f Figure) Execute(scale Scale) (any, error) {
	var rows []Row
	if f.Plan != nil {
		rows = f.Plan(scale)
	}
	batch, seeds := len(rows), scale.Seeds
	if f.Observe != nil {
		batch, seeds = 1, nil
	}
	for at := 0; at < len(rows); at += batch {
		part := rows[at : at+batch]
		cfgs := make([]Config, len(part))
		for i, r := range part {
			cfgs[i] = r.Config
		}
		results, err := sim.Grid(cfgs, seeds)
		var job *sim.JobError
		if errors.As(err, &job) {
			return nil, fmt.Errorf("-fig %s, run %q, seed %d: %w", f.Keys[0], part[job.Index].Label, job.Seed, job.Err)
		}
		for i := range part {
			r := &part[i]
			r.Result = results[i]
			if f.Observe != nil {
				r.Observed = f.Observe(*r)
				r.Config.Journal, r.Config.Trace = nil, nil
			}
		}
	}
	if f.Build == nil {
		return rows, nil
	}
	return f.Build(scale, rows)
}

// figureData executes the table entry that -fig key selects and returns
// its data as a T: the typed entry points below are views of the table.
func figureData[T any](key string, scale Scale) (T, error) {
	i := slices.IndexFunc(Figures, func(f Figure) bool { return slices.Contains(f.Keys, key) })
	data, err := Figures[i].Execute(scale)
	if err != nil {
		var zero T
		return zero, err
	}
	return data.(T), nil
}

func (r Row) damage() []float64 {
	return metrics.DamageSeries(r.Against.SuccessSeries, r.Result.SuccessSeries)
}

// RecoveryMinutes is Fig 14's measure of the row's damage against its
// baseline: minutes from D >= 20% until D <= 15%. Damage that never
// reached 20% recovered immediately (0); damage that never fell back
// is -1.
func (r Row) RecoveryMinutes() int {
	rec, err := metrics.RecoveryTime(r.damage(), 20, 15)
	if err != nil {
		return 0
	}
	return rec
}

// StableDamage is the mean damage (percent) over the final tail
// fraction of the run.
func (r Row) StableDamage(tail float64) float64 { return metrics.MeanTail(r.damage(), tail) }

// FalseJudgment is the paper's combined error count: good peers wrongly
// disconnected plus agents never identified.
func (r Row) FalseJudgment() int { return r.Result.FalseNegatives + r.Result.FalsePositives }

// variant is one labelled run of a plan: a named change to the plan's
// attacked configuration.
type variant struct {
	label  string
	mutate func(*Config) // nil: the attacked configuration as it stands
}

// noAttack leads a plan whose rows are compared with the same overlay
// left alone: no agents, no DD-POLICE.
var noAttack = variant{"no attack", func(c *Config) { c.NumAgents, c.PoliceEnabled = 0, false }}

// plan declares one run per variant: base under the scale's
// TimelineAgents agents with DD-POLICE on or off, then the variant's own
// change, which may override either.
func (s Scale) plan(base Config, defended bool, vs ...variant) []Row {
	rows := make([]Row, len(vs))
	for i, v := range vs {
		cfg := base
		cfg.NumAgents = s.TimelineAgents
		cfg.PoliceEnabled = defended
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		rows[i] = Row{Label: v.label, Config: cfg}
	}
	return rows
}

// againstFirst is the row builder of a plan led by noAttack: every later
// row is compared with that baseline.
func againstFirst(_ Scale, rows []Row) (any, error) {
	for i := range rows[1:] {
		rows[i+1].Against = rows[0].Result
	}
	return rows[1:], nil
}

// Fig5And6 regenerates the single-peer saturation curves: processed
// rate vs offered rate (Fig 5) and drop rate vs offered rate (Fig 6),
// using the paper's testbed calibration (saturation ~15k/min; 47%
// drops at the agent's maximum ~29k/min).
func Fig5And6() ([]capacity.SaturationPoint, error) {
	offered := []float64{1000, 2500, 5000, 7500, 10000, 12500, 15000,
		17500, 20000, 22500, 25000, 27500, 29000}
	return capacity.SaturationCurve(capacity.TestbedSaturationPerMin, offered, 600)
}

// SweepPoint is one x-position of Figures 9, 10 and 11: the three
// scenario curves (no attack / attack / attack + DD-POLICE) at a given
// agent count.
type SweepPoint struct {
	Agents int

	TrafficBaseline float64 // messages per minute, no DDoS attack
	TrafficAttack   float64 // under DDoS without DD-POLICE
	TrafficDefended float64 // under DDoS with DD-POLICE

	ResponseBaseline float64 // seconds
	ResponseAttack   float64
	ResponseDefended float64

	SuccessBaseline float64 // fraction in [0,1]
	SuccessAttack   float64
	SuccessDefended float64

	Detections     int
	FalseNegatives int
	FalsePositives int
}

// Fig9To11 runs the agent-count sweep behind Figures 9 (traffic cost),
// 10 (response time) and 11 (success rate). The three figures share
// the same runs, so one sweep regenerates all of them.
func Fig9To11(scale Scale) ([]SweepPoint, error) { return figureData[[]SweepPoint]("9", scale) }

// withAgents is the variant that attacks with n agents instead of the
// scale's TimelineAgents.
func withAgents(n int, defended bool) variant {
	return variant{fmt.Sprintf("%d agents, DD-POLICE %t", n, defended), func(c *Config) { c.NumAgents, c.PoliceEnabled = n, defended }}
}

// sweepPlan is the no-attack run, then each nonzero agent count without
// and with DD-POLICE; zero agents is the no-attack run itself.
func sweepPlan(s Scale) []Row {
	vs := []variant{noAttack}
	for _, k := range s.AgentCounts {
		if k > 0 {
			vs = append(vs, withAgents(k, false), withAgents(k, true))
		}
	}
	return s.plan(s.baseConfig(), false, vs...)
}

func sweepPoints(s Scale, rows []Row) (any, error) {
	base, rest := rows[0].Result, rows[1:]
	out := make([]SweepPoint, 0, len(s.AgentCounts))
	for _, k := range s.AgentCounts {
		atk, def := base, base
		p := SweepPoint{Agents: k}
		if k > 0 {
			atk, def, rest = rest[0].Result, rest[1].Result, rest[2:]
			p.Detections, p.FalseNegatives, p.FalsePositives = def.Detections, def.FalseNegatives, def.FalsePositives
		}
		p.TrafficBaseline, p.TrafficAttack, p.TrafficDefended = base.MeanTraffic, atk.MeanTraffic, def.MeanTraffic
		p.ResponseBaseline, p.ResponseAttack, p.ResponseDefended = base.MeanResponseTime, atk.MeanResponseTime, def.MeanResponseTime
		p.SuccessBaseline, p.SuccessAttack, p.SuccessDefended = base.OverallSuccess, atk.OverallSuccess, def.OverallSuccess
		out = append(out, p)
	}
	return out, nil
}

// Timeline is one Fig 12 curve: damage rate D(t) per minute for a
// defense variant.
type Timeline struct {
	Label  string
	Damage []float64 // percent, per minute
}

// Fig12 regenerates the damage-rate timelines: no defense, and
// DD-POLICE at each cut threshold in scale.TimelineCTs.
func Fig12(scale Scale) ([]Timeline, error) { return figureData[[]Timeline]("12", scale) }

// cutThreshold is the variant that defends at CT = ct.
func cutThreshold(label string, ct float64) variant {
	return variant{fmt.Sprintf(label, ct), func(c *Config) { c.PoliceEnabled, c.Police.CutThreshold = true, ct }}
}

func timelinePlan(s Scale) []Row {
	vs := []variant{noAttack, {label: "no DD-POLICE"}}
	for _, ct := range s.TimelineCTs {
		vs = append(vs, cutThreshold("DD-POLICE-%g", ct))
	}
	return s.plan(s.baseConfig(), false, vs...)
}

func timelines(_ Scale, rows []Row) (any, error) {
	out := make([]Timeline, 0, len(rows))
	for _, r := range rows[1:] {
		r.Against = rows[0].Result
		out = append(out, Timeline{Label: r.Label, Damage: r.damage()})
	}
	return out, nil
}

// Fig13And14 sweeps the cut threshold: one Row per CT, compared with the
// no-attack run, carrying the three error counts (Fig 13) and the damage
// recovery time (Fig 14).
func Fig13And14(scale Scale) ([]Row, error) { return figureData[[]Row]("13", scale) }

func ctPlan(s Scale) []Row {
	vs := []variant{noAttack}
	for _, ct := range s.CutThresholds {
		vs = append(vs, cutThreshold("CT=%g", ct))
	}
	return s.plan(s.baseConfig(), true, vs...)
}

// freqPlan is the §3.7.1 neighbor-list exchange frequency study:
// periodic exchange at several periods against the event-driven policy,
// under churn and attack (s <= 2 min performs alike; event-driven costs
// far more; long periods degrade accuracy through stale lists).
func freqPlan(s Scale, periodsMin ...float64) []Row {
	vs := []variant{noAttack}
	for _, mins := range periodsMin {
		vs = append(vs, variant{fmt.Sprintf("periodic %gmin", mins),
			func(c *Config) { c.Police.ExchangePeriod = mins * 60 }})
	}
	vs = append(vs, variant{"event-driven", func(c *Config) { c.Police.EventDriven = true }})
	return s.plan(s.baseConfig(), true, vs...)
}

// cheatPlan runs the defense against each Neighbor_Traffic reporting
// strategy of §3.4: honest, inflating (Case 1), deflating (Case 2) and
// silent.
func cheatPlan(s Scale) []Row {
	return s.plan(s.baseConfig(), true,
		variant{"honest", func(c *Config) { c.Agent.Cheat = police.CheatNone }},
		variant{"inflate", func(c *Config) { c.Agent.Cheat = police.CheatInflate }},
		variant{"deflate", func(c *Config) { c.Agent.Cheat = police.CheatDeflate }},
		variant{"silent", func(c *Config) { c.Agent.Cheat = police.CheatSilent }})
}
