package ddpolice

import (
	"fmt"

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

// run executes cfg once, or averaged across s.Seeds when set.
func (s Scale) run(cfg Config) (*Result, error) {
	if len(s.Seeds) == 0 {
		return sim.Run(cfg)
	}
	return sim.Averaged(cfg, s.Seeds)
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
func Fig9To11(scale Scale) ([]SweepPoint, error) {
	base := scale.baseConfig()
	baseline, err := scale.run(base)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(scale.AgentCounts))
	for _, k := range scale.AgentCounts {
		p := SweepPoint{
			Agents:           k,
			TrafficBaseline:  baseline.MeanTraffic,
			ResponseBaseline: baseline.MeanResponseTime,
			SuccessBaseline:  baseline.OverallSuccess,
		}
		if k == 0 {
			p.TrafficAttack = baseline.MeanTraffic
			p.TrafficDefended = baseline.MeanTraffic
			p.ResponseAttack = baseline.MeanResponseTime
			p.ResponseDefended = baseline.MeanResponseTime
			p.SuccessAttack = baseline.OverallSuccess
			p.SuccessDefended = baseline.OverallSuccess
			out = append(out, p)
			continue
		}
		cfg := base
		cfg.NumAgents = k
		attacked, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		cfg.PoliceEnabled = true
		defended, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		p.TrafficAttack = attacked.MeanTraffic
		p.ResponseAttack = attacked.MeanResponseTime
		p.SuccessAttack = attacked.OverallSuccess
		p.TrafficDefended = defended.MeanTraffic
		p.ResponseDefended = defended.MeanResponseTime
		p.SuccessDefended = defended.OverallSuccess
		p.Detections = defended.Detections
		p.FalseNegatives = defended.FalseNegatives
		p.FalsePositives = defended.FalsePositives
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
func Fig12(scale Scale) ([]Timeline, error) {
	base := scale.baseConfig()
	baseline, err := scale.run(base)
	if err != nil {
		return nil, err
	}
	attack := base
	attack.NumAgents = scale.TimelineAgents
	undefended, err := scale.run(attack)
	if err != nil {
		return nil, err
	}
	out := []Timeline{{
		Label:  "no DD-POLICE",
		Damage: metrics.DamageSeries(baseline.SuccessSeries, undefended.SuccessSeries),
	}}
	for _, ct := range scale.TimelineCTs {
		cfg := attack
		cfg.PoliceEnabled = true
		cfg.Police.CutThreshold = ct
		defended, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Timeline{
			Label:  fmt.Sprintf("DD-POLICE-%g", ct),
			Damage: metrics.DamageSeries(baseline.SuccessSeries, defended.SuccessSeries),
		})
	}
	return out, nil
}

// recoveryMinutes is Fig 14's measure of a damage series: minutes from
// D >= 20% until D <= 15%. Damage that never reached 20% recovered
// immediately (0); damage that never fell back is -1.
func recoveryMinutes(dmg []float64) int {
	rec, err := metrics.RecoveryTime(dmg, 20, 15)
	if err != nil {
		return 0
	}
	return rec
}

// CTPoint is one x-position of Figures 13 and 14.
type CTPoint struct {
	CutThreshold    float64
	FalseNegatives  int // good peers wrongly disconnected (paper naming)
	FalsePositives  int // agents never identified (paper naming)
	FalseJudgment   int // sum of the two
	RecoveryMinutes int // Fig 14; -1 = never recovered
	StableDamage    float64
}

// Fig13And14 sweeps the cut threshold, measuring the three error
// counts (Fig 13) and the damage recovery time (Fig 14: minutes from
// D >= 20% until D <= 15%).
func Fig13And14(scale Scale) ([]CTPoint, error) {
	base := scale.baseConfig()
	baseline, err := scale.run(base)
	if err != nil {
		return nil, err
	}
	out := make([]CTPoint, 0, len(scale.CutThresholds))
	for _, ct := range scale.CutThresholds {
		cfg := base
		cfg.NumAgents = scale.TimelineAgents
		cfg.PoliceEnabled = true
		cfg.Police.CutThreshold = ct
		r, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		dmg := metrics.DamageSeries(baseline.SuccessSeries, r.SuccessSeries)
		out = append(out, CTPoint{
			CutThreshold:    ct,
			FalseNegatives:  r.FalseNegatives,
			FalsePositives:  r.FalsePositives,
			FalseJudgment:   r.FalseNegatives + r.FalsePositives,
			RecoveryMinutes: recoveryMinutes(dmg),
			StableDamage:    metrics.MeanTail(dmg, 0.2),
		})
	}
	return out, nil
}

// FreqPoint is one row of the §3.7.1 neighbor-list exchange frequency
// study.
type FreqPoint struct {
	Label           string
	PeriodSec       float64 // 0 for event-driven
	ListMessages    uint64  // exchange overhead
	FalseNegatives  int
	FalsePositives  int
	RecoveryMinutes int
}

// ExchangeFrequencyStudy compares periodic neighbor-list exchange at
// several periods against the event-driven policy, under churn and
// attack (§3.7.1: s <= 2 min performs alike; event-driven costs far
// more; long periods degrade accuracy through stale lists).
func ExchangeFrequencyStudy(scale Scale, periodsMin []float64) ([]FreqPoint, error) {
	base := scale.baseConfig()
	baseline, err := scale.run(base)
	if err != nil {
		return nil, err
	}
	variants := make([]variant, 0, len(periodsMin)+1)
	for _, mins := range periodsMin {
		variants = append(variants, variant{fmt.Sprintf("periodic %gmin", mins),
			func(c *Config) { c.Police.ExchangePeriod = mins * 60 }})
	}
	variants = append(variants, variant{"event-driven", func(c *Config) { c.Police.EventDriven = true }})
	out := make([]FreqPoint, 0, len(variants))
	for _, v := range variants {
		cfg := base
		cfg.NumAgents = scale.TimelineAgents
		cfg.PoliceEnabled = true
		v.mutate(&cfg)
		r, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		p := FreqPoint{
			Label:           v.label,
			ListMessages:    r.Overhead.NeighborListMsgs,
			FalseNegatives:  r.FalseNegatives,
			FalsePositives:  r.FalsePositives,
			RecoveryMinutes: recoveryMinutes(metrics.DamageSeries(baseline.SuccessSeries, r.SuccessSeries)),
		}
		if !cfg.Police.EventDriven {
			p.PeriodSec = cfg.Police.ExchangePeriod
		}
		out = append(out, p)
	}
	return out, nil
}

// CheatPoint is one row of the §3.4 cheating study.
type CheatPoint struct {
	Strategy       string
	Detections     int
	FalseNegatives int
	FalsePositives int
	Success        float64
}

// CheatingStudy runs the defense against each Neighbor_Traffic
// reporting strategy of §3.4: honest, inflating (Case 1), deflating
// (Case 2) and silent.
func CheatingStudy(scale Scale) ([]CheatPoint, error) {
	strategies := []variant{
		{"honest", func(c *Config) { c.Agent.Cheat = police.CheatNone }},
		{"inflate", func(c *Config) { c.Agent.Cheat = police.CheatInflate }},
		{"deflate", func(c *Config) { c.Agent.Cheat = police.CheatDeflate }},
		{"silent", func(c *Config) { c.Agent.Cheat = police.CheatSilent }},
	}
	out := make([]CheatPoint, 0, len(strategies))
	for _, s := range strategies {
		cfg := scale.baseConfig()
		cfg.NumAgents = scale.TimelineAgents
		cfg.PoliceEnabled = true
		s.mutate(&cfg)
		r, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, CheatPoint{
			Strategy:       s.label,
			Detections:     r.Detections,
			FalseNegatives: r.FalseNegatives,
			FalsePositives: r.FalsePositives,
			Success:        r.OverallSuccess,
		})
	}
	return out, nil
}

// variant is one labelled row of a study: a named change to the
// study's base configuration.
type variant struct {
	label  string
	mutate func(*Config)
}
