package ddpolice

// Extension studies beyond the paper's figures: DD-POLICE-r (§3.5
// promises r > 1), the §3.1 lying-peer countermeasure, and ablations of
// the modeling decisions DESIGN.md calls out.

import (
	"fmt"
	"sort"

	"ddpolice/internal/capacity"
	"ddpolice/internal/chord"
	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/metrics"
	"ddpolice/internal/overload"
	"ddpolice/internal/rng"
)

// RadiusPoint compares DD-POLICE-r variants.
type RadiusPoint struct {
	Radius          int
	Detections      int
	FalseNegatives  int
	FalsePositives  int
	ListMessages    uint64
	Success         float64
	RecoveryMinutes int
}

// RadiusStudy contrasts DD-POLICE-1 with DD-POLICE-2 under heavy churn:
// r=2 relays neighbor lists one hop further, so buddy-group views
// survive a missed exchange at the cost of more control traffic (the
// §3.5 motivation for r > 1).
func RadiusStudy(scale Scale) ([]RadiusPoint, error) {
	base := scale.baseConfig()
	// Heavy churn is where the radius matters.
	base.Churn.MeanLifetime = 300
	base.Churn.StddevLifetime = 70
	base.Churn.MeanOffline = 300
	baseline, err := scale.run(base)
	if err != nil {
		return nil, err
	}
	out := make([]RadiusPoint, 0, 2)
	for _, r := range []int{1, 2} {
		cfg := base
		cfg.NumAgents = scale.TimelineAgents
		cfg.PoliceEnabled = true
		cfg.Police.Radius = r
		res, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, RadiusPoint{
			Radius:          r,
			Detections:      res.Detections,
			FalseNegatives:  res.FalseNegatives,
			FalsePositives:  res.FalsePositives,
			ListMessages:    res.Overhead.NeighborListMsgs,
			Success:         res.OverallSuccess,
			RecoveryMinutes: recoveryMinutes(metrics.DamageSeries(baseline.SuccessSeries, res.SuccessSeries)),
		})
	}
	return out, nil
}

// LiarPoint is one row of the lying-peer study.
type LiarPoint struct {
	Label          string
	Detections     int
	FalsePositives int
	Success        float64
	VerifyMsgs     uint64
}

// LiarStudy evaluates the §3.1 countermeasure: agents fabricate
// neighbor-list entries; with VerifyLists enabled, receivers confirm
// each claim with the named peer and disconnect inconsistent liars.
func LiarStudy(scale Scale) ([]LiarPoint, error) {
	rows := []variant{
		{"honest lists", func(*Config) {}},
		{"lying agents, no verification", func(c *Config) { c.AgentsLieAboutLists = true }},
		{"lying agents + verification", func(c *Config) { c.AgentsLieAboutLists = true; c.Police.VerifyLists = true }},
	}
	out := make([]LiarPoint, 0, len(rows))
	for _, row := range rows {
		cfg := scale.baseConfig()
		cfg.NumAgents = scale.TimelineAgents
		cfg.PoliceEnabled = true
		row.mutate(&cfg)
		res, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, LiarPoint{
			Label:          row.label,
			Detections:     res.Detections,
			FalsePositives: res.FalsePositives,
			Success:        res.OverallSuccess,
			VerifyMsgs:     res.Overhead.VerifyMsgs,
		})
	}
	return out, nil
}

// BaselinePoint compares defense strategies against the same attack.
type BaselinePoint struct {
	Label          string
	Success        float64
	Response       float64
	Detections     int
	FalseNegatives int
}

// BaselineDefenseStudy contrasts DD-POLICE with the related-work
// baseline the paper singles out (§4, reference [21]): application-
// layer load balancing that gives every connection a fair share of a
// peer's capacity. The paper argues the survival approach "could be
// less effective when the number of DDoS agents is getting large"
// because it never removes the attackers; DD-POLICE does.
func BaselineDefenseStudy(scale Scale) ([]BaselinePoint, error) {
	rows := []variant{
		{"no defense", func(*Config) {}},
		{"fair-share drop [21]", func(c *Config) { c.FairShareDrop = true }},
		{"DD-POLICE", func(c *Config) { c.PoliceEnabled = true }},
		{"DD-POLICE + fair-share", func(c *Config) { c.PoliceEnabled = true; c.FairShareDrop = true }},
	}
	out := make([]BaselinePoint, 0, len(rows))
	for _, row := range rows {
		cfg := scale.baseConfig()
		cfg.NumAgents = scale.TimelineAgents
		row.mutate(&cfg)
		r, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, BaselinePoint{
			Label:          row.label,
			Success:        r.OverallSuccess,
			Response:       r.MeanResponseTime,
			Detections:     r.Detections,
			FalseNegatives: r.FalseNegatives,
		})
	}
	return out, nil
}

// AblationPoint is one modeling-decision ablation row.
type AblationPoint struct {
	Label          string
	Success        float64
	SuccessNoDef   float64
	Detections     int
	FalseNegatives int
	FalsePositives int
}

// AblationStudy re-runs the 10-agent scenario with each calibrated
// modeling decision toggled, quantifying how load-bearing it is:
//
//   - "default": the calibrated operating point;
//   - "ideal counters": the paper's forward-everything monitoring plane
//     (breaks detection; DESIGN.md finding 1);
//   - "paper capacity 10k": the literal 10,000 q/min processing rate
//     (masks agents behind background flows; finding 1);
//   - "ttl 7": full-coverage floods (cliff damage; finding 2);
//   - "broadcast agents": agents flood the same stream to all
//     neighbors instead of the Fig 1 spray;
//   - "no churn": a static population.
func AblationStudy(scale Scale) ([]AblationPoint, error) {
	variants := []variant{
		{"default", func(*Config) {}},
		{"ideal counters", func(c *Config) { c.IdealCounters = true }},
		{"paper capacity 10k", func(c *Config) { c.GoodCapacityPerMin = 10000 }},
		{"ttl 7", func(c *Config) { c.TTL = 7; c.Agent.TTL = 7 }},
		{"broadcast agents", func(c *Config) { c.Agent.Mode = broadcastMode }},
		{"no churn", func(c *Config) { c.ChurnEnabled = false }},
	}
	out := make([]AblationPoint, 0, len(variants))
	for _, v := range variants {
		undef := scale.baseConfig()
		undef.NumAgents = scale.TimelineAgents
		v.mutate(&undef)
		ru, err := scale.run(undef)
		if err != nil {
			return nil, fmt.Errorf("%s (undefended): %w", v.label, err)
		}
		def := undef
		def.PoliceEnabled = true
		rd, err := scale.run(def)
		if err != nil {
			return nil, fmt.Errorf("%s (defended): %w", v.label, err)
		}
		out = append(out, AblationPoint{
			Label:          v.label,
			Success:        rd.OverallSuccess,
			SuccessNoDef:   ru.OverallSuccess,
			Detections:     rd.Detections,
			FalseNegatives: rd.FalseNegatives,
			FalsePositives: rd.FalsePositives,
		})
	}
	return out, nil
}

// BlacklistPoint compares DD-POLICE with and without the re-join
// blacklist extension.
type BlacklistPoint struct {
	Label        string
	StableDamage float64
	Detections   int
	Success      float64
}

// BlacklistStudy measures the §5 future-work extension: the paper
// notes that nothing stops a disconnected agent from rejoining and
// launching another round. In the simulator that re-entry happens every
// time a previously-attacked good peer churns (its cuts are reset), and
// it is what keeps the residual damage in Figure 12 above zero. A
// blacklist lets observers cut convicted suspects on sight.
func BlacklistStudy(scale Scale) ([]BlacklistPoint, error) {
	base := scale.baseConfig()
	baseline, err := scale.run(base)
	if err != nil {
		return nil, err
	}
	rows := []variant{
		{"DD-POLICE (paper: no memory)", func(*Config) {}},
		{"DD-POLICE + 10-minute blacklist", func(c *Config) { c.Police.BlacklistSec = 600 }},
	}
	out := make([]BlacklistPoint, 0, len(rows))
	for _, row := range rows {
		cfg := base
		cfg.NumAgents = scale.TimelineAgents
		cfg.PoliceEnabled = true
		row.mutate(&cfg)
		r, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		dmg := metrics.DamageSeries(baseline.SuccessSeries, r.SuccessSeries)
		out = append(out, BlacklistPoint{
			Label:        row.label,
			StableDamage: metrics.MeanTail(dmg, 0.3),
			Detections:   r.Detections,
			Success:      r.OverallSuccess,
		})
	}
	return out, nil
}

// StructuredPoint compares attack damage on unstructured flooding vs a
// Chord-style structured overlay at the same agent count.
type StructuredPoint struct {
	Agents              int
	UnstructuredSuccess float64
	StructuredSuccess   float64
	StructuredMeanHops  float64
}

// StructuredStudy realizes the paper's other §5 future-work direction:
// "studying overlay DDoS in structured P2P systems [40]". The same
// agents (20k bogus requests/min each) flood a Chord ring whose nodes
// have the same per-peer capacity as the unstructured simulator's
// peers. A DHT lookup costs O(log n) hops instead of an O(coverage)
// flood, so the attacker's amplification — and the damage — collapses.
func StructuredStudy(scale Scale) ([]StructuredPoint, error) {
	base := scale.baseConfig()
	out := make([]StructuredPoint, 0, len(scale.AgentCounts))
	for _, agents := range scale.AgentCounts {
		// Unstructured reference: undefended flooding system.
		cfg := base
		cfg.NumAgents = agents
		un, err := scale.run(cfg)
		if err != nil {
			return nil, err
		}
		// Structured run at matching size, capacity, rates and duration.
		st, err := runChord(scale, agents)
		if err != nil {
			return nil, err
		}
		out = append(out, StructuredPoint{
			Agents:              agents,
			UnstructuredSuccess: un.OverallSuccess,
			StructuredSuccess:   st.success,
			StructuredMeanHops:  st.meanHops,
		})
	}
	return out, nil
}

type chordOutcome struct {
	success  float64
	meanHops float64
}

func runChord(scale Scale, agents int) (chordOutcome, error) {
	src := rng.New(scale.Seed)
	ccfg := chord.DefaultConfig()
	ccfg.CapacityPerMin = capacity.EffectiveForwardPerMin
	ring, err := chord.New(scale.NumPeers, ccfg, src.Split())
	if err != nil {
		return chordOutcome{}, err
	}
	agentIDs := src.Perm(scale.NumPeers)[:agents]
	good := src.Split()
	bogus := src.Split()
	const goodPerMin = 0.3
	agentPerTick := capacity.BadPeerIssuePerMin / 60
	var issued, ok uint64
	for t := 0; t < scale.DurationSec; t++ {
		ring.Tick()
		if t >= scale.AttackStartSec {
			for _, a := range agentIDs {
				for i := 0; i < agentPerTick; i++ {
					ring.Lookup(a, chord.NodeID(bogus.Uint64()))
				}
			}
		}
		n := good.Poisson(goodPerMin / 60 * float64(scale.NumPeers))
		for i := 0; i < n; i++ {
			issued++
			if res := ring.Lookup(good.Intn(scale.NumPeers), chord.NodeID(good.Uint64())); res.OK {
				ok++
			}
		}
	}
	outcome := chordOutcome{meanHops: ring.Stats().MeanHops}
	if issued > 0 {
		outcome.success = float64(ok) / float64(issued)
	}
	return outcome, nil
}

// DetectPoint is one suspect's detection timeline, reconstructed from
// the event journal: when its flood became visible, when the first
// observer crossed the warning threshold, when the first full
// Neighbor_Traffic round completed, and when the first edge was cut.
type DetectPoint struct {
	Suspect      int
	Agent        bool    // true when the suspect is a DDoS agent
	FloodStart   float64 // attack onset (agents) or first warning (good peers)
	FirstWarning float64
	QuorumAt     float64 // first completed indicator computation
	CutAt        float64
	LatencySec   float64 // CutAt - FloodStart
	Reports      int     // nt_report events before the first cut
	Timeouts     int     // nt_timeout events before the first cut
}

// DetectCDFPoint is one step of the detection-latency CDF.
type DetectCDFPoint struct {
	LatencySec float64
	Fraction   float64
}

// DetectReport is the journal-driven detection-pipeline study output.
type DetectReport struct {
	Points     []DetectPoint
	CDF        []DetectCDFPoint
	NTMessages uint64  // Neighbor_Traffic messages sent over the run
	Cuts       int     // cut events in the journal
	NTPerCut   float64 // NT overhead amortized per cut
	Events     int     // journal occupancy after the run
	Dropped    uint64  // events lost to the ring bound
}

// DetectTimelines reconstructs per-suspect detection timelines from a
// journal's events. Only suspects that were actually cut yield a
// point; counts cover the window up to each suspect's first cut, so a
// later re-detection round does not inflate the first one's cost.
func DetectTimelines(events []journal.Event) []DetectPoint {
	attackAt := map[int64]float64{}
	for _, e := range events {
		if e.Type == journal.TypeAttackStart {
			attackAt[e.Peer] = e.T
		}
	}
	type track struct {
		warning, quorum, cut float64
		hasWarn, hasQuorum   bool
		reports, timeouts    int
	}
	tracks := map[int64]*track{}
	at := func(id int64) *track {
		tr, ok := tracks[id]
		if !ok {
			tr = &track{cut: -1}
			tracks[id] = tr
		}
		return tr
	}
	for _, e := range events {
		tr := at(e.Peer)
		if tr.cut >= 0 {
			continue // timeline frozen at the first cut
		}
		switch e.Type {
		case journal.TypeWarning:
			if !tr.hasWarn {
				tr.warning, tr.hasWarn = e.T, true
			}
		case journal.TypeIndicator:
			if !tr.hasQuorum {
				tr.quorum, tr.hasQuorum = e.T, true
			}
		case journal.TypeNTReport:
			tr.reports++
		case journal.TypeNTTimeout:
			tr.timeouts++
		case journal.TypeCut:
			tr.cut = e.T
		}
	}
	ids := make([]int64, 0, len(tracks))
	for id, tr := range tracks {
		if tr.cut >= 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]DetectPoint, 0, len(ids))
	for _, id := range ids {
		tr := tracks[id]
		p := DetectPoint{
			Suspect:      int(id),
			FirstWarning: tr.warning,
			QuorumAt:     tr.quorum,
			CutAt:        tr.cut,
			Reports:      tr.reports,
			Timeouts:     tr.timeouts,
		}
		if start, isAgent := attackAt[id]; isAgent {
			p.Agent = true
			p.FloodStart = start
		} else {
			// A collateral good peer never "started flooding"; its
			// pipeline latency runs from the first warning instead.
			p.FloodStart = tr.warning
		}
		p.LatencySec = p.CutAt - p.FloodStart
		out = append(out, p)
	}
	return out
}

// detectCDF turns the per-suspect latencies into an empirical CDF.
func detectCDF(pts []DetectPoint) []DetectCDFPoint {
	lat := make([]float64, 0, len(pts))
	for _, p := range pts {
		lat = append(lat, p.LatencySec)
	}
	sort.Float64s(lat)
	out := make([]DetectCDFPoint, 0, len(lat))
	for i, v := range lat {
		out = append(out, DetectCDFPoint{
			LatencySec: v,
			Fraction:   float64(i+1) / float64(len(lat)),
		})
	}
	return out
}

// DetectStudy runs one seeded attack scenario with the event journal
// attached and reconstructs the detection pipeline's behaviour from
// it: per-suspect timelines, the detection-latency CDF, and the
// Neighbor_Traffic overhead amortized per cut. It runs a single
// simulation (not a seed average) because the journal narrates one
// run; scale.Seed picks which.
func DetectStudy(scale Scale) (*DetectReport, error) {
	cfg := scale.baseConfig()
	cfg.NumAgents = scale.TimelineAgents
	cfg.PoliceEnabled = true
	jr := journal.New(1 << 16)
	cfg.Journal = jr
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	events := jr.Events()
	cuts := 0
	for _, e := range events {
		if e.Type == journal.TypeCut {
			cuts++
		}
	}
	rep := &DetectReport{
		Points:     DetectTimelines(events),
		NTMessages: res.Overhead.NeighborTrafficMsgs,
		Cuts:       cuts,
		Events:     jr.Len(),
		Dropped:    jr.Dropped(),
	}
	rep.CDF = detectCDF(rep.Points)
	if cuts > 0 {
		rep.NTPerCut = float64(rep.NTMessages) / float64(cuts)
	}
	return rep, nil
}

// FaultPoint is one cell of the fault-plane sweep: DD-POLICE judgment
// quality at a given injected control-message loss rate under a given
// churn regime.
type FaultPoint struct {
	ControlLoss    float64
	Churn          string
	Detections     int
	FalseNegatives int
	FalsePositives int
	FalseJudgment  int // FN + FP, the paper's combined error metric
	Success        float64
}

// FaultsStudy sweeps injected control loss against churn regimes. The
// paper's §3.3 claim is that treating missing Neighbor_Traffic reports
// as zeros keeps judgments safe when control messages are lost; this
// study quantifies how far that holds as the fault plane degrades the
// control channel and crash churn leaves stale buddy-group state
// behind (a crashed peer never sends the leave-side notifications).
func FaultsStudy(scale Scale, losses []float64) ([]FaultPoint, error) {
	churns := []variant{
		{"none", func(c *Config) { c.ChurnEnabled = false }},
		{"paper", func(c *Config) { c.ChurnEnabled = true }},
		{"crash-heavy", func(c *Config) {
			c.ChurnEnabled = true
			c.Churn.MeanLifetime = 300
			c.Churn.StddevLifetime = 70
			c.Churn.MeanOffline = 300
			c.Churn.CrashFraction = 0.5
		}},
	}
	out := make([]FaultPoint, 0, len(churns)*len(losses))
	for _, ch := range churns {
		for _, loss := range losses {
			cfg := scale.baseConfig()
			cfg.NumAgents = scale.TimelineAgents
			cfg.PoliceEnabled = true
			ch.mutate(&cfg)
			if loss > 0 {
				cfg.Faults = &faults.Schedule{ControlLoss: loss}
			}
			res, err := scale.run(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, FaultPoint{
				ControlLoss:    loss,
				Churn:          ch.label,
				Detections:     res.Detections,
				FalseNegatives: res.FalseNegatives,
				FalsePositives: res.FalsePositives,
				FalseJudgment:  res.FalseNegatives + res.FalsePositives,
				Success:        res.OverallSuccess,
			})
		}
	}
	return out, nil
}

// OverloadPoint is one cell of the overload-resilience sweep: control
// delivery, query shedding and time-to-cut at a given
// offered-over-capacity factor, with and without the overload plane.
type OverloadPoint struct {
	Factor          float64 // agent rate as a multiple of peer capacity
	Plane           bool    // overload-resilience plane enabled
	ControlDelivery float64 // control messages delivered / sent
	QueryShedRate   float64 // query messages dropped / offered
	TimeToCutSec    float64 // first cut after attack start; -1 = never
	Detections      int
	Degraded        int // degraded-minute transitions journaled
}

// OverloadStudy sweeps the attack's offered-over-capacity factor with
// the overload-resilience plane off and on. The PR 7 claim it
// substantiates: as agents push 1x..10x a peer's processing capacity,
// the class-aware control reserve keeps DD-POLICE delivery >= 95% and
// time-to-cut bounded (degrading gracefully with load), while the
// unprotected control plane rides the same saturated links as the
// flood and loses up to ControlLossCap of its messages.
func OverloadStudy(scale Scale, factors []float64) ([]OverloadPoint, error) {
	out := make([]OverloadPoint, 0, 2*len(factors))
	for _, f := range factors {
		for _, plane := range []bool{false, true} {
			cfg := scale.baseConfig()
			cfg.NumAgents = scale.TimelineAgents
			cfg.PoliceEnabled = true
			cfg.Agent.RatePerMin = f * cfg.GoodCapacityPerMin
			if plane {
				cfg.Overload = &overload.SimPlane{}
			}
			jr := journal.New(1 << 16)
			cfg.Journal = jr
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			var msgs, drops float64
			for _, m := range res.Minutes {
				msgs += m.QueryMsgs
				drops += m.CapacityDrop
			}
			p := OverloadPoint{
				Factor:          f,
				Plane:           plane,
				ControlDelivery: 1,
				TimeToCutSec:    -1,
				Detections:      res.Detections,
			}
			if msgs+drops > 0 {
				p.QueryShedRate = drops / (msgs + drops)
			}
			if sent := res.Overhead.Total(); sent > 0 {
				p.ControlDelivery = 1 - float64(res.ControlLost)/float64(sent)
			}
			for _, e := range jr.Events() {
				switch e.Type {
				case journal.TypeCut:
					if t := e.T - float64(cfg.AttackStartSec); p.TimeToCutSec < 0 || t < p.TimeToCutSec {
						p.TimeToCutSec = t
					}
				case journal.TypeDegraded:
					p.Degraded++
				}
			}
			out = append(out, p)
		}
	}
	return out, nil
}
