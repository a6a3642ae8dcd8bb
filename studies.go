package ddpolice

// Extension studies beyond the paper's figures: DD-POLICE-r (§3.5
// promises r > 1), the §3.1 lying-peer countermeasure, and ablations of
// the modeling decisions DESIGN.md calls out.

import (
	"fmt"
	"sort"
	"strings"

	"ddpolice/internal/attack"
	"ddpolice/internal/capacity"
	"ddpolice/internal/chord"
	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
	"ddpolice/internal/rng"
)

// radiusPlan contrasts DD-POLICE-1 with DD-POLICE-2 under heavy churn:
// r=2 relays neighbor lists one hop further, so buddy-group views
// survive a missed exchange at the cost of more control traffic (the
// §3.5 motivation for r > 1).
func radiusPlan(s Scale) []Row {
	base := s.baseConfig()
	heavyChurn(&base) // where the radius matters
	return s.plan(base, true, noAttack,
		variant{"r=1", func(c *Config) { c.Police.Radius = 1 }},
		variant{"r=2", func(c *Config) { c.Police.Radius = 2 }})
}

// heavyChurn is five-minute sessions: the regime where stale buddy-group
// views, not the attack, limit DD-POLICE.
func heavyChurn(c *Config) {
	c.Churn.MeanLifetime = 300
	c.Churn.StddevLifetime = 70
	c.Churn.MeanOffline = 300
}

// liarPlan evaluates the §3.1 countermeasure: agents fabricate
// neighbor-list entries; with VerifyLists enabled, receivers confirm
// each claim with the named peer and disconnect inconsistent liars.
func liarPlan(s Scale) []Row {
	return s.plan(s.baseConfig(), true,
		variant{label: "honest lists"},
		variant{"lying agents, no verification", func(c *Config) { c.AgentsLieAboutLists = true }},
		variant{"lying agents + verification", func(c *Config) { c.AgentsLieAboutLists = true; c.Police.VerifyLists = true }})
}

// baselinePlan contrasts DD-POLICE with the related-work baseline the
// paper singles out (§4, reference [21]): application-layer load
// balancing that gives every connection a fair share of a peer's
// capacity. The paper argues the survival approach "could be less
// effective when the number of DDoS agents is getting large" because it
// never removes the attackers; DD-POLICE does.
func baselinePlan(s Scale) []Row {
	return s.plan(s.baseConfig(), false,
		variant{label: "no defense"},
		variant{"fair-share drop [21]", func(c *Config) { c.FairShareDrop = true }},
		variant{"DD-POLICE", func(c *Config) { c.PoliceEnabled = true }},
		variant{"DD-POLICE + fair-share", func(c *Config) { c.PoliceEnabled = true; c.FairShareDrop = true }})
}

// ablationPlan re-runs the 10-agent scenario, without and with
// DD-POLICE, with each calibrated modeling decision toggled,
// quantifying how load-bearing it is:
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
func ablationPlan(s Scale) []Row {
	var vs []variant
	for _, v := range []variant{
		{"default", func(*Config) {}},
		{"ideal counters", func(c *Config) { c.IdealCounters = true }},
		{"paper capacity 10k", func(c *Config) { c.GoodCapacityPerMin = 10000 }},
		{"ttl 7", func(c *Config) { c.TTL = 7; c.Agent.TTL = 7 }},
		{"broadcast agents", func(c *Config) { c.Agent.Mode = attack.ModeBroadcast }},
		{"no churn", func(c *Config) { c.ChurnEnabled = false }},
	} {
		vs = append(vs, variant{v.label + ", undefended", v.mutate},
			variant{v.label, func(c *Config) { v.mutate(c); c.PoliceEnabled = true }})
	}
	return s.plan(s.baseConfig(), false, vs...)
}

// ablationRows keeps each variant's defended run, compared with the
// undefended run the plan put just before it.
func ablationRows(_ Scale, rows []Row) (any, error) {
	out := make([]Row, 0, len(rows)/2)
	for i := 1; i < len(rows); i += 2 {
		rows[i].Against = rows[i-1].Result
		out = append(out, rows[i])
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
	return figureData[[]StructuredPoint]("structured", scale)
}

// perAgentCount declares one run per agent count of the scale's sweep.
func perAgentCount(s Scale, defended bool) []Row {
	vs := make([]variant, len(s.AgentCounts))
	for i, n := range s.AgentCounts {
		vs[i] = withAgents(n, defended)
	}
	return s.plan(s.baseConfig(), defended, vs...)
}

// structuredPoints pairs each undefended flooding run with a Chord run
// at matching size, capacity, rates and duration.
func structuredPoints(s Scale, rows []Row) (any, error) {
	out := make([]StructuredPoint, 0, len(rows))
	for _, r := range rows {
		p := StructuredPoint{Agents: r.Config.NumAgents, UnstructuredSuccess: r.Result.OverallSuccess}
		if err := runChord(s, &p); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// runChord fills in p's structured half: p.Agents agents against a ring
// of the scale's size.
func runChord(scale Scale, p *StructuredPoint) error {
	src := rng.New(scale.Seed)
	ring, err := chord.New(scale.NumPeers, capacity.EffectiveForwardPerMin, src.Split())
	if err != nil {
		return err
	}
	agentIDs := src.Perm(scale.NumPeers)[:p.Agents]
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
	p.StructuredMeanHops = ring.Stats().MeanHops
	if issued > 0 {
		p.StructuredSuccess = float64(ok) / float64(issued)
	}
	return nil
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

// journaled attaches an event journal to every run of a plan; the
// figure's Observe reads it back as each run ends.
func journaled(rows []Row) []Row {
	for i := range rows {
		rows[i].Config.Journal = journal.New(1 << 16)
	}
	return rows
}

// detectPlan is one seeded attack scenario with the event journal
// attached — a single simulation, not a seed average, because the
// journal narrates one run; scale.Seed picks which.
func detectPlan(s Scale) []Row {
	return journaled(s.plan(s.baseConfig(), true, variant{label: "journaled attack"}))
}

// detectReport reconstructs the detection pipeline's behaviour from the
// run's journal: per-suspect timelines, the detection-latency CDF, and
// the Neighbor_Traffic overhead amortized per cut.
func detectReport(r Row) any {
	jr := r.Config.Journal
	events := jr.Events()
	cuts := 0
	for _, e := range events {
		if e.Type == journal.TypeCut {
			cuts++
		}
	}
	rep := &DetectReport{
		Points:     DetectTimelines(events),
		NTMessages: r.Result.Overhead.NeighborTrafficMsgs,
		Cuts:       cuts,
		Events:     jr.Len(),
		Dropped:    jr.Dropped(),
	}
	rep.CDF = detectCDF(rep.Points)
	if cuts > 0 {
		rep.NTPerCut = float64(rep.NTMessages) / float64(cuts)
	}
	return rep
}

// faultsPlan sweeps injected control loss against churn regimes. The
// paper's §3.3 claim is that treating missing Neighbor_Traffic reports
// as zeros keeps judgments safe when control messages are lost; this
// study quantifies how far that holds as the fault plane degrades the
// control channel and crash churn leaves stale buddy-group state
// behind (a crashed peer never sends the leave-side notifications).
// A run's label is "<churn regime>/<loss>".
func faultsPlan(s Scale, losses ...float64) []Row {
	var vs []variant
	for _, ch := range []variant{
		{"none", func(c *Config) { c.ChurnEnabled = false }},
		{"paper", func(c *Config) { c.ChurnEnabled = true }},
		{"crash-heavy", func(c *Config) {
			c.ChurnEnabled = true
			heavyChurn(c)
			c.Churn.CrashFraction = 0.5
		}},
	} {
		for _, loss := range losses {
			vs = append(vs, variant{fmt.Sprintf("%s/%g", ch.label, loss), func(c *Config) {
				ch.mutate(c)
				c.Faults = &faults.Schedule{ControlLoss: loss} // at loss 0 the same run as no schedule
			}})
		}
	}
	return s.plan(s.baseConfig(), true, vs...)
}

// churnRegime is the churn half of a faults-study row's label.
func churnRegime(r Row) string {
	regime, _, _ := strings.Cut(r.Label, "/")
	return regime
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
}

// overloadPlan sweeps the attack's offered-over-capacity factor with
// the overload-resilience plane off and on. The PR 7 claim it
// substantiates: as agents push 1x..10x a peer's processing capacity,
// the class-aware control reserve keeps DD-POLICE delivery >= 95% and
// time-to-cut bounded (degrading gracefully with load), while the
// unprotected control plane rides the same saturated links as the
// flood and loses up to ControlLossCap of its messages.
func overloadPlan(s Scale, factors ...float64) []Row {
	var vs []variant
	for _, f := range factors {
		vs = append(vs,
			variant{fmt.Sprintf("%gx, plane off", f), func(c *Config) { c.Agent.RatePerMin = f * c.GoodCapacityPerMin }},
			variant{fmt.Sprintf("%gx, plane on", f), func(c *Config) {
				c.Agent.RatePerMin = f * c.GoodCapacityPerMin
				c.Overload = &overload.SimPlane{}
			}})
	}
	return journaled(s.plan(s.baseConfig(), true, vs...))
}

// overloadPoint condenses one run and its journal into a sweep cell.
func overloadPoint(r Row) any {
	cfg, res := r.Config, r.Result
	var msgs, drops float64
	for _, m := range res.Minutes {
		msgs += m.QueryMsgs
		drops += m.CapacityDrop
	}
	p := OverloadPoint{
		Factor:          cfg.Agent.RatePerMin / cfg.GoodCapacityPerMin, // the plan's multiple, read back
		Plane:           cfg.Overload != nil,
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
	for _, e := range cfg.Journal.Events() {
		if t := e.T - float64(cfg.AttackStartSec); e.Type == journal.TypeCut && (p.TimeToCutSec < 0 || t < p.TimeToCutSec) {
			p.TimeToCutSec = t
		}
	}
	return p
}

// FanoutPoint is one row of the flood fan-out study (-fig fanout): the
// peers that process a good query at each hop (§2.3, Fig 2), from the
// flood engine's per-depth counters, so over every good query of a run.
type FanoutPoint struct {
	Agents  int
	Queries uint64    // good queries issued
	Depth   []float64 // mean processed peers per query at hop 1..TTL
	Total   float64   // mean processed peers per query over every hop
}

// fanoutPlan is one policed run per agent count with the flood engine's
// counters in Result.Telemetry.
func fanoutPlan(s Scale) []Row {
	rows := perAgentCount(s, true)
	for i := range rows {
		rows[i].Config.Telemetry = true
	}
	return rows
}

// fanoutPoint reads one run's flood.processed_depth_<d> counters back as
// means over its good queries.
func fanoutPoint(r Row) any {
	p := FanoutPoint{Agents: r.Config.NumAgents, Queries: r.Result.QueriesIssued, Depth: make([]float64, r.Config.TTL)}
	q, total := float64(p.Queries), uint64(0)
	for _, c := range r.Result.Telemetry.Counters {
		var d int
		if _, err := fmt.Sscanf(c.Name, "flood.processed_depth_%d", &d); err == nil && d <= len(p.Depth) {
			p.Depth[d-1] = float64(c.Value) / q
			total += c.Value
		}
	}
	p.Total = float64(total) / q
	return p
}

// observed is the row builder of a figure whose Observe yields one T
// per run.
func observed[T any](_ Scale, rows []Row) (any, error) {
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = r.Observed.(T)
	}
	return out, nil
}
