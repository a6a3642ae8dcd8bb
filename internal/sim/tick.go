package sim

// The tick: one simulated second as an ordered table of rows, walked by
// one loop that checks each row's precondition and times it.

import (
	"ddpolice/internal/attack"
	"ddpolice/internal/faults"
	"ddpolice/internal/flood"
	"ddpolice/internal/journal"
	"ddpolice/internal/metrics"
	"ddpolice/internal/overlay"
	"ddpolice/internal/overload"
	"ddpolice/internal/police"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/trace"
	"ddpolice/internal/workload"
)

// run is one simulation in progress: what newRun builds, the tick being
// walked, the scratch reused across ticks and the Result accumulating.
// The rows of tickStages are its methods.
type run struct {
	cfg     Config
	cat     *workload.Catalog
	ov      *overlay.Overlay
	qgen    *workload.QueryGen
	fleet   *attack.Fleet
	pol     *police.Police // nil unless PoliceEnabled
	churn   *overlay.Churn // nil unless ChurnEnabled
	eng     *flood.Engine
	budget  *flood.Budget
	coll    *metrics.Collector
	lossSrc *rng.Source
	slices  int // attack slices per tick, at least 2

	// Observation sinks, each nil when off. timers[noTimer] stays nil.
	reg    *telemetry.Registry
	timers [noTimer + 1]*telemetry.Timer
	jr     *journal.Journal
	tcr    *trace.Tracer

	crashCtr, partCutCtr, partHealCtr, brownoutCtr *telemetry.Counter

	// Overload plane mirror (nil unless Config.Overload) and the
	// scheduled partitions.
	queryPerTick float64 // per-peer query budget after the control reserve
	ovp          *overload.SimPlane
	degDet       *overload.Detector
	parts        []partitionState

	t   int     // the tick being walked
	now float64 // its start, in seconds

	online     []overlay.PeerID // online peers, ascending, as of onlineVer
	onlineVer  uint64
	onlineInit bool
	queries    []workload.Query
	keys       []flood.TreeKey
	tracePool  *queryTracePool
	overheadAt uint64 // police overhead already charged to a minute

	res Result
}

// noTimer is the timer index of a row no stage timer covers.
const noTimer = numStages

// stage is one row of the tick: the stage timer it is charged to (a
// Stage constant or noTimer), its precondition (nil: every tick) and its
// work.
type stage struct {
	timer int
	when  func(*run) bool
	body  func(*run)
}

// tickStages is the tick in order: the paper's list exchange, traffic
// monitoring and bad-peer recognition at each minute's close (§3 steps
// 1–3), around the workload and attack floods they police. Query
// generation runs ahead of the attack so the proposal row can declare
// the tick's whole flood workload; it only draws from the query
// generator's own stream and the connectivity-keyed online list, which
// the attack never touches. The good-peer floods run between the two
// attack halves so they compete with attack traffic on fair terms
// instead of always seeing a drained, or an untouched, budget.
var tickStages = [...]stage{
	{noTimer, nil, (*run).refillBudget},
	{noTimer, (*run).faulted, (*run).faultEvents},
	{StageChurn, (*run).churning, (*run).churnTick},
	{noTimer, (*run).onset, (*run).attackOnset},
	{StageQueryGen, nil, (*run).generateQueries},
	{StageProposal, (*run).sharded, (*run).propose},
	{StageAttack, (*run).attacking, (*run).attackFirstHalf},
	{StageFlood, nil, (*run).floodQueries},
	{StageAttack, (*run).attacking, (*run).attackSecondHalf},
	{StagePolice, (*run).policing, (*run).policeTick},
	{noTimer, (*run).minuteEnds, (*run).rollMinute},
	{StagePolice, (*run).evaluating, (*run).evaluate},
	{StageMetrics, (*run).minuteEnds, (*run).closeMinute},
}

// step walks tickStages for second t. It is the only code in the package
// that starts or stops a stage timer (scripts/stagetimers.sh, part of
// `make lint`, holds it to that).
func (r *run) step(t int) {
	r.t, r.now = t, float64(t)
	for i := range tickStages {
		s := &tickStages[i]
		if s.when != nil && !s.when(r) {
			continue
		}
		tm := r.timers[s.timer]
		t0 := tm.Start()
		s.body(r)
		tm.Observe(t0)
	}
}

// Preconditions.

func (r *run) faulted() bool    { return r.cfg.Faults != nil }
func (r *run) churning() bool   { return r.churn != nil }
func (r *run) onset() bool      { return r.t == r.cfg.AttackStartSec && r.fleet.Size() > 0 }
func (r *run) sharded() bool    { return r.cfg.Shards > 1 && r.eng.TraversalCacheEnabled() }
func (r *run) attacking() bool  { return r.t >= r.cfg.AttackStartSec && r.fleet.Size() > 0 }
func (r *run) policing() bool   { return r.pol != nil }
func (r *run) minuteEnds() bool { return (r.t+1)%60 == 0 }
func (r *run) evaluating() bool { return r.pol != nil && r.minuteEnds() }

// Rows.

func (r *run) refillBudget() { r.budget.Refill() }

// faultEvents applies the partitions, heals and capacity brownouts
// scheduled for this tick, at its top, so the whole tick sees them.
func (r *run) faultEvents() {
	for i := range r.parts {
		p := &r.parts[i]
		if r.t == p.ev.StartSec {
			if cut := p.apply(r.ov, r.partCutCtr); cut > 0 {
				r.jr.Record(journal.Event{T: r.now, Type: journal.TypePartition, Value: float64(cut)})
			}
		}
		if r.t == p.ev.EndSec {
			if healed := p.heal(r.ov, r.partHealCtr); healed > 0 {
				r.jr.Record(journal.Event{T: r.now, Type: journal.TypeHeal, Value: float64(healed)})
			}
		}
	}
	for _, oe := range r.cfg.Faults.Overloads {
		if r.t == oe.StartSec {
			r.brownoutCtr.Inc()
			r.brownout(oe, oe.Factor, "start")
		}
		if r.t == oe.EndSec {
			r.brownout(oe, 1, "end")
		}
	}
}

// brownout sets the listed peers' query budgets to scale times the
// post-reserve baseline and marks the event's edge in the journal.
func (r *run) brownout(oe faults.OverloadEvent, scale float64, edge string) {
	for _, p := range oe.Peers {
		r.budget.SetCapacity(overlay.PeerID(p), r.queryPerTick*scale)
	}
	r.jr.Record(journal.Event{
		T: r.now, Type: journal.TypeOverload, Detail: edge,
		Value: oe.Factor, K: len(oe.Peers),
	})
}

// churnTick advances churn and derives the police notifications from its
// flips, which churn reports in ascending order. Crashed peers vanish
// silently: no NotifyLeave, so their buddies keep stale group state
// until timeouts clear it, the degraded view §3.3's timeout-as-zero is
// for.
func (r *run) churnTick() {
	r.churn.Tick(1)
	if r.pol == nil {
		return
	}
	for _, id := range r.churn.Flips() {
		if r.ov.Online(id) {
			r.pol.NotifyJoin(id, r.now)
		} else if r.churn.Crashed(id) {
			r.crashCtr.Inc()
			r.jr.Record(journal.Event{T: r.now, Type: journal.TypeCrash, Peer: int64(id)})
		} else {
			r.pol.NotifyLeave(id, r.now)
		}
	}
}

// attackOnset brings the agents online: they join the overlay when the
// attack begins.
func (r *run) attackOnset() {
	for _, a := range r.fleet.Agents() {
		r.ov.SetOnline(a.ID, true)
		if r.pol != nil {
			r.pol.NotifyJoin(a.ID, r.now)
		}
	}
	for _, a := range r.fleet.Agents() {
		r.jr.Record(journal.Event{T: r.now, Type: journal.TypeAttackStart, Peer: int64(a.ID)})
	}
}

// generateQueries draws this tick's good-peer queries. The online list
// changes only with connectivity, so it is rescanned only when the
// overlay's mutation counter moves.
func (r *run) generateQueries() {
	if !r.onlineInit || r.onlineVer != r.ov.Version() {
		r.onlineInit = true
		r.onlineVer = r.ov.Version()
		r.online = r.ov.AppendOnline(r.online[:0])
	}
	r.queries = r.qgen.Tick(r.online, 1, r.queries[:0])
}

// propose declares every traversal this tick will flood (the attacker
// batches and the good-peer queries just generated) to the engine, which
// builds the missing trees on parallel worker shards in canonical key
// order; the flood rows then replay them through the serial flood calls.
func (r *run) propose() {
	r.keys = r.keys[:0]
	if r.attacking() {
		r.keys = r.fleet.FloodKeys(r.ov, r.keys)
	}
	for _, q := range r.queries {
		r.keys = append(r.keys, flood.TreeKey{Src: q.Issuer, Entry: -1, TTL: int32(r.cfg.TTL)})
	}
	r.eng.PrewarmTrees(r.keys, r.cfg.Shards)
}

func (r *run) attackFirstHalf()  { r.attackSlices(r.slices/2, 2*r.t) }
func (r *run) attackSecondHalf() { r.attackSlices(r.slices-r.slices/2, 2*r.t+1) }

// attackSlices floods half the tick's attack volume in n slices.
func (r *run) attackSlices(n, phase int) {
	br := r.fleet.TickSliced(r.eng, r.ov, r.budget, 0.5, n, phase)
	r.coll.RecordBatch(br)
	r.res.AttackVolume += br.QueryMessages
}

// floodQueries floods the tick's good-peer queries, tracing the sampled
// ones hop by hop.
func (r *run) floodQueries() {
	for qi, q := range r.queries {
		var tc *trace.Trace
		if r.tcr != nil {
			if r.tracePool == nil {
				r.tracePool = newQueryTracePool(r.cfg.NumPeers)
			}
			tc = startQueryTrace(r.tcr, r.eng, r.tracePool, r.cfg.Seed, uint64(r.t), uint64(qi), q, r.now)
		}
		qr := r.eng.FloodQuery(q.Issuer, r.cfg.TTL, r.cat.Holders(q.Object), r.budget, r.cfg.Delay)
		if tc != nil {
			r.eng.SetTraceVisitor(nil)
			endQueryTrace(tc, r.now, qr)
		}
		r.coll.RecordQuery(qr)
	}
}

func (r *run) policeTick() { r.pol.Tick(r.now) }
func (r *run) rollMinute() { r.ov.RollMinute() }
func (r *run) evaluate()   { r.pol.EvaluateMinute(r.now + 1) }

// closeMinute charges the minute's police control traffic, closes the
// minute's statistics, marks the overload plane's shedding and derives
// the control-message loss rate for the next minute.
func (r *run) closeMinute() {
	if r.pol != nil {
		oh := r.pol.Overhead().Total()
		r.coll.AddControl(float64(oh - r.overheadAt))
		r.overheadAt = oh
	}
	r.coll.SetOnline(len(r.online))
	r.coll.CloseMinute()
	ms := r.coll.Minutes()
	last, minute := ms[len(ms)-1], len(ms)-1
	if r.ovp != nil {
		r.markOverload(last, minute)
	}
	if r.pol != nil {
		r.pol.SetControlLoss(r.controlLoss(last), r.lossSrc)
	}
}

// markOverload journals the minute's query-plane shedding and rolls the
// degraded-mode detector, so late cuts are attributable to saturation.
func (r *run) markOverload(last metrics.MinuteStats, minute int) {
	at := r.now + 1
	class := overload.ClassQuery.String()
	if last.CapacityDrop > 0 {
		r.jr.Record(journal.Event{
			T: at, Type: journal.TypeShed, Detail: class,
			Value: last.CapacityDrop, Window: minute,
		})
	}
	if !r.degDet.CloseWindow(last.CapacityDrop, last.QueryMsgs) {
		return
	}
	detail := "exit"
	if r.degDet.Degraded() {
		detail = "enter"
	}
	frac := 0.0
	if total := last.QueryMsgs + last.CapacityDrop; total > 0 {
		frac = last.CapacityDrop / total
	}
	r.jr.Record(journal.Event{
		T: at, Type: journal.TypeDegraded,
		Detail: detail, Value: frac, Window: minute,
	})
}

// controlLoss is the DD-POLICE control-message loss rate for the next
// minute. Control messages ride the same saturated links as the attack,
// so the rate is the minute's drop fraction, capped by ControlLossCap,
// or by the overload plane's much tighter cap when its control reserve
// is on. The scheduled fault floor adds on top: congestion and injected
// loss are independent failure sources.
func (r *run) controlLoss(last metrics.MinuteStats) float64 {
	loss := 0.0
	if total := last.QueryMsgs + last.CapacityDrop; total > 0 {
		loss = last.CapacityDrop / total
	}
	lossCap := r.cfg.ControlLossCap
	if r.ovp != nil {
		lossCap = r.ovp.ControlLossCap
	}
	loss = min(loss, lossCap)
	if r.cfg.Faults != nil {
		loss = min(loss+r.cfg.Faults.ControlLoss, 0.95)
	}
	return loss
}
