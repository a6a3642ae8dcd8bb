// Package sim ties the substrates together into the paper's simulation:
// a BRITE-like topology of peers with KaZaA/Gnutella-calibrated
// workload, churn, overlay DDoS agents, and optionally DD-POLICE. Time
// advances in one-second ticks; per-minute windows drive the
// Out_query/In_query counters and DD-POLICE evaluation, exactly
// mirroring the paper's per-minute definitions.
package sim

import (
	"fmt"
	"reflect"

	"ddpolice/internal/attack"
	"ddpolice/internal/capacity"
	"ddpolice/internal/faults"
	"ddpolice/internal/flood"
	"ddpolice/internal/journal"
	"ddpolice/internal/metrics"
	"ddpolice/internal/overlay"
	"ddpolice/internal/overload"
	"ddpolice/internal/police"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
	"ddpolice/internal/trace"
	"ddpolice/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Seed uint64

	// Topology.
	NumPeers  int // paper: 2,000
	TopologyM int // BA attachment parameter; 3 gives avg degree ~6

	// Workload.
	Catalog       workload.CatalogConfig
	QueriesPerMin float64 // per online peer; paper: 0.3
	TTL           int     // flood TTL; 7

	// Peer capability: the effective per-peer query forwarding/
	// processing rate (queries/min) that overload exhausts. See
	// capacity.EffectiveForwardPerMin for the calibration rationale.
	GoodCapacityPerMin float64

	// Churn.
	ChurnEnabled bool
	Churn        overlay.ChurnConfig

	// Attack.
	NumAgents      int
	Agent          attack.AgentConfig
	Links          attack.LinkModel
	AttackStartSec int // agents stay quiet before this
	// AttackSlices interleaves each tick's attack volume to model fair
	// capacity sharing among competing floods (see attack.TickSliced).
	AttackSlices int

	// Defense. PoliceEnabled=false leaves the system undefended.
	PoliceEnabled bool
	Police        police.Config
	// AgentsLieAboutLists makes agents advertise fabricated neighbor
	// lists (§3.1's lying scenario; countered by Police.VerifyLists).
	AgentsLieAboutLists bool

	// ControlLossCap bounds the congestion-driven loss probability of
	// DD-POLICE control messages (lists, reports); it lies in [0, 1],
	// and 0 disables loss.
	ControlLossCap float64

	// Overload, when non-nil, enables the simulator mirror of the
	// overload-resilience plane (internal/overload.SimPlane): a
	// control-plane capacity reserve is carved out of every peer's
	// query budget (queries shed more under flood), the
	// congestion-derived control-message loss is capped at the plane's
	// much tighter ControlLossCap (the reserve protects the control
	// plane from congestion — injected fault loss still adds on top),
	// and per-minute shed/degraded markers are journaled. Zero fields
	// take their defaults. Nil keeps the historical behaviour exactly:
	// identical-seed runs produce byte-identical Results and journals.
	Overload *overload.SimPlane

	// Faults, when non-nil, injects scheduled failures: an
	// unconditional control-message loss floor (added to the
	// congestion-derived loss each minute) and timed partition/heal
	// events that sever all edges between the listed peers and the rest
	// of the overlay. Crash-vs-graceful departures are configured on
	// Churn.CrashFraction: a crashed peer skips the leave-side protocol
	// notifications, so its buddies hold stale state until their own
	// timeouts clear it. Nil costs a pointer check per tick.
	Faults *faults.Schedule

	// IdealCounters switches the monitoring counters to the paper's
	// idealized forward-everything plane (flood.CounterIdeal) — an
	// ablation; see DESIGN.md "Calibration".
	IdealCounters bool

	// DisableFloodCache turns off the flood engine's topology-versioned
	// traversal cache and runs every flood as a full BFS. Results are
	// byte-identical either way: TestCachedRunByteIdentical holds the
	// uncached run to the golden digests the cached run is pinned to,
	// and the switch exists for that check.
	DisableFloodCache bool

	// Shards > 1 enables the deterministic sharded tick engine: each
	// tick first runs a parallel *proposal* phase in which that many
	// worker shards build the structural traversal trees of every flood
	// the tick has declared (good-peer queries and attacker batches)
	// against the immutable connectivity snapshot, then a serial
	// *commit* phase floods them in the ordinary order, replaying the
	// prewarmed trees. Results are byte-identical to the serial engine
	// for every value except Result.Cache's effectiveness counters
	// (asserted across scenarios by the parallel-vs-serial suite in
	// cache_equality_test.go). 0 or 1 keeps the serial tick; the engine
	// also falls back to serial when DisableFloodCache is set, since
	// proposals ride the traversal cache. See DESIGN.md §13.
	Shards int

	// FairShareDrop enables the related-work baseline defense ([21],
	// Daswani & Garcia-Molina): peers split their processing capacity
	// evenly across incoming connections instead of serving
	// first-come-first-served. Composable with PoliceEnabled.
	FairShareDrop bool

	// Timing.
	DurationSec int
	Delay       flood.DelayModel

	// Telemetry enables the run observability layer: one registry timer
	// per tick stage ("sim.stage.<name>", read back as Result.Stages)
	// and the flood engine's event counters (Result.Telemetry). Off by
	// default; when off the timing sites are nil checks that never read
	// the clock.
	Telemetry bool

	// Registry, when non-nil, receives the run's instruments instead of
	// a private registry, so a live /metrics endpoint (ddsim -metrics)
	// can snapshot mid-run. Implies instrument recording regardless of
	// Telemetry (which additionally controls the stage timers).
	Registry *telemetry.Registry

	// Journal, when non-nil, receives the detection-lifecycle event
	// stream (warning_crossed, nt_request/report/timeout, indicator,
	// cut), overload transitions (shed, degraded, and a brownout's
	// overload edges) and attack-onset and fault-plane events, stamped
	// with the run's logical clock. The tick loop and protocol sweep are
	// fully deterministic, so identical-seed runs journal identical
	// bytes.
	// Nil disables journaling at a pointer check per site.
	Journal *journal.Journal

	// Trace, when non-nil, receives causal span traces (see
	// internal/trace): one trace per sampled good-peer query (issue →
	// per-hop flood traversal → delivery or death). Detections and
	// overload transitions are Journal records, not spans. Trace IDs
	// derive from Seed via pure sub-seed hashing, so identical-seed
	// runs emit byte-identical span streams, cached or uncached, at
	// any shard count. Tracing is passive: a non-nil tracer leaves
	// Results and the journal byte-identical to a nil one. Nil costs a
	// pointer check per site.
	Trace *trace.Tracer
}

// DefaultSimTTL is the flood TTL used by the scaled-down experiments.
// Real Gnutella uses TTL 7, but a TTL-7 flood on a 2,000-peer overlay
// with average degree 6 blankets the entire network, which removes the
// spatial confinement that real floods have on Gnutella-scale systems
// (where a flood ball covers a minority of peers). TTL 3 restores a
// partial-coverage regime (~1/3 of a full 2,000-peer overlay, less
// under churn), which is what produces the paper's gradual
// traffic/success curves as the agent count grows; the live nodes
// (internal/gnet) keep the protocol TTL of 7.
const DefaultSimTTL = 3

func defaultSimCatalog() workload.CatalogConfig {
	cfg := workload.DefaultCatalogConfig()
	// With partial flood coverage, 40 replicas give the healthy ~90%
	// baseline success rate the paper's no-attack runs show.
	cfg.MeanReplicas = 40
	return cfg
}

func defaultSimAgent() attack.AgentConfig {
	cfg := attack.DefaultAgentConfig()
	cfg.TTL = DefaultSimTTL // bogus queries obey the same overlay TTL
	return cfg
}

// DefaultConfig returns the paper's §3.5 environment scaled to run on a
// laptop: 2,000 peers, average degree 6, 0.3 queries/min/peer,
// 10-minute mean lifetimes, agents at 20k queries/min. See DESIGN.md
// ("Calibration") for how TTL and per-peer capacity were chosen.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		NumPeers:           2000,
		TopologyM:          3,
		Catalog:            defaultSimCatalog(),
		QueriesPerMin:      0.3,
		TTL:                DefaultSimTTL,
		GoodCapacityPerMin: capacity.EffectiveForwardPerMin,
		ChurnEnabled:       true,
		Churn:              overlay.DefaultChurnConfig(),
		NumAgents:          0,
		Agent:              defaultSimAgent(),
		Links:              attack.DefaultLinkModel(),
		AttackStartSec:     300,
		AttackSlices:       4,
		PoliceEnabled:      false,
		Police:             police.DefaultConfig(),
		ControlLossCap:     0.5,
		DurationSec:        1800,
		Delay:              flood.DefaultDelayModel(),
	}
}

// Validate reports configuration errors. The float comparisons are
// written so that NaN fails them too.
func (c Config) Validate() error {
	if c.NumPeers < 10 {
		return fmt.Errorf("sim: NumPeers = %d", c.NumPeers)
	}
	if c.TopologyM < 1 {
		return fmt.Errorf("sim: TopologyM = %d", c.TopologyM)
	}
	if !(c.QueriesPerMin >= 0) {
		return fmt.Errorf("sim: QueriesPerMin = %v", c.QueriesPerMin)
	}
	if c.TTL < 1 {
		return fmt.Errorf("sim: TTL = %d", c.TTL)
	}
	if c.TTL > flood.MaxTTL {
		return fmt.Errorf("sim: TTL = %d (want at most %d, what the wire header's one byte carries)", c.TTL, flood.MaxTTL)
	}
	if !(c.GoodCapacityPerMin > 0) {
		return fmt.Errorf("sim: GoodCapacityPerMin = %v", c.GoodCapacityPerMin)
	}
	if c.NumAgents < 0 || c.NumAgents >= c.NumPeers {
		return fmt.Errorf("sim: NumAgents = %d of %d peers", c.NumAgents, c.NumPeers)
	}
	if c.DurationSec < 60 {
		return fmt.Errorf("sim: DurationSec = %d (need at least one minute)", c.DurationSec)
	}
	if c.AttackStartSec < 0 {
		return fmt.Errorf("sim: AttackStartSec = %d", c.AttackStartSec)
	}
	if c.Shards < 0 || c.Shards > 256 {
		return fmt.Errorf("sim: Shards = %d (want 0..256)", c.Shards)
	}
	if !(c.ControlLossCap >= 0 && c.ControlLossCap <= 1) {
		return fmt.Errorf("sim: ControlLossCap = %v (want [0, 1])", c.ControlLossCap)
	}
	if c.PoliceEnabled {
		if err := c.Police.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if !(c.Faults.ControlLoss >= 0 && c.Faults.ControlLoss < 1) {
			return fmt.Errorf("sim: Faults.ControlLoss = %v", c.Faults.ControlLoss)
		}
		for i, pe := range c.Faults.Partitions {
			if pe.StartSec < 0 || pe.EndSec <= pe.StartSec {
				return fmt.Errorf("sim: Faults.Partitions[%d] spans [%d,%d)", i, pe.StartSec, pe.EndSec)
			}
			if len(pe.Peers) == 0 {
				return fmt.Errorf("sim: Faults.Partitions[%d] has no peers", i)
			}
			if err := c.checkFaultPeers("Partitions", i, pe.Peers); err != nil {
				return err
			}
		}
		for i, oe := range c.Faults.Overloads {
			if oe.StartSec < 0 || oe.EndSec <= oe.StartSec {
				return fmt.Errorf("sim: Faults.Overloads[%d] spans [%d,%d)", i, oe.StartSec, oe.EndSec)
			}
			if len(oe.Peers) == 0 {
				return fmt.Errorf("sim: Faults.Overloads[%d] has no peers", i)
			}
			if err := c.checkFaultPeers("Overloads", i, oe.Peers); err != nil {
				return err
			}
			if !(oe.Factor >= 0 && oe.Factor < 1) {
				return fmt.Errorf("sim: Faults.Overloads[%d].Factor = %v (want [0, 1))", i, oe.Factor)
			}
		}
	}
	if c.Overload != nil {
		if err := c.Overload.WithDefaults().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// checkFaultPeers rejects a scheduled fault event naming a peer id
// outside the overlay: the tick loop indexes per-peer arrays with these
// ids unchecked.
func (c Config) checkFaultPeers(list string, event int, peers []int) error {
	for _, p := range peers {
		if p < 0 || p >= c.NumPeers {
			return fmt.Errorf("sim: Faults.%s[%d] names peer %d, outside [0, %d)", list, event, p, c.NumPeers)
		}
	}
	return nil
}

// Result aggregates a finished run.
type Result struct {
	Minutes          []metrics.MinuteStats
	SuccessSeries    []float64 // S(t) per minute
	OverallSuccess   float64
	MeanTraffic      float64 // messages per minute
	MeanResponseTime float64 // seconds
	ResponseP50      float64 // median response time, seconds
	ResponseP95      float64 // 95th-percentile response time, seconds
	MeanHitHops      float64
	QueriesIssued    uint64

	// Defense outcomes (zero-valued when PoliceEnabled is false).
	Detections     int
	FalseNegatives int // good peers wrongly disconnected (paper naming)
	FalsePositives int // agents never identified (paper naming)
	Overhead       police.Overhead
	CutEdges       int
	// ControlLost counts DD-POLICE control messages dropped by the loss
	// model; 1 - ControlLost/Overhead.Total() is the control-plane
	// delivery rate.
	ControlLost uint64

	// Attack-side accounting.
	AgentIDs     []overlay.PeerID
	AttackVolume float64 // bogus query messages put on the wire

	// Stages (nil unless Config.Telemetry) reads the run's stage timers
	// back in StageNames order, named as in StageNames. Telemetry (nil
	// unless Config.Telemetry or Config.Registry) is the registry's
	// snapshot at run end: those timers plus the flood engine's event
	// counters.
	Stages    []telemetry.TimerValue
	Telemetry *telemetry.Snapshot

	// Cache reports the flood engine's traversal-cache effectiveness
	// counters (always populated; zero when DisableFloodCache). The
	// counters depend on execution strategy — cached vs uncached,
	// sharded vs serial — while every other Result field does not, so
	// the byte-identity suites zero this field before comparing runs.
	Cache flood.CacheStats
}

// Tick stages timed when Config.Telemetry is set, in StageNames order.
const (
	StageChurn    = iota // churn + police join/leave notifications
	StageAttack          // agent batch floods (both half-tick slices)
	StageQueryGen        // online scan + good-peer query generation
	StageFlood           // good-peer query flood propagation
	StagePolice          // DD-POLICE Tick and minute evaluation
	StageMetrics         // minute close: collection, shed markers, loss derivation
	StageProposal        // sharded mode: parallel traversal-tree prewarm
	numStages
)

// StageNames labels the tick stages, indexed by the Stage constants.
var StageNames = []string{"churn", "attack", "querygen", "flood", "police", "metrics", "proposal"}

// World is the environment a run starts in: the topology and the catalog
// placed on it, which four Config fields decide. Both are immutable once
// built — the overlay keeps all edge and peer state beside the graph, the
// query generator draws objects from its own workload.Sampler — so
// concurrent runs may share one World, and no method writes to it.
type World struct {
	key   worldKey
	graph *topology.Graph
	cat   *workload.Catalog
}

// worldKey is those four, under their Config names.
type worldKey struct {
	Seed                uint64
	NumPeers, TopologyM int
	Catalog             workload.CatalogConfig
}

func (c Config) world() worldKey { return worldKey{c.Seed, c.NumPeers, c.TopologyM, c.Catalog} }

// NewWorld builds the world of cfg.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	g, err := topology.BarabasiAlbert(root.Split(), cfg.NumPeers, cfg.TopologyM)
	if err != nil {
		return nil, err
	}
	cat, err := workload.NewCatalog(cfg.Catalog, cfg.NumPeers, root.Split())
	if err != nil {
		return nil, err
	}
	return &World{cfg.world(), g, cat}, nil
}

// Run executes one simulation and returns its result.
func Run(cfg Config) (*Result, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return w.Run(cfg)
}

// Run executes cfg in w exactly as Run(cfg) would. A cfg that describes
// another world is an error naming the field that differs. A run is
// set-up (newRun), then tickStages walked once per simulated second,
// then result assembly.
func (w *World) Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	got, built := reflect.ValueOf(cfg.world()), reflect.ValueOf(w.key)
	for i := 0; i < got.NumField(); i++ {
		if a, b := got.Field(i).Interface(), built.Field(i).Interface(); a != b {
			return nil, fmt.Errorf("sim: World.Run: Config.%s = %v, but the world was built with %v", got.Type().Field(i).Name, a, b)
		}
	}
	r, err := newRun(w, cfg)
	if err != nil {
		return nil, err
	}
	for t := 0; t < cfg.DurationSec; t++ {
		r.step(t)
	}
	return r.result(), nil
}

// newRun builds everything the first tick needs: overlay, workload,
// fleet, defense, churn, flood engine, budget and observation sinks,
// and DD-POLICE's initial exchange. The random streams split off the
// seed in the order they always have.
func newRun(w *World, cfg Config) (*run, error) {
	root := rng.New(cfg.Seed)
	root.Split() // the topology's stream and the catalog's, spent building w:
	root.Split() // every later stream stays where Run has always had it
	r := &run{cfg: cfg, cat: w.cat, ov: overlay.New(w.graph), slices: max(cfg.AttackSlices, 2)}
	var err error
	if r.qgen, err = workload.NewQueryGen(w.cat, cfg.QueriesPerMin, root.Split()); err != nil {
		return nil, err
	}
	if r.fleet, err = attack.NewFleet(cfg.NumAgents, cfg.NumPeers, cfg.Agent, cfg.Links, root.Split()); err != nil {
		return nil, err
	}
	if cfg.PoliceEnabled {
		if r.pol, err = police.New(r.ov, cfg.Police); err != nil {
			return nil, err
		}
		for _, a := range r.fleet.Agents() {
			r.pol.SetBad(a.ID, cfg.Agent.Cheat)
			if cfg.AgentsLieAboutLists {
				r.pol.SetListLiar(a.ID)
			}
		}
	}
	if cfg.ChurnEnabled {
		r.churn = overlay.NewChurn(r.ov, cfg.Churn, root.Split())
		// Agents are dedicated machines: they do not churn.
		for _, a := range r.fleet.Agents() {
			r.churn.Pin(a.ID)
		}
	}
	// Agents "walk in" when the attack begins (§2.1): they are offline
	// until AttackStartSec and join the overlay then.
	for _, a := range r.fleet.Agents() {
		r.ov.SetOnline(a.ID, false)
	}
	r.eng = flood.NewEngine(r.ov)
	if cfg.IdealCounters {
		r.eng.SetCounterMode(flood.CounterIdeal)
	}
	if cfg.DisableFloodCache {
		r.eng.SetTraversalCache(false)
	}
	r.observe()
	r.budget = flood.NewBudget(cfg.NumPeers, cfg.GoodCapacityPerMin/60)
	if cfg.FairShareDrop {
		r.budget.EnableFairShare(r.ov)
	}
	r.armOverload()
	r.coll = metrics.NewCollector()
	r.lossSrc = root.Split()
	r.parts = newPartitions(cfg)
	if r.pol != nil {
		// Initial neighbor-list exchange: the network is already
		// running at t=0, so every peer has performed at least one
		// exchange (its join-time exchange).
		for v := 0; v < cfg.NumPeers; v++ {
			if r.ov.Online(overlay.PeerID(v)) {
				r.pol.NotifyJoin(overlay.PeerID(v), 0)
			}
		}
		// The injected loss floor applies from the first minute; the
		// congestion-derived term joins it at each minute close.
		if cfg.Faults != nil && cfg.Faults.ControlLoss > 0 {
			r.pol.SetControlLoss(cfg.Faults.ControlLoss, r.lossSrc)
		}
	}
	return r, nil
}

// observe attaches the run's observation sinks. Each is nil when off,
// which makes every timer, counter, journal and trace site a nil check.
// A supplied registry turns instrument recording on even when the stage
// timers are off.
func (r *run) observe() {
	cfg := &r.cfg
	r.reg = cfg.Registry
	if cfg.Telemetry {
		if r.reg == nil {
			r.reg = telemetry.New()
		}
		for i, name := range StageNames {
			r.timers[i] = r.reg.Timer("sim.stage." + name)
		}
	}
	if r.reg != nil {
		r.eng.AttachTelemetry(r.reg)
	}
	r.crashCtr = r.reg.Counter("sim.crash_departures")
	r.partCutCtr = r.reg.Counter("sim.partition_cut_edges")
	r.partHealCtr = r.reg.Counter("sim.partition_healed_edges")
	r.brownoutCtr = r.reg.Counter("sim.overload_brownouts")
	r.jr = cfg.Journal
	if r.pol != nil {
		r.pol.SetJournal(r.jr)
	}
	r.tcr = cfg.Trace
}

// armOverload sets up the overload plane mirror: the control reserve
// carved out of every peer's query budget, and the degraded-mode
// detector. queryPerTick, the post-reserve baseline, is also what
// brownout events scale and restore.
func (r *run) armOverload() {
	r.queryPerTick = r.cfg.GoodCapacityPerMin / 60
	if r.cfg.Overload == nil {
		return
	}
	p := r.cfg.Overload.WithDefaults()
	r.ovp = &p
	r.budget.ReserveControl(p.ControlReserveFrac)
	r.queryPerTick *= 1 - p.ControlReserveFrac
	r.degDet = overload.NewDetector(overload.Config{
		DegradedShedFrac: p.DegradedLossThreshold,
	}.WithDefaults())
}

// result assembles the Result of the finished run: a copy, so that a
// caller holding it does not keep the run's overlay and engine alive.
func (r *run) result() *Result {
	res, coll := r.res, r.coll
	res.Minutes = coll.Minutes()
	res.SuccessSeries = coll.SuccessSeries()
	res.OverallSuccess = coll.OverallSuccessRate()
	res.MeanTraffic = coll.MeanTrafficPerMinute()
	res.MeanResponseTime = coll.MeanResponseTime()
	res.ResponseP50 = coll.ResponseTimeQuantile(0.5)
	res.ResponseP95 = coll.ResponseTimeQuantile(0.95)
	res.MeanHitHops = coll.MeanHitHops()
	res.QueriesIssued = r.qgen.Issued()
	res.AgentIDs = r.fleet.IDs()
	res.CutEdges = r.ov.CutCount()
	// Partitions that never healed (EndSec past the horizon) still hold
	// edges cut; those are injected faults, not DD-POLICE decisions, so
	// they don't count as defense cuts.
	for i := range r.parts {
		p := &r.parts[i]
		if !p.applied || p.healed {
			continue
		}
		for _, e := range p.cutEdges {
			if r.ov.IsCut(e[0], e[1]) {
				res.CutEdges--
			}
		}
	}
	if r.pol != nil {
		res.Detections = len(r.pol.Detections())
		res.FalseNegatives = r.pol.FalseNegatives()
		res.FalsePositives = r.pol.FalsePositives(res.AgentIDs)
		res.Overhead = r.pol.Overhead()
		res.ControlLost = r.pol.ControlLost()
	}
	res.Cache = r.eng.CacheStats()
	if r.cfg.Telemetry {
		res.Stages = make([]telemetry.TimerValue, numStages)
		for i, name := range StageNames {
			tm := r.timers[i]
			res.Stages[i] = telemetry.TimerValue{Name: name, Total: tm.Total(), Count: tm.Count()}
		}
	}
	if r.reg != nil {
		snap := r.reg.Snapshot()
		res.Telemetry = &snap
	}
	return &res
}

// partitionState tracks one scheduled faults.PartitionEvent through a
// run. The partition severs every boundary edge (member <-> non-member)
// that is intact when it starts, and the heal restores exactly those
// edges — never ones DD-POLICE cut in the meantime, and never
// member-internal edges, which a network partition leaves working.
type partitionState struct {
	ev       faults.PartitionEvent
	members  []bool // dense membership, indexed by PeerID
	cutEdges [][2]overlay.PeerID
	applied  bool
	healed   bool
}

// newPartitions is one tracker per scheduled partition event: each
// records exactly which edges its partition severed, so healing restores
// only those (DD-POLICE cuts made meanwhile must stay cut).
func newPartitions(cfg Config) []partitionState {
	if cfg.Faults == nil {
		return nil
	}
	parts := make([]partitionState, len(cfg.Faults.Partitions))
	for i, pe := range cfg.Faults.Partitions {
		parts[i].ev = pe
		parts[i].members = make([]bool, cfg.NumPeers)
		for _, p := range pe.Peers {
			parts[i].members[p] = true
		}
	}
	return parts
}

func (p *partitionState) apply(ov *overlay.Overlay, ctr *telemetry.Counter) int {
	if p.applied {
		return 0
	}
	p.applied = true
	// Iterate the event's peer slice in its given order: cutEdges order
	// feeds deterministic outputs (the event journal must be
	// byte-identical across identical-seed runs).
	cut := 0
	for _, pid := range p.ev.Peers {
		m := overlay.PeerID(pid)
		for _, w := range ov.Graph().Neighbors(m) {
			if p.members[w] {
				continue
			}
			if ov.IsCut(m, w) {
				continue // already severed by the defense; not ours
			}
			if err := ov.Cut(m, w); err == nil {
				p.cutEdges = append(p.cutEdges, [2]overlay.PeerID{m, w})
				ctr.Inc()
				cut++
			}
		}
	}
	return cut
}

func (p *partitionState) heal(ov *overlay.Overlay, ctr *telemetry.Counter) int {
	if !p.applied || p.healed {
		return 0
	}
	p.healed = true
	healed := 0
	for _, e := range p.cutEdges {
		if ov.IsCut(e[0], e[1]) {
			ov.Uncut(e[0], e[1])
			ctr.Inc()
			healed++
		}
	}
	return healed
}
