// Package police implements DD-POLICE, the paper's defense: peers
// police their neighbors' query behaviour by cooperating with each
// suspect's Buddy Group (its other direct neighbors), exchanging
// Neighbor_Traffic query-volume reports, computing the General and
// Single indicators of Definitions 2.1-2.3, and disconnecting peers
// whose indicator exceeds the cut threshold CT.
//
// The three protocol steps of §3:
//
//  1. Neighbor list exchanging — periodic (every ExchangePeriod, the
//     paper settles on 2 minutes) or event-driven; received lists form
//     each peer's view of its neighbors' Buddy Groups.
//  2. Neighbor query traffic monitoring — per-minute Out_query/In_query
//     counters per logical neighbor (held by internal/overlay).
//  3. Bad peer recognition — when In_query(j) exceeds the warning
//     threshold (500/min), the observer collects Neighbor_Traffic
//     reports from BG1-j, computes g(j,t) and s(j,t,i), and cuts the
//     connection when either exceeds CT.
package police

import (
	"fmt"

	"ddpolice/internal/journal"
	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
)

// PeerID aliases the overlay peer identifier.
type PeerID = overlay.PeerID

// Config holds the DD-POLICE protocol parameters.
type Config struct {
	// Q0 is the good-peer issuing bound q (queries/min); Definition 2.1
	// sets q = 100.
	Q0 float64
	// WarnThreshold marks a neighbor suspicious when it sends more than
	// this many queries in a minute (§3.3 example: 500).
	WarnThreshold float64
	// CutThreshold is CT: disconnect when g or s exceeds it.
	CutThreshold float64
	// ExchangePeriod is the neighbor-list exchange interval in seconds
	// (periodic policy; paper uses 120).
	ExchangePeriod float64
	// EventDriven switches to the event-driven exchange policy: lists
	// are pushed whenever a neighbor joins or leaves.
	EventDriven bool
	// ReportRateLimit is the Neighbor_Traffic per-member resend
	// suppression window in seconds (paper: 50).
	ReportRateLimit float64
	// StaleAfter discards advertised lists older than this many
	// seconds; 0 disables expiry.
	StaleAfter float64
	// VerifyLists enables the §3.1 consistency check: claims in a
	// received list are confirmed with the claimed peers, and liars are
	// disconnected.
	VerifyLists bool
	// Radius is r in DD-POLICE-r. r=1 (the paper's focus) uses direct
	// neighbor lists only. At r=2 a peer that exchanges also relays, to
	// each active neighbor w, every list it holds from another of its
	// neighbors, so a push w missed can still reach it over a second
	// path. w keeps a relayed list only when its owner is w's own
	// neighbor. Nothing usable is dropped by that: an observer only
	// judges, and so only reads the list of, a peer it has an edge to.
	Radius int
}

// DefaultConfig returns the paper's operating point: q0=100, warn=500,
// CT=5, 2-minute periodic exchange, 50 s rate limit, r=1.
func DefaultConfig() Config {
	return Config{
		Q0:              100,
		WarnThreshold:   500,
		CutThreshold:    5,
		ExchangePeriod:  120,
		ReportRateLimit: 50,
		StaleAfter:      600,
		Radius:          1,
	}
}

// Validate reports configuration errors. The comparisons are written
// so that NaN fails them too.
func (c Config) Validate() error {
	if !(c.Q0 > 0) {
		return fmt.Errorf("police: Q0 = %v", c.Q0)
	}
	if !(c.WarnThreshold > 0) {
		return fmt.Errorf("police: WarnThreshold = %v", c.WarnThreshold)
	}
	if !(c.CutThreshold > 0) {
		return fmt.Errorf("police: CutThreshold = %v", c.CutThreshold)
	}
	if !c.EventDriven && !(c.ExchangePeriod > 0) {
		return fmt.Errorf("police: ExchangePeriod = %v", c.ExchangePeriod)
	}
	if !(c.ReportRateLimit >= 0) {
		return fmt.Errorf("police: ReportRateLimit = %v", c.ReportRateLimit)
	}
	if !(c.StaleAfter >= 0) {
		return fmt.Errorf("police: StaleAfter = %v", c.StaleAfter)
	}
	if c.Radius < 1 || c.Radius > 2 {
		return fmt.Errorf("police: Radius = %d (supported: 1, 2)", c.Radius)
	}
	return nil
}

// CheatStrategy models how a malicious peer answers Neighbor_Traffic
// requests about one of its neighbors (§3.4's three choices).
type CheatStrategy int

// Cheating strategies for Neighbor_Traffic reporting.
const (
	// CheatNone: report truthfully (the paper argues this is the
	// attacker's rational choice).
	CheatNone CheatStrategy = iota
	// CheatInflate: report a larger outgoing count than real (Case 1 —
	// helps the accused good peer, pointless for the attacker).
	CheatInflate
	// CheatDeflate: report a smaller outgoing count (Case 2 — frames
	// the good neighbor as the query source).
	CheatDeflate
	// CheatSilent: refuse to report (treated as zero by the collector,
	// same effect as Case 2).
	CheatSilent
)

// Overhead tallies DD-POLICE control traffic (message counts).
type Overhead struct {
	NeighborListMsgs    uint64 // periodic + event-driven list pushes
	NeighborTrafficMsgs uint64 // Table 1 reports exchanged in BGs
	VerifyMsgs          uint64 // list consistency confirmations
}

// Total returns the total control message count.
func (o Overhead) Total() uint64 {
	return o.NeighborListMsgs + o.NeighborTrafficMsgs + o.VerifyMsgs
}

// Detection records one disconnect decision.
type Detection struct {
	At       float64 // seconds
	Observer PeerID
	Suspect  PeerID
	General  float64 // g(j,t) at decision time
	Single   float64 // s(j,t,i) at decision time
}

// Police drives the protocol over one overlay. Not safe for concurrent
// use; each simulation replica owns one instance.
type Police struct {
	cfg   Config
	ov    *overlay.Overlay
	cheat []CheatStrategy
	isBad []bool
	liar  []bool // advertises fabricated neighbor-list entries

	detections []Detection
	overhead   Overhead
	cutGood    []bool // good peers cut at least once (false negatives)
	cutGoodN   int    // count of set cutGood entries
	detected   []bool // bad peers detected at least once
	detectedN  int    // count of set detected entries

	lossProb  float64
	lossSrc   *rng.Source
	lostCount uint64 // control messages dropped by the loss model

	// round is the one bad-peer-recognition round (round.go), reused for
	// every (observer, suspect) pair of every sweep; it holds the journal
	// SetJournal attaches.
	round Round

	// Pooled scratch buffers: the minute sweep runs for every online peer
	// every simulated minute. Each buffer is owned by exactly one
	// (non-reentrant) call path; the exchange walks static slots and
	// needs none but advertised's.
	cutBuf  []Verdict // EvaluateMinute's deferred cut decisions
	evalBuf []PeerID  // EvaluateMinute's per-observer suspect scan
	obsBuf  []PeerID  // EvaluateMinute's online-observer sweep list
	joinBuf []PeerID  // NotifyJoin's event-driven exchange list
	advBuf  []PeerID  // advertised's recompute, compared before publishing

	// Published neighbor lists, one per owner (advertised): snap[v] is
	// the last list v published and is never written again; snapVer[v] is
	// overlay.Version()+1 when it was last confirmed current, 0 = never.
	snap    [][]PeerID
	snapVer []uint64

	// Per-peer protocol memory, indexed by overlay.EdgeID. Everything a
	// peer remembers — a received list, a rate-limit stamp —
	// concerns a direct neighbor, so the (holder, neighbor) pair
	// addresses the directed edge holder->neighbor. This holds at every
	// Radius (see Config.Radius). A held list is the header of the
	// owner's published snapshot (a liar's padded copy), shared by every
	// edge that received it, so list memory is O(Σ deg), not O(Σ deg²).
	listAt  []float64  // receipt time of the list on edge recv->owner; listNone = none
	listMem [][]PeerID // advertised members on that edge: an immutable shared snapshot
	lastNT  []float64  // last NT round on edge observer->suspect; ntNever = never

	// nextExchange[v] is when v's next periodic list exchange is due;
	// nextDue is the peer due soonest, where Tick starts (see Tick).
	nextExchange []float64
	nextDue      int
}

// Sentinels for the edge-indexed state. listNone marks "no list held"
// (any real receipt time is >= 0); ntNever marks "no NT round yet"
// (now-ntNever dwarfs any ReportRateLimit).
const (
	listNone = -1.0
	ntNever  = -1e18
)

// New creates a DD-POLICE instance over ov. Exchange phases are
// staggered per peer so the control traffic spreads over the period.
func New(ov *overlay.Overlay, cfg Config) (*Police, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, ne := ov.NumPeers(), ov.NumDirectedEdges()
	p := &Police{
		cfg:          cfg,
		ov:           ov,
		cheat:        make([]CheatStrategy, n),
		isBad:        make([]bool, n),
		liar:         make([]bool, n),
		cutGood:      make([]bool, n),
		detected:     make([]bool, n),
		snap:         make([][]PeerID, n),
		snapVer:      make([]uint64, n),
		listAt:       make([]float64, ne),
		listMem:      make([][]PeerID, ne),
		lastNT:       make([]float64, ne),
		nextExchange: make([]float64, n),
		round:        Round{cfg: cfg},
	}
	for e := range p.listAt {
		p.listAt[e] = listNone
		p.lastNT[e] = ntNever
	}
	if !cfg.EventDriven {
		// Deterministic stagger: spread phases across the period.
		for i := range p.nextExchange {
			p.nextExchange[i] = cfg.ExchangePeriod * float64(i) / float64(n)
		}
	}
	return p, nil
}

// SetBad marks peer v as a DDoS agent with the given reporting
// strategy. Ground truth is used only for error accounting; the
// protocol itself never reads it.
func (p *Police) SetBad(v PeerID, cheat CheatStrategy) {
	p.isBad[v] = true
	p.cheat[v] = cheat
}

// SetListLiar makes v advertise a fabricated neighbor list (tested by
// the VerifyLists consistency check).
func (p *Police) SetListLiar(v PeerID) { p.liar[v] = true }

// Detections returns all disconnect decisions so far.
func (p *Police) Detections() []Detection { return p.detections }

// Overhead returns control-traffic counters.
func (p *Police) Overhead() Overhead { return p.overhead }

// FalseNegatives returns the number of distinct good peers wrongly
// disconnected (the paper's "false negative").
func (p *Police) FalseNegatives() int { return p.cutGoodN }

// DetectedBad returns the number of distinct bad peers disconnected at
// least once.
func (p *Police) DetectedBad() int { return p.detectedN }

// FalsePositives returns the number of bad peers among the given agent
// set that were never identified (the paper's "false positive").
func (p *Police) FalsePositives(agents []PeerID) int {
	missed := 0
	for _, a := range agents {
		if !p.detected[a] {
			missed++
		}
	}
	return missed
}

// Report is one Neighbor_Traffic data point about a suspect: what the
// reporting member sent to the suspect (Out = Q_{m->j}) and received
// from it (In = Q_{j->m}) in the last closed minute.
type Report struct {
	Out float64
	In  float64
}

// ComputeIndicators evaluates Definitions 2.1 and 2.2 from collected
// reports. own is the observer's direct measurement of the suspect's
// edge; others are the remaining buddy-group members' reports (missing
// reports are simply absent — the caller decides whether a member that
// never answered still counts toward k via missingMembers).
func ComputeIndicators(q0 float64, own Report, others []Report, missingMembers int) (g, s float64, k int) {
	k = 1 + len(others) + missingMembers
	sumToSuspect := own.Out  // Σ_m Q_{m->j}
	sumFromSuspect := own.In // Σ_m Q_{j->m}
	othersToSuspect := 0.0   // Σ_{m≠i} Q_{m->j}
	for _, r := range others {
		sumToSuspect += r.Out
		sumFromSuspect += r.In
		othersToSuspect += r.Out
	}
	g = (sumFromSuspect - float64(k-1)*sumToSuspect) / (float64(k) * q0)
	s = (own.In - othersToSuspect) / q0
	return g, s, k
}

// SetControlLoss sets the probability that an individual control
// message (neighbor-list push or Neighbor_Traffic report) is lost in
// transit, drawn from src. The simulator derives this from current
// network congestion: DD-POLICE's own messages ride the same saturated
// overlay links as the attack traffic. A nil src disables loss.
func (p *Police) SetControlLoss(prob float64, src *rng.Source) {
	p.lossProb = prob
	p.lossSrc = src
}

// lost reports whether one control message should be dropped, counting
// losses so delivery rates are measurable after a run.
func (p *Police) lost() bool {
	if p.lossSrc != nil && p.lossProb > 0 && p.lossSrc.Bool(p.lossProb) {
		p.lostCount++
		return true
	}
	return false
}

// ControlLost returns how many control messages the loss model dropped
// so far. Overhead().Total() counts messages sent (lost ones included),
// so the run's control-plane delivery rate is 1 - lost/sent.
func (p *Police) ControlLost() uint64 { return p.lostCount }

// SetJournal attaches an event journal recording the detection
// lifecycle (warning → NT round → indicators → cut) with logical
// timestamps. The protocol sweep is single-threaded and iterates peers
// and buddy members in deterministic order, so two identical-seed runs
// journal identical event sequences. A nil journal disables recording.
func (p *Police) SetJournal(j *journal.Journal) { p.round.jr = j }
