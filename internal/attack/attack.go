// Package attack models overlay flooding DDoS agents: compromised
// peers that "generate as many bogus queries as they can" (§3.5). Each
// agent issues Q_d = min(20000, link capacity) queries per minute; per
// Figure 1 an agent may issue *different* queries to each neighbor so
// that duplicate suppression never cancels its traffic, or broadcast
// the same query stream to all neighbors.
package attack

import (
	"fmt"

	"ddpolice/internal/capacity"
	"ddpolice/internal/flood"
	"ddpolice/internal/overlay"
	"ddpolice/internal/police"
	"ddpolice/internal/rng"
)

// PeerID aliases the overlay peer identifier.
type PeerID = overlay.PeerID

// Mode selects how an agent spreads its bogus queries.
type Mode int

// Attack spreading modes.
const (
	// ModeSpray issues a distinct query stream to each neighbor
	// (Figure 1: "a bad peer issues different queries to its
	// neighboring peers in order to make DDoS attacks more damaging").
	ModeSpray Mode = iota
	// ModeBroadcast floods the same query stream to all neighbors;
	// duplicate suppression then bounds each query to one pass.
	ModeBroadcast
)

// LinkModel assigns last-hop capacity, following the paper's use of
// [19]: 78% of peers have fast access links, 22% are bandwidth-poor
// ("22% of the participating peers have upstream bottleneck bandwidths
// of 100Kbps or less"). Capacities are expressed in queries/minute.
type LinkModel struct {
	SlowFraction float64
	// Slow peers' uplink capacity is drawn uniformly from
	// [SlowCapMinPerMin, SlowCapPerMin] — the measurement says
	// "100 Kbps or less", not exactly 100 Kbps.
	SlowCapMinPerMin float64
	SlowCapPerMin    float64
	FastCapPerMin    float64
}

// DefaultLinkModel translates the paper's bandwidth classes into query
// rates: a 100 Kbps uplink moves ~7,500 of the ~100-byte query messages
// per minute; fast links are effectively unconstrained relative to the
// 20,000/min generation bound.
func DefaultLinkModel() LinkModel {
	return LinkModel{SlowFraction: 0.22, SlowCapMinPerMin: 2000, SlowCapPerMin: 7500, FastCapPerMin: 75000}
}

// AgentConfig describes one agent's behaviour.
type AgentConfig struct {
	RatePerMin float64 // generation capability (paper: 20,000)
	Mode       Mode
	Cheat      police.CheatStrategy
	TTL        int
}

// DefaultAgentConfig returns the paper's agent: 20k queries/min,
// per-neighbor distinct streams, honest Neighbor_Traffic reporting
// (§3.4 concludes cheating cannot help), TTL 7.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{
		RatePerMin: capacity.BadPeerIssuePerMin,
		Mode:       ModeSpray,
		Cheat:      police.CheatNone,
		TTL:        7,
	}
}

// Agent is one compromised peer.
type Agent struct {
	ID              PeerID
	EffectivePerMin float64 // min(RatePerMin, link capacity)
	cfg             AgentConfig
}

// Fleet is the set of agents for one simulation run.
type Fleet struct {
	agents []Agent
}

// NewFleet compromises count distinct peers chosen uniformly at random
// from [0, numPeers). Link capacities are drawn from links. The same
// seed yields the same fleet.
func NewFleet(count, numPeers int, cfg AgentConfig, links LinkModel, src *rng.Source) (*Fleet, error) {
	if count < 0 || count > numPeers {
		return nil, fmt.Errorf("attack: %d agents among %d peers", count, numPeers)
	}
	if !(cfg.RatePerMin > 0) || cfg.TTL <= 0 {
		return nil, fmt.Errorf("attack: agent config rate=%v ttl=%d", cfg.RatePerMin, cfg.TTL)
	}
	f := &Fleet{}
	perm := src.Perm(numPeers)
	for i := 0; i < count; i++ {
		id := PeerID(perm[i])
		cap := links.FastCapPerMin
		if src.Bool(links.SlowFraction) {
			cap = links.SlowCapPerMin
			if links.SlowCapMinPerMin > 0 && links.SlowCapMinPerMin < links.SlowCapPerMin {
				cap = links.SlowCapMinPerMin + src.Float64()*(links.SlowCapPerMin-links.SlowCapMinPerMin)
			}
		}
		rate := cfg.RatePerMin
		if cap < rate {
			rate = cap // Q_d = min(20000, capacity of the link)
		}
		f.agents = append(f.agents, Agent{ID: id, EffectivePerMin: rate, cfg: cfg})
	}
	return f, nil
}

// Agents returns the fleet members.
func (f *Fleet) Agents() []Agent { return f.agents }

// IDs returns the agent peer ids.
func (f *Fleet) IDs() []PeerID {
	ids := make([]PeerID, len(f.agents))
	for i, a := range f.agents {
		ids[i] = a.ID
	}
	return ids
}

// Size returns the number of agents.
func (f *Fleet) Size() int { return len(f.agents) }

// TickSliced floods every agent's bogus query volume for a dt-second
// interval through eng, consuming budget like any other traffic, and
// returns the aggregate flood accounting. The volume is spread over the
// given number of interleaved slices, rotating the agent order between
// slices (rotation seeded by round so the bias rotates across ticks).
//
// Slicing matters under saturation: peers' processing budgets are
// consumed first-come-first-served within a tick, so flooding each
// agent's full per-tick volume as a single batch would let whichever
// agent floods first starve the others — a serialization artifact. In
// the real network the queries of all agents interleave packet by
// packet and each peer's capacity is shared proportionally; a handful
// of interleaved slices reproduces that fair sharing, and with it the
// geometric per-hop thinning that makes overloaded floods die out
// close to their source.
func (f *Fleet) TickSliced(eng *flood.Engine, ov *overlay.Overlay, budget *flood.Budget, dt float64, slices, round int) flood.BatchResult {
	var total flood.BatchResult
	if slices < 1 {
		slices = 1
	}
	n := len(f.agents)
	if n == 0 {
		return total
	}
	for s := 0; s < slices; s++ {
		start := (round*slices + s) % n
		for i := 0; i < n; i++ {
			a := f.agents[(start+i)%n]
			f.emit(eng, ov, budget, a, dt/float64(slices), &total)
		}
	}
	return total
}

func (f *Fleet) emit(eng *flood.Engine, ov *overlay.Overlay, budget *flood.Budget, a Agent, dt float64, total *flood.BatchResult) {
	if !ov.Online(a.ID) {
		return
	}
	weight := a.EffectivePerMin * dt / 60
	if weight <= 0 {
		return
	}
	// The overlay's own row: FloodBatch never changes connectivity.
	nbrs, _ := ov.Active(a.ID)
	if len(nbrs) == 0 {
		return
	}
	switch a.cfg.Mode {
	case ModeBroadcast:
		// Ordinary flooding of the agent's distinct queries: the same
		// stream goes down every connection (k copies on the wire,
		// deduplicated downstream). The agent's source edges each carry
		// the full generation rate — a glaring Out_query signature.
		r := eng.FloodBatch(a.ID, -1, a.cfg.TTL, weight, budget)
		accumulate(total, r)
	case ModeSpray:
		// Figure 1's stealthier pattern: the generation budget is split
		// into per-neighbor *distinct* streams. Total flood mass is the
		// same, but each source edge carries only rate/k, and no
		// duplicate suppression ever cancels the sub-streams against
		// each other.
		per := weight / float64(len(nbrs))
		for _, v := range nbrs {
			r := eng.FloodBatch(a.ID, v, a.cfg.TTL, per, budget)
			accumulate(total, r)
		}
	}
}

// FloodKeys appends the (source, entry, TTL) traversal keys the fleet's
// next TickSliced call will flood — one unrestricted key per agent
// in broadcast mode, one entry-restricted key per active neighbor in
// spray mode — mirroring emit's own skip conditions (offline agent, no
// active neighbors, zero weight). The sim's proposal phase feeds these
// to flood.Engine.PrewarmTrees so the commit-phase batches replay
// cached trees instead of re-traversing.
func (f *Fleet) FloodKeys(ov *overlay.Overlay, buf []flood.TreeKey) []flood.TreeKey {
	for _, a := range f.agents {
		if !ov.Online(a.ID) || a.EffectivePerMin <= 0 {
			continue
		}
		nbrs, _ := ov.Active(a.ID)
		if len(nbrs) == 0 {
			continue
		}
		switch a.cfg.Mode {
		case ModeBroadcast:
			buf = append(buf, flood.TreeKey{Src: a.ID, Entry: -1, TTL: int32(a.cfg.TTL)})
		case ModeSpray:
			for _, v := range nbrs {
				buf = append(buf, flood.TreeKey{Src: a.ID, Entry: v, TTL: int32(a.cfg.TTL)})
			}
		}
	}
	return buf
}

func accumulate(total *flood.BatchResult, r flood.BatchResult) {
	total.QueryMessages += r.QueryMessages
	total.DupMessages += r.DupMessages
	total.CapacityDrops += r.CapacityDrops
	total.ProcessedMass += r.ProcessedMass
	total.PeersReached += r.PeersReached
}
