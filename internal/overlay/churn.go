package overlay

import (
	"ddpolice/internal/rng"
)

// ChurnConfig models peer session dynamics. The paper assigns each
// joining peer a lifetime drawn from the distribution observed in [19]
// with mean 10 minutes and "variance half of the value of the mean"
// (interpreted in minutes: std-dev = sqrt(5) min ≈ 134 s), and peers
// rejoin after an offline period so the online population stays near
// its target.
type ChurnConfig struct {
	MeanLifetime   float64 // seconds online per session (paper: 600)
	StddevLifetime float64 // seconds (paper: ~134)
	MeanOffline    float64 // seconds between sessions; exponential
	// CrashFraction is the probability a departure is a crash rather
	// than a graceful leave. A crashed peer vanishes without the
	// leave-side protocol actions (its buddies keep stale state until
	// their own timeouts clear it); the fault-injection studies sweep
	// this. Zero (the default) keeps every departure graceful.
	CrashFraction float64
}

// DefaultChurnConfig returns the paper's churn parameters.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{MeanLifetime: 600, StddevLifetime: 134, MeanOffline: 600}
}

// Churn drives on/off toggling of peers in whole-second ticks.
type Churn struct {
	cfg       ChurnConfig
	src       *rng.Source
	ov        *Overlay
	remaining []float64 // seconds until state flip; <0 means pinned
	pinned    []bool    // peers excluded from churn (e.g. DDoS agents)
	crashed   []bool    // last departure of v was a crash, not a leave
	flips     []PeerID  // peers that flipped during the last Tick, ascending
	joins     int
	leaves    int
}

// NewChurn creates a churn driver. Every peer starts online with a
// fresh lifetime.
func NewChurn(ov *Overlay, cfg ChurnConfig, src *rng.Source) *Churn {
	c := &Churn{
		cfg:       cfg,
		src:       src,
		ov:        ov,
		remaining: make([]float64, ov.NumPeers()),
		pinned:    make([]bool, ov.NumPeers()),
		crashed:   make([]bool, ov.NumPeers()),
	}
	for v := range c.remaining {
		// Stagger initial lifetimes: peers are mid-session at t=0, so
		// sample a residual uniformly within a full lifetime.
		c.remaining[v] = c.sampleLifetime() * c.src.Float64()
	}
	return c
}

func (c *Churn) sampleLifetime() float64 {
	if c.cfg.StddevLifetime <= 0 {
		return c.cfg.MeanLifetime
	}
	return c.src.LogNormal(c.cfg.MeanLifetime, c.cfg.StddevLifetime)
}

// Pin excludes peer v from churn (used for dedicated DDoS agents, which
// the paper models as continuously attacking).
func (c *Churn) Pin(v PeerID) {
	c.pinned[v] = true
	c.ov.SetOnline(v, true)
}

// Joins returns the number of join events so far.
func (c *Churn) Joins() int { return c.joins }

// Leaves returns the number of leave events so far (crashes included).
func (c *Churn) Leaves() int { return c.leaves }

// Crashed reports whether v's most recent departure was a crash. The
// flag clears when v rejoins.
func (c *Churn) Crashed(v PeerID) bool { return c.crashed[v] }

// Flips returns the peers that changed state during the most recent
// Tick, in ascending PeerID order — the same order a full online-state
// diff against the pre-Tick snapshot would yield. The slice is reused
// by the next Tick.
func (c *Churn) Flips() []PeerID { return c.flips }

// Tick advances churn by dt seconds, flipping any peers whose session
// or offline period expired. The peers that flipped are retrievable in
// ascending order via Flips until the next Tick.
func (c *Churn) Tick(dt float64) {
	c.flips = c.flips[:0]
	for v := range c.remaining {
		if c.pinned[v] {
			continue
		}
		c.remaining[v] -= dt
		if c.remaining[v] > 0 {
			continue
		}
		id := PeerID(v)
		c.flips = append(c.flips, id)
		if c.ov.Online(id) {
			c.ov.SetOnline(id, false)
			c.leaves++
			if c.cfg.CrashFraction > 0 && c.src.Bool(c.cfg.CrashFraction) {
				c.crashed[v] = true
			}
			if c.cfg.MeanOffline <= 0 {
				c.remaining[v] = 1e18 // never rejoins
			} else {
				c.remaining[v] = c.src.ExpFloat64(1 / c.cfg.MeanOffline)
			}
		} else {
			c.ov.SetOnline(id, true)
			c.joins++
			c.crashed[v] = false
			c.remaining[v] = c.sampleLifetime()
		}
	}
}
