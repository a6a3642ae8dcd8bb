package police

import (
	"math"
	"strings"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// Indicators computes g(j,t) and s(j,t,i) as seen by the observer, along
// with the buddy-group size k used: one round through the simulator's
// transport with neither the warning gate nor the rate limit in front of
// it. ok is false when the observer has no usable buddy-group view of
// the suspect (the decision must be deferred).
func (p *Police) Indicators(observer, suspect PeerID, now float64) (g, s float64, k int, ok bool) {
	e, found := p.ov.FindEdge(observer, suspect)
	if !found {
		return 0, 0, 0, false
	}
	p.round.Begin(observer, suspect, now, int(now)/60)
	v, ok := p.collect(e, now, math.Inf(1))
	return v.G, v.S, v.K, ok
}

// starOverlay builds suspect j=0 at the center of k leaves 1..k.
func starOverlay(t *testing.T, k int) *overlay.Overlay {
	t.Helper()
	b := topology.NewBuilder(k + 1)
	for i := 1; i <= k; i++ {
		if err := b.AddEdge(0, topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return overlay.New(b.Build())
}

// exchangeAll triggers an immediate neighbor-list exchange for every
// peer so buddy-group views are fully populated.
func exchangeAll(p *Police, ov *overlay.Overlay, now float64) {
	for v := 0; v < ov.NumPeers(); v++ {
		if ov.Online(PeerID(v)) {
			p.exchangeFrom(PeerID(v), now)
		}
	}
}

func addTraffic(t *testing.T, ov *overlay.Overlay, u, v PeerID, amount float64) {
	t.Helper()
	if err := ov.AddTrafficBetween(u, v, amount); err != nil {
		t.Fatal(err)
	}
}

// loadFig2 populates the Figure 2 scenario: suspect j=0 with three
// neighbors i=1, m2=2, m3=3. j issues issued queries itself, receives
// q1, q2, q3 from its neighbors, and forwards everything to everyone
// (minus the sender).
func loadFig2(t *testing.T, ov *overlay.Overlay, issued, q1, q2, q3 float64) {
	t.Helper()
	addTraffic(t, ov, 1, 0, q1)
	addTraffic(t, ov, 2, 0, q2)
	addTraffic(t, ov, 3, 0, q3)
	addTraffic(t, ov, 0, 1, issued+q2+q3)
	addTraffic(t, ov, 0, 2, issued+q1+q3)
	addTraffic(t, ov, 0, 3, issued+q1+q2)
	ov.RollMinute()
}

// TestIndicatorsFigure2Example reproduces the paper's worked example:
// with full forwarding, g(j,t) = s(j,t,i) = issued / q0.
func TestIndicatorsFigure2Example(t *testing.T) {
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 1200, 300, 400, 500)
	g, s, k, ok := p.Indicators(1, 0, 60)
	if !ok {
		t.Fatal("no buddy-group view")
	}
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if math.Abs(g-12) > 1e-9 {
		t.Errorf("g = %v, want 12 (= issued/q0)", g)
	}
	if math.Abs(s-12) > 1e-9 {
		t.Errorf("s = %v, want 12", s)
	}
}

// TestHonestForwarderIdentityProperty holds the protocol to Definitions
// 2.1-2.2 themselves, the paper as oracle: for any degree k, any inbound
// volumes and any own rate q', a peer that forwards every inbound query
// to its other k-1 neighbours (no-duplicate accounting) reads
// g(j,t) = s(j,t,i) = q'/q0 from every observer i — Fig 2's identity —
// so an honest peer (q' <= q0) never reaches 1, let alone CT. And a
// member going silent (its report times out and counts as zero, §3.3)
// keeps its seat in k and never lowers s: silence can frame the
// suspect, not shield it.
func TestHonestForwarderIdentityProperty(t *testing.T) {
	src := rng.New(2007)
	cfg := DefaultConfig()
	for trial := 0; trial < 200; trial++ {
		k := 2 + src.Intn(7)
		ov := starOverlay(t, k)
		p, err := New(ov, cfg)
		if err != nil {
			t.Fatal(err)
		}
		exchangeAll(p, ov, 0)
		own := src.Float64() * 2 * cfg.Q0 // q': an honest rate in about half the trials
		in := make([]float64, k+1)        // in[m] = Q_{m->j}
		total := 0.0
		for m := 1; m <= k; m++ {
			in[m] = float64(src.Intn(5000))
			total += in[m]
		}
		for m := 1; m <= k; m++ {
			addTraffic(t, ov, PeerID(m), 0, in[m])
			addTraffic(t, ov, 0, PeerID(m), own+total-in[m])
		}
		ov.RollMinute()

		want, eps := own/cfg.Q0, 1e-9*(1+total)
		full := make([]float64, k+1) // s per observer with every member reporting
		for i := 1; i <= k; i++ {
			g, s, seats, ok := p.Indicators(PeerID(i), 0, 60)
			if !ok || seats != k {
				t.Fatalf("trial %d, k=%d, observer %d: ok=%v k=%d", trial, k, i, ok, seats)
			}
			if math.Abs(g-want) > eps || math.Abs(s-want) > eps {
				t.Fatalf("trial %d, k=%d, q'=%v, in=%v: observer %d reads g=%v s=%v, want q'/q0 = %v", trial, k, own, in[1:], i, g, s, want)
			}
			if own <= cfg.Q0 && (g > 1+eps || s > 1+eps || g >= cfg.CutThreshold) {
				t.Fatalf("trial %d: honest forwarder (q'=%v <= q0) read g=%v s=%v against CT=%v", trial, own, g, s, cfg.CutThreshold)
			}
			full[i] = s
		}

		silent := PeerID(1 + src.Intn(k))
		p.SetBad(silent, CheatSilent)
		for i := 1; i <= k; i++ {
			if PeerID(i) == silent {
				continue
			}
			_, s, seats, ok := p.Indicators(PeerID(i), 0, 60)
			if !ok || seats != k {
				t.Fatalf("trial %d: silent member %d lost its seat: ok=%v k=%d, want %d", trial, silent, ok, seats, k)
			}
			if s < full[i]-eps || math.Abs(s-(full[i]+in[silent]/cfg.Q0)) > eps {
				t.Fatalf("trial %d, observer %d: member %d (sent %v) going silent moved s %v -> %v, want +Q/q0", trial, i, silent, in[silent], full[i], s)
			}
		}
	}
}

// TestGoodForwarderLowIndicator: a peer that only forwards (issues ~0)
// has g ≈ 0 even under heavy through-traffic.
func TestGoodForwarderLowIndicator(t *testing.T) {
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 0, 3000, 2000, 1000) // forwards 6000/min of others' queries
	g, s, _, ok := p.Indicators(1, 0, 60)
	if !ok {
		t.Fatal("no view")
	}
	if g > 0.5 || s > 0.5 {
		t.Fatalf("pure forwarder flagged: g=%v s=%v", g, s)
	}
}

func TestEvaluateCutsAttacker(t *testing.T) {
	ov := starOverlay(t, 3)
	cfg := DefaultConfig()
	cfg.CutThreshold = 5
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(0, CheatNone)
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 3000, 10, 10, 10) // attacker issues 3000/min
	p.EvaluateMinute(60)
	for leaf := PeerID(1); leaf <= 3; leaf++ {
		if ov.Connected(leaf, 0) {
			t.Errorf("leaf %d still connected to attacker", leaf)
		}
	}
	if p.FalsePositives([]PeerID{0}) != 0 {
		t.Error("the attacker was never detected")
	}
	if p.FalseNegatives() != 0 {
		t.Errorf("false negatives = %d", p.FalseNegatives())
	}
	if len(p.Detections()) == 0 {
		t.Fatal("no detection records")
	}
	d := p.Detections()[0]
	if d.Suspect != 0 || d.General < 5 {
		t.Errorf("detection = %+v", d)
	}
}

func TestGoodForwarderSurvivesEvaluation(t *testing.T) {
	// Peer 0 forwards a massive flow it received from neighbor 1 (an
	// attacker that reports honestly): peer 0's other neighbors must
	// NOT cut it, even though observer 0 correctly cuts peer 1.
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(1, CheatNone)
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 0, 6000, 0, 0) // all volume originates at peer 1
	p.EvaluateMinute(60)
	if !ov.Connected(2, 0) || !ov.Connected(3, 0) {
		t.Fatal("good forwarder was cut despite honest buddy reports")
	}
	if p.FalseNegatives() != 0 {
		t.Fatalf("false negatives = %d", p.FalseNegatives())
	}
}

func TestDeflatingCheaterFramesGoodPeer(t *testing.T) {
	// Same scenario, but the source peer 1 is a deflating attacker: it
	// under-reports Q_{1->0}, so peer 0 appears to have issued the
	// flood itself (the paper's Case 2).
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(1, CheatDeflate)
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 0, 6000, 0, 0)
	p.EvaluateMinute(60)
	if ov.Connected(2, 0) && ov.Connected(3, 0) {
		t.Fatal("deflating cheater failed to frame the forwarder")
	}
	if p.FalseNegatives() != 1 {
		t.Fatalf("false negatives = %d, want 1", p.FalseNegatives())
	}
}

func TestSilentCheaterActsLikeDeflation(t *testing.T) {
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(1, CheatSilent)
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 0, 6000, 0, 0)
	p.EvaluateMinute(60)
	if p.FalseNegatives() != 1 {
		t.Fatalf("false negatives = %d, want 1", p.FalseNegatives())
	}
}

func TestInflatingCheaterHelpsSuspect(t *testing.T) {
	// Case 1: inflation makes the forwarder look even more innocent.
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(1, CheatInflate)
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 0, 6000, 0, 0)
	g, _, _, ok := p.Indicators(2, 0, 60)
	if !ok {
		t.Fatal("no view")
	}
	if g > 0 {
		t.Fatalf("g = %v under inflation, want negative (suspect looks good)", g)
	}
	p.EvaluateMinute(60)
	if p.FalseNegatives() != 0 {
		t.Fatal("inflation should not frame the suspect")
	}
}

func TestMissingMemberReportInflatesIndicator(t *testing.T) {
	// The true source (peer 1) goes offline before evaluation: its
	// report is missing, so observer 2 over-estimates peer 0's issuing.
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 0, 6000, 0, 0)
	gBefore, _, _, _ := p.Indicators(2, 0, 60)
	ov.SetOnline(1, false)
	gAfter, _, _, ok := p.Indicators(2, 0, 60)
	if !ok {
		t.Fatal("no view")
	}
	if gAfter <= gBefore {
		t.Fatalf("missing report did not inflate g: before=%v after=%v", gBefore, gAfter)
	}
	// Note: SetOnline(offline) clears the leaving peer's edge counters,
	// which is exactly the information loss DD-POLICE suffers under
	// churn.
	if gAfter < 5 {
		t.Fatalf("g = %v, expected false-cut territory", gAfter)
	}
}

func TestNoDecisionWithoutBuddyView(t *testing.T) {
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No exchange performed: observers hold no list for the suspect.
	loadFig2(t, ov, 3000, 10, 10, 10)
	p.EvaluateMinute(60)
	if len(p.Detections()) != 0 {
		t.Fatal("detection without buddy-group view")
	}
	if _, _, _, ok := p.Indicators(1, 0, 60); ok {
		t.Fatal("Indicators returned a view that was never exchanged")
	}
}

func TestWarnThresholdGate(t *testing.T) {
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(0, CheatNone)
	exchangeAll(p, ov, 0)
	// 450/min to each neighbor: below the 500 warning threshold, so no
	// evaluation happens even though g would be 4.5.
	addTraffic(t, ov, 0, 1, 450)
	addTraffic(t, ov, 0, 2, 450)
	addTraffic(t, ov, 0, 3, 450)
	ov.RollMinute()
	p.EvaluateMinute(60)
	if len(p.Detections()) != 0 {
		t.Fatal("evaluated below warning threshold")
	}
}

func TestReportRateLimit(t *testing.T) {
	ov := starOverlay(t, 3)
	cfg := DefaultConfig()
	cfg.CutThreshold = 1e9 // never cut; we only watch the report traffic
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 3000, 10, 10, 10)
	p.EvaluateMinute(60)
	msgs := p.Overhead().NeighborTrafficMsgs
	if msgs == 0 {
		t.Fatal("no neighbor-traffic messages on first round")
	}
	// A second evaluation 10 s later is inside the 50 s rate limit.
	p.EvaluateMinute(70)
	if got := p.Overhead().NeighborTrafficMsgs; got != msgs {
		t.Fatalf("rate limit violated: %d -> %d", msgs, got)
	}
	// 60 s later the window has passed.
	loadFig2(t, ov, 3000, 10, 10, 10)
	p.EvaluateMinute(120)
	if got := p.Overhead().NeighborTrafficMsgs; got <= msgs {
		t.Fatal("no re-evaluation after rate-limit window")
	}
}

func TestPeriodicExchangeStaggered(t *testing.T) {
	ov := starOverlay(t, 3)
	cfg := DefaultConfig()
	cfg.ExchangePeriod = 120
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Peers 0..3 have phases 0, 30, 60, 90.
	p.Tick(0)
	if _, _, _, ok := p.Indicators(1, 0, 1); !ok {
		t.Fatal("peer 0's exchange at phase 0 missing")
	}
	base := p.Overhead().NeighborListMsgs
	p.Tick(30)
	if got := p.Overhead().NeighborListMsgs; got <= base {
		t.Fatal("peer 1's exchange at phase 30 missing")
	}
}

func TestStaleListExpiry(t *testing.T) {
	ov := starOverlay(t, 3)
	cfg := DefaultConfig()
	cfg.StaleAfter = 100
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 1200, 10, 10, 10)
	if _, _, _, ok := p.Indicators(1, 0, 50); !ok {
		t.Fatal("fresh view rejected")
	}
	if _, _, _, ok := p.Indicators(1, 0, 200); ok {
		t.Fatal("stale view accepted")
	}
}

func TestEventDrivenNotifications(t *testing.T) {
	ov := starOverlay(t, 3)
	cfg := DefaultConfig()
	cfg.EventDriven = true
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tick is a no-op in event-driven mode.
	p.Tick(0)
	if p.Overhead().NeighborListMsgs != 0 {
		t.Fatal("event-driven mode sent periodic lists")
	}
	p.NotifyJoin(0, 5)
	if _, _, _, ok := p.Indicators(1, 0, 6); !ok {
		t.Fatal("join notification did not propagate the list")
	}
	before := p.Overhead().NeighborListMsgs
	ov.SetOnline(2, false)
	p.NotifyLeave(2, 10)
	if got := p.Overhead().NeighborListMsgs; got <= before {
		t.Fatal("leave notification sent no updates")
	}
}

func TestVerifyListsCatchesLiar(t *testing.T) {
	// Liar 0 has neighbors 1-3 plus non-neighbors 4, 5 it can
	// fabricate claims about.
	b := topology.NewBuilder(6)
	for i := 1; i <= 3; i++ {
		if err := b.AddEdge(0, topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(4, 5); err != nil {
		t.Fatal(err)
	}
	ov := overlay.New(b.Build())
	cfg := DefaultConfig()
	cfg.VerifyLists = true
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SetListLiar(0)
	exchangeAll(p, ov, 0)
	// At least one neighbor should have disconnected the liar.
	cut := 0
	for leaf := PeerID(1); leaf <= 3; leaf++ {
		if !ov.Connected(leaf, 0) {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("lying peer kept all connections")
	}
	if p.Overhead().VerifyMsgs == 0 {
		t.Fatal("no verification traffic counted")
	}
}

// lineOverlay builds the path 0-1-2; withChord closes it into the
// triangle 0-1-2-0.
func lineOverlay(t *testing.T, withChord bool) *overlay.Overlay {
	t.Helper()
	b := topology.NewBuilder(3)
	edges := [][2]topology.NodeID{{0, 1}, {1, 2}}
	if withChord {
		edges = append(edges, [2]topology.NodeID{0, 2})
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return overlay.New(b.Build())
}

// TestRadius2PropagatesLists: a relayed list is usable exactly where its
// owner is the receiver's neighbor. On the triangle, peer 2 misses 0's
// direct push (the edge is cut while 0 exchanges) and still gets 0's
// list through 1 at Radius 2, not at Radius 1. On the line, 0 is not
// 2's neighbor: the relay is sent and counted but leaves 2 with nothing
// it could read.
func TestRadius2PropagatesLists(t *testing.T) {
	for _, radius := range []int{1, 2} {
		ov := lineOverlay(t, true)
		cfg := DefaultConfig()
		cfg.Radius = radius
		p, err := New(ov, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ov.Cut(0, 2); err != nil {
			t.Fatal(err)
		}
		p.exchangeFrom(0, 0) // reaches 1 only
		ov.Uncut(0, 2)
		p.exchangeFrom(1, 1) // r=2: 1 relays 0's list to 2
		_, _, _, ok := p.Indicators(2, 0, 2)
		if want := radius == 2; ok != want {
			t.Errorf("triangle, Radius %d: Indicators(2, 0) ok = %v, want %v", radius, ok, want)
		}
	}

	ov := lineOverlay(t, false)
	cfg := DefaultConfig()
	cfg.Radius = 2
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.exchangeFrom(0, 0) // 1 now holds 0's list
	before := p.Overhead().NeighborListMsgs
	p.exchangeFrom(1, 1) // own list to 0 and 2, plus 0's list relayed to 2
	if got := p.Overhead().NeighborListMsgs - before; got != 3 {
		t.Errorf("line: exchangeFrom(1) sent %d list messages, want 3 (2 pushes + 1 relay)", got)
	}
	if _, _, _, ok := p.Indicators(2, 0, 2); ok {
		t.Error("line: peer 2 holds a readable list for non-neighbor 0")
	}
	if _, _, _, ok := p.Indicators(2, 1, 2); !ok {
		t.Error("line: peer 2 lost 1's direct push")
	}
}

func TestFalsePositiveAccounting(t *testing.T) {
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(0, CheatNone)
	p.SetBad(2, CheatNone) // never sends anything: stays undetected
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 3000, 10, 10, 10)
	p.EvaluateMinute(60)
	agents := []PeerID{0, 2}
	if got := p.FalsePositives(agents); got != 1 {
		t.Fatalf("false positives = %d, want 1 (silent agent 2)", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Q0: 0, WarnThreshold: 1, CutThreshold: 1, ExchangePeriod: 1, Radius: 1},
		{Q0: 1, WarnThreshold: 0, CutThreshold: 1, ExchangePeriod: 1, Radius: 1},
		{Q0: 1, WarnThreshold: 1, CutThreshold: 0, ExchangePeriod: 1, Radius: 1},
		{Q0: 1, WarnThreshold: 1, CutThreshold: 1, ExchangePeriod: 0, Radius: 1},
		{Q0: 1, WarnThreshold: 1, CutThreshold: 1, ExchangePeriod: 1, Radius: 0},
		{Q0: 1, WarnThreshold: 1, CutThreshold: 1, ExchangePeriod: 1, Radius: 3},
	}
	for i, cfg := range bad {
		if _, err := New(overlay.New(mustRing(t)), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Negative and NaN values: each must be rejected with its field named.
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Q0", func(c *Config) { c.Q0 = nan }},
		{"WarnThreshold", func(c *Config) { c.WarnThreshold = nan }},
		{"CutThreshold", func(c *Config) { c.CutThreshold = nan }},
		{"ExchangePeriod", func(c *Config) { c.ExchangePeriod = nan }},
		{"ReportRateLimit", func(c *Config) { c.ReportRateLimit = -1 }},
		{"ReportRateLimit", func(c *Config) { c.ReportRateLimit = nan }},
		{"StaleAfter", func(c *Config) { c.StaleAfter = -1 }},
		{"StaleAfter", func(c *Config) { c.StaleAfter = nan }},
	} {
		cfg := DefaultConfig()
		tc.set(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: bad value accepted: %+v", tc.field, cfg)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error does not name the field: %v", tc.field, err)
		}
	}
	// Event-driven mode does not require an exchange period.
	ok := Config{Q0: 1, WarnThreshold: 1, CutThreshold: 1, EventDriven: true, Radius: 1}
	if _, err := New(overlay.New(mustRing(t)), ok); err != nil {
		t.Errorf("event-driven config rejected: %v", err)
	}
}

func mustRing(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.RingLattice(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHigherCTRequiresLargerIndicator(t *testing.T) {
	// An attacker whose indicator lands at ~6 is cut at CT=5 but
	// escapes at CT=7 — the Fig 13 false-positive mechanism.
	for _, tc := range []struct {
		ct      float64
		wantCut bool
	}{{5, true}, {7, false}} {
		ov := starOverlay(t, 3)
		cfg := DefaultConfig()
		cfg.CutThreshold = tc.ct
		p, err := New(ov, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.SetBad(0, CheatNone)
		exchangeAll(p, ov, 0)
		loadFig2(t, ov, 600, 10, 10, 10) // g = 6
		p.EvaluateMinute(60)
		cut := !ov.Connected(1, 0)
		if cut != tc.wantCut {
			t.Errorf("CT=%v: cut=%v, want %v", tc.ct, cut, tc.wantCut)
		}
	}
}

func BenchmarkEvaluateMinuteStar(b *testing.B) {
	bld := topology.NewBuilder(21)
	for i := 1; i <= 20; i++ {
		if err := bld.AddEdge(0, topology.NodeID(i)); err != nil {
			b.Fatal(err)
		}
	}
	ov := overlay.New(bld.Build())
	p, err := New(ov, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for v := 0; v < 21; v++ {
		p.exchangeFrom(PeerID(v), 0)
	}
	for i := 1; i <= 20; i++ {
		_ = ov.AddTrafficBetween(0, PeerID(i), 600)
	}
	ov.RollMinute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EvaluateMinute(float64(i) * 60)
	}
}

func TestComputeIndicatorsPure(t *testing.T) {
	// Fig 2 numbers, expressed directly through the pure helper: the
	// observer's own edge plus two honest reports.
	own := Report{Out: 300, In: 1200 + 400 + 500} // q1=300 issued=1200
	others := []Report{
		{Out: 400, In: 1200 + 300 + 500},
		{Out: 500, In: 1200 + 300 + 400},
	}
	g, s, k := ComputeIndicators(100, own, others, 0)
	if k != 3 {
		t.Fatalf("k = %d", k)
	}
	if math.Abs(g-12) > 1e-12 || math.Abs(s-12) > 1e-12 {
		t.Fatalf("g=%v s=%v, want 12/12", g, s)
	}
}

func TestComputeIndicatorsMissingSeats(t *testing.T) {
	// A missing member keeps its seat in k but contributes zero: g
	// inflates relative to the fully-reported case.
	own := Report{Out: 0, In: 4000}
	full := []Report{{Out: 3000, In: 1000}, {Out: 1000, In: 3000}}
	gFull, _, kFull := ComputeIndicators(100, own, full, 0)
	// Losing the heavy-Out report (the member that fed the suspect its
	// traffic) removes the exculpatory evidence.
	gMissing, _, kMissing := ComputeIndicators(100, own, full[1:], 1)
	if kFull != kMissing {
		t.Fatalf("k changed: %d vs %d", kFull, kMissing)
	}
	if gMissing <= gFull {
		t.Fatalf("missing report must inflate g: %v vs %v", gMissing, gFull)
	}
}

func TestComputeIndicatorsSoloObserver(t *testing.T) {
	// Degenerate buddy group (k=1): g collapses to In/q0.
	g, s, k := ComputeIndicators(10, Report{Out: 5, In: 200}, nil, 0)
	if k != 1 {
		t.Fatalf("k = %d", k)
	}
	if g != 20 || s != 20 {
		t.Fatalf("g=%v s=%v, want 20/20", g, s)
	}
}

// TestNoBlacklistByDefault: DD-POLICE remembers no conviction (§5: "No
// mechanism can prevent the DDoS Agent from joining the system again"),
// so a cut agent that rejoins and stays quiet keeps its new edges.
func TestNoBlacklistByDefault(t *testing.T) {
	ov := starOverlay(t, 3)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(0, CheatNone)
	exchangeAll(p, ov, 0)
	loadFig2(t, ov, 3000, 10, 10, 10)
	p.EvaluateMinute(60)
	ov.SetOnline(0, false)
	ov.SetOnline(0, true)
	p.EvaluateMinute(120) // no traffic this minute: quiet rejoiner survives
	if !ov.Connected(1, 0) {
		t.Fatal("paper-default DD-POLICE must not remember old convictions")
	}
}

// TestBuddyGroupFigure7 reproduces the Figure 7 construction: peer j's
// buddy group BG1-j = {A, B, C, D} is exactly the set of j's direct
// neighbors, and every member learns it from j's list exchange.
func TestBuddyGroupFigure7(t *testing.T) {
	// j=0; A..D = 1..4.
	ov := starOverlay(t, 4)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exchangeAll(p, ov, 0)
	for member := PeerID(1); member <= 4; member++ {
		if _, _, _, ok := p.Indicators(member, 0, 1); !ok {
			t.Fatalf("member %d has no view of BG1-j", member)
		}
		got := p.round.Asked()
		// The view excludes the member itself: the other three peers.
		if len(got) != 3 {
			t.Fatalf("member %d sees %d buddies, want 3", member, len(got))
		}
		for _, m := range got {
			if m == member || m == 0 || m < 1 || m > 4 {
				t.Fatalf("member %d sees bogus buddy %d", member, m)
			}
		}
	}
}

// TestProtocolWalkthroughFigure8 plays the §3.4 example: peer j floods;
// neighbor h (and the rest of BG1-j) exchange Neighbor_Traffic, conclude
// j issued the volume, and all disconnect from j — while peer m, who
// forwarded j's queries onward and is itself questioned by BG1-m,
// is exonerated by j's (honest) report.
func TestProtocolWalkthroughFigure8(t *testing.T) {
	// Topology: j=0 with neighbors h=1, r=2, m=3; m additionally has
	// neighbors x=4, y=5 (forming BG1-m = {0, 4, 5}).
	b := topology.NewBuilder(6)
	for _, e := range [][2]topology.NodeID{{0, 1}, {0, 2}, {0, 3}, {3, 4}, {3, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ov := overlay.New(b.Build())
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetBad(0, CheatNone)
	exchangeAll(p, ov, 0)

	// j issues 3000/min, spread to its 3 neighbors; m forwards its
	// 1000 to x and y.
	addTraffic(t, ov, 0, 1, 1000)
	addTraffic(t, ov, 0, 2, 1000)
	addTraffic(t, ov, 0, 3, 1000)
	addTraffic(t, ov, 3, 4, 1000)
	addTraffic(t, ov, 3, 5, 1000)
	ov.RollMinute()

	p.EvaluateMinute(60)
	// All of BG1-j disconnected from j.
	for _, member := range []PeerID{1, 2, 3} {
		if ov.Connected(member, 0) {
			t.Errorf("BG1-j member %d still connected to j", member)
		}
	}
	// m keeps its other connections: BG1-m exonerated it.
	if !ov.Connected(3, 4) || !ov.Connected(3, 5) {
		t.Fatal("forwarder m was wrongly cut by its own buddy group")
	}
	if p.FalseNegatives() != 0 {
		t.Fatalf("false negatives = %d", p.FalseNegatives())
	}
	if p.FalsePositives([]PeerID{0}) != 0 {
		t.Fatal("j was never detected")
	}
}
