package attack

import (
	"math"
	"testing"

	"ddpolice/internal/flood"
	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

func baOverlay(t *testing.T, n int, seed uint64) *overlay.Overlay {
	t.Helper()
	g, err := topology.BarabasiAlbert(rng.New(seed), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	return overlay.New(g)
}

func TestFleetSelection(t *testing.T) {
	f, err := NewFleet(50, 500, DefaultAgentConfig(), DefaultLinkModel(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 50 {
		t.Fatalf("size = %d", f.Size())
	}
	seen := map[PeerID]bool{}
	for _, a := range f.Agents() {
		if a.ID < 0 || int(a.ID) >= 500 {
			t.Fatalf("agent id %d out of range", a.ID)
		}
		if seen[a.ID] {
			t.Fatalf("duplicate agent %d", a.ID)
		}
		seen[a.ID] = true
	}
	if len(f.IDs()) != 50 {
		t.Fatal("IDs length mismatch")
	}
}

func TestFleetDeterministic(t *testing.T) {
	a, err := NewFleet(20, 300, DefaultAgentConfig(), DefaultLinkModel(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFleet(20, 300, DefaultAgentConfig(), DefaultLinkModel(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Agents() {
		if a.Agents()[i] != b.Agents()[i] {
			t.Fatal("same seed produced different fleets")
		}
	}
}

func TestLinkCapacityCapsRate(t *testing.T) {
	links := LinkModel{SlowFraction: 1, SlowCapMinPerMin: 2000, SlowCapPerMin: 7500, FastCapPerMin: 75000}
	f, err := NewFleet(10, 100, DefaultAgentConfig(), links, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range f.Agents() {
		if a.EffectivePerMin < 2000 || a.EffectivePerMin > 7500 {
			t.Fatalf("slow-link agent rate = %v, want in [2000, 7500] (Q_d = min cap)", a.EffectivePerMin)
		}
	}
	// Without a minimum, the slow cap is exact.
	links.SlowCapMinPerMin = 0
	f, err = NewFleet(10, 100, DefaultAgentConfig(), links, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range f.Agents() {
		if a.EffectivePerMin != 7500 {
			t.Fatalf("fixed slow cap = %v, want 7500", a.EffectivePerMin)
		}
	}
	links.SlowFraction = 0
	f, err = NewFleet(10, 100, DefaultAgentConfig(), links, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range f.Agents() {
		if a.EffectivePerMin != 20000 {
			t.Fatalf("fast-link agent rate = %v, want 20000", a.EffectivePerMin)
		}
	}
}

func TestFleetErrors(t *testing.T) {
	if _, err := NewFleet(-1, 10, DefaultAgentConfig(), DefaultLinkModel(), rng.New(1)); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := NewFleet(11, 10, DefaultAgentConfig(), DefaultLinkModel(), rng.New(1)); err == nil {
		t.Error("count > peers accepted")
	}
	cfg := DefaultAgentConfig()
	cfg.RatePerMin = 0
	if _, err := NewFleet(1, 10, cfg, DefaultLinkModel(), rng.New(1)); err == nil {
		t.Error("zero rate accepted")
	}
	cfg = DefaultAgentConfig()
	cfg.TTL = 0
	if _, err := NewFleet(1, 10, cfg, DefaultLinkModel(), rng.New(1)); err == nil {
		t.Error("zero TTL accepted")
	}
}

func TestTickEmitsExpectedVolume(t *testing.T) {
	ov := baOverlay(t, 300, 4)
	ov.CountTraffic()
	eng := flood.NewEngine(ov)
	budget := flood.NewBudget(300, 1e12)
	links := LinkModel{SlowFraction: 0, FastCapPerMin: 75000}
	// A single agent, so that its source-edge counters contain only its
	// own generation (not traffic forwarded for other agents).
	f, err := NewFleet(1, 300, DefaultAgentConfig(), links, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res := f.TickSliced(eng, ov, budget, 60, 1, 0) // one full minute
	// The agent emits 20k on its access link and flooding multiplies
	// messages far beyond that.
	if res.QueryMessages < 100000 {
		t.Fatalf("query messages = %v, want >> 20000", res.QueryMessages)
	}
	// The monitoring counters must see exactly the generation rate on
	// the source edges: with one agent and no other traffic, the
	// agent's total counted out-flow is Q_d.
	if as := f.Agents(); len(as) != 1 || as[0].EffectivePerMin != 20000 || as[0].cfg.Mode != ModeSpray {
		t.Fatalf("agents = %+v", as)
	}
	ov.RollMinute()
	for _, a := range f.Agents() {
		var out float64
		for k := range ov.Graph().Neighbors(a.ID) {
			out += ov.LastMinute(ov.EdgeID(a.ID, k))
		}
		if math.Abs(out-20000) > 1e-6 {
			t.Fatalf("agent %d counted emission %v, want 20000", a.ID, out)
		}
	}
}

func TestSprayVsBroadcastSignature(t *testing.T) {
	// Figure 1's point: spraying distinct streams per neighbor divides
	// the per-edge Out_query signature by the degree, while broadcast
	// puts the full generation rate on every source edge.
	sourceEdges := func(mode Mode) (min, max float64) {
		ov := baOverlay(t, 300, 6)
		ov.CountTraffic()
		cfg := DefaultAgentConfig()
		cfg.Mode = mode
		cfg.TTL = 1 // isolates the source-edge signature
		links := LinkModel{SlowFraction: 0, FastCapPerMin: 75000}
		f, err := NewFleet(1, 300, cfg, links, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		f.TickSliced(flood.NewEngine(ov), ov, flood.NewBudget(300, 1e12), 60, 1, 0) // one full minute
		ov.RollMinute()
		a := f.Agents()[0]
		min = math.Inf(1)
		for k := range ov.Graph().Neighbors(a.ID) {
			v := ov.LastMinute(ov.EdgeID(a.ID, k))
			min, max = math.Min(min, v), math.Max(max, v)
		}
		return min, max
	}
	_, spray := sourceEdges(ModeSpray)
	lo, broadcast := sourceEdges(ModeBroadcast)
	if math.Abs(lo-20000) > 1 || math.Abs(broadcast-20000) > 1 {
		t.Fatalf("broadcast per-edge signature in [%v, %v], want 20000 on every source edge", lo, broadcast)
	}
	if spray >= broadcast/2 {
		t.Fatalf("spray signature %v not clearly below broadcast %v", spray, broadcast)
	}
}

func TestOfflineAgentEmitsNothing(t *testing.T) {
	ov := baOverlay(t, 100, 8)
	eng := flood.NewEngine(ov)
	budget := flood.NewBudget(100, 1e12)
	f, err := NewFleet(1, 100, DefaultAgentConfig(), DefaultLinkModel(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	ov.SetOnline(f.Agents()[0].ID, false)
	if res := f.TickSliced(eng, ov, budget, 60, 1, 0); res.QueryMessages != 0 {
		t.Fatalf("offline agent emitted %v messages", res.QueryMessages)
	}
}

func TestZeroAgents(t *testing.T) {
	ov := baOverlay(t, 100, 10)
	eng := flood.NewEngine(ov)
	f, err := NewFleet(0, 100, DefaultAgentConfig(), DefaultLinkModel(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if res := f.TickSliced(eng, ov, flood.NewBudget(100, 1e12), 60, 1, 0); res.QueryMessages != 0 {
		t.Fatal("empty fleet emitted traffic")
	}
}
