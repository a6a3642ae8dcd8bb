package sim

import (
	"bytes"
	"testing"

	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
)

// controlDelivery is the run's control-plane delivery rate: DD-POLICE
// messages that survived the loss model over messages sent.
func controlDelivery(r *Result) float64 {
	sent := float64(r.Overhead.Total())
	if sent == 0 {
		return 1
	}
	return 1 - float64(r.ControlLost)/sent
}

func journalEvents(t *testing.T, jrnl []byte, typ string) []journal.Event {
	t.Helper()
	evs, err := journal.ReadNDJSON(bytes.NewReader(jrnl))
	if err != nil {
		t.Fatal(err)
	}
	var out []journal.Event
	for _, e := range evs {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

func TestValidateOverload(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) {
			c.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
				{StartSec: 60, EndSec: 60, Peers: []int{1}, Factor: 0.5},
			}}
		},
		func(c *Config) {
			c.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
				{StartSec: 0, EndSec: 60, Factor: 0.5},
			}}
		},
		func(c *Config) {
			c.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
				{StartSec: 0, EndSec: 60, Peers: []int{1}, Factor: 1},
			}}
		},
		func(c *Config) { c.Overload = &overload.SimPlane{ControlReserveFrac: 1.5} },
		func(c *Config) { c.Overload = &overload.SimPlane{ControlLossCap: 1} },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad overload config %d accepted", i)
		}
	}
}

// TestOverloadPlaneControlDelivery is the simulator half of the PR's
// acceptance test: under a saturating flood (agents at 20k queries/min
// against 1k/min peer capacity), the overload plane's control reserve
// keeps DD-POLICE delivery >= 95% and detection's time-to-cut bounded,
// while the same attack without the plane loses far more control
// traffic to congestion.
func TestOverloadPlaneControlDelivery(t *testing.T) {
	cfg := smallConfig()
	cfg.DurationSec = 600
	cfg.NumAgents = 10
	cfg.PoliceEnabled = true

	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The degraded threshold is over the *global* fluid drop fraction;
	// 10 attacked neighborhoods among 1000 peers dilute to ~0.22 during
	// the saturated minute, so the default node-local 0.5 is lowered.
	cfg.Overload = &overload.SimPlane{DegradedLossThreshold: 0.2}
	on, jrnl := runInstrumented(t, cfg)

	dOn, dOff := controlDelivery(on), controlDelivery(off)
	if dOn < 0.95 {
		t.Errorf("control delivery with overload plane = %.3f, want >= 0.95", dOn)
	}
	if dOn <= dOff {
		t.Errorf("plane did not help: delivery %.3f (on) vs %.3f (off)", dOn, dOff)
	}
	if on.Detections == 0 {
		t.Fatal("no detections with the overload plane enabled")
	}

	// Bounded time-to-cut: the first cut lands within 7 minutes of
	// attack start even though the attacked nodes run saturated.
	cuts := journalEvents(t, jrnl, journal.TypeCut)
	if len(cuts) == 0 {
		t.Fatal("no cut events journaled")
	}
	first := cuts[0].T
	for _, c := range cuts[1:] {
		if c.T < first {
			first = c.T
		}
	}
	bound := float64(cfg.AttackStartSec) + 7*60
	if first > bound {
		t.Errorf("first cut at t=%vs, want <= %vs", first, bound)
	}

	// Saturation is visible in the journal: query-plane shed markers
	// and at least one degraded-minute transition.
	if len(journalEvents(t, jrnl, journal.TypeShed)) == 0 {
		t.Error("no shed events journaled under a 20x flood")
	}
	if len(journalEvents(t, jrnl, journal.TypeDegraded)) == 0 {
		t.Error("no degraded transitions journaled under a 20x flood")
	}
}

// TestOverloadPlaneNilKeepsHistoricalStream: with Config.Overload nil
// the journal must contain none of the overload event types — the
// stream is exactly the historical (pre-overload-plane) one.
func TestOverloadPlaneNilKeepsHistoricalStream(t *testing.T) {
	cfg := smallConfig()
	cfg.DurationSec = 600
	cfg.NumAgents = 10
	cfg.PoliceEnabled = true
	_, jrnl := runInstrumented(t, cfg)
	for _, typ := range []string{
		journal.TypeShed, journal.TypeDegraded,
		journal.TypeQuarantine, journal.TypeOverload,
	} {
		if got := journalEvents(t, jrnl, typ); len(got) != 0 {
			t.Errorf("nil overload plane journaled %d %q events, want 0", len(got), typ)
		}
	}
}

// TestOverloadPlaneDeterministic: the overload plane and scheduled
// brownouts introduce no nondeterminism — identical seeds produce
// equal Results and byte-identical journals.
func TestOverloadPlaneDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAgents = 5
	cfg.PoliceEnabled = true
	cfg.Overload = &overload.SimPlane{}
	cfg.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
		{StartSec: 120, EndSec: 240, Peers: []int{10, 11, 12}, Factor: 0.25},
	}}
	a, jrA := runInstrumented(t, cfg)
	b, jrB := runInstrumented(t, cfg)
	assertSameRun(t, "overload plane", "first", "second", a, b, jrA, jrB)
}

// TestBrownoutEvents: a scheduled capacity brownout is applied and
// restored at its virtual-time boundaries, counted in telemetry, and
// journaled as a start/end pair.
func TestBrownoutEvents(t *testing.T) {
	cfg := smallConfig()
	cfg.Telemetry = true
	cfg.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
		{StartSec: 60, EndSec: 180, Peers: []int{1, 2, 3, 4, 5}, Factor: 0},
	}}
	var res *Result
	var jrnl []byte
	res, jrnl = runInstrumented(t, cfg)
	if got := faultCounter(res, "sim.overload_brownouts"); got != 1 {
		t.Errorf("sim.overload_brownouts = %d, want 1", got)
	}
	evs := journalEvents(t, jrnl, journal.TypeOverload)
	if len(evs) != 2 {
		t.Fatalf("overload journal events = %d, want start+end", len(evs))
	}
	if evs[0].Detail != "start" || evs[0].T != 60 || evs[0].K != 5 {
		t.Errorf("start event = %+v", evs[0])
	}
	if evs[1].Detail != "end" || evs[1].T != 180 {
		t.Errorf("end event = %+v", evs[1])
	}
}
