package sim

import (
	"bytes"
	"strings"
	"testing"

	"ddpolice/internal/telemetry"
)

func TestRunTelemetryStages(t *testing.T) {
	cfg := smallConfig()
	cfg.NumPeers = 200
	cfg.DurationSec = 120
	cfg.Catalog.NumObjects = 500
	cfg.ChurnEnabled = true
	cfg.NumAgents = 2
	cfg.PoliceEnabled = true
	cfg.Telemetry = true
	cfg.Registry = telemetry.New()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) != len(StageNames) {
		t.Fatalf("stages = %d, want %d", len(r.Stages), len(StageNames))
	}
	// The stage timers live in the caller's registry — so on /metrics —
	// and Result.Stages is those same timers read back in StageNames
	// order.
	var prom bytes.Buffer
	if err := cfg.Registry.Snapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for i, st := range r.Stages {
		if st.Name != StageNames[i] {
			t.Errorf("stage %d = %q, want %q", i, st.Name, StageNames[i])
		}
		tm := cfg.Registry.Timer("sim.stage." + st.Name)
		if tm.Total() != st.Total || tm.Count() != st.Count {
			t.Errorf("stage %q = %v/%d, registry timer %v/%d", st.Name, st.Total, st.Count, tm.Total(), tm.Count())
		}
		if want := "sim_stage_" + st.Name + "_seconds_sum "; !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, prom.String())
		}
	}
	byName := map[string]int{}
	for i, st := range r.Stages {
		byName[st.Name] = i
	}
	// Each stage is timed exactly where the tick runs it: once per tick
	// for churn, query generation and the good-peer floods; once per
	// attack half on each attacking tick; once per tick plus once per
	// minute evaluation for the police; once per minute close for the
	// metrics; never for the serial run's proposal phase.
	ticks := cfg.DurationSec
	minutes := ticks / 60
	attacking := ticks - cfg.AttackStartSec
	for name, want := range map[string]int{
		"churn": ticks, "querygen": ticks, "flood": ticks,
		"attack": 2 * attacking, "police": ticks + minutes,
		"metrics": minutes, "proposal": 0,
	} {
		if got := r.Stages[byName[name]].Count; got != uint64(want) {
			t.Errorf("stage %q timed %d intervals, want %d", name, got, want)
		}
	}
	if r.Telemetry == nil {
		t.Fatal("no telemetry snapshot despite cfg.Telemetry")
	}
	counters := map[string]uint64{}
	for _, c := range r.Telemetry.Counters {
		counters[c.Name] = c.Value
	}
	if counters["flood.floods"] == 0 || counters["flood.edges_traversed"] == 0 {
		t.Errorf("flood engine counters empty: %v", counters)
	}
	if counters["flood.dup_suppressed"] == 0 {
		t.Errorf("no duplicate suppressions recorded on a cyclic overlay: %v", counters)
	}
}

func TestRunTelemetryDisabledByDefault(t *testing.T) {
	cfg := smallConfig()
	cfg.NumPeers = 200
	cfg.DurationSec = 60
	cfg.Catalog.NumObjects = 500
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stages != nil || r.Telemetry != nil {
		t.Fatal("telemetry present without cfg.Telemetry")
	}
	// A registry alone records instruments but times no stage.
	cfg.Registry = telemetry.New()
	if r, err = Run(cfg); err != nil {
		t.Fatal(err)
	}
	if r.Stages != nil || len(r.Telemetry.Timers) != 0 {
		t.Fatalf("stage timers without cfg.Telemetry: Stages %v, timers %v", r.Stages, r.Telemetry.Timers)
	}
	if len(r.Telemetry.Counters) == 0 {
		t.Fatal("a supplied registry recorded no counters")
	}
}
