package sim

import (
	"fmt"
	"strings"
	"testing"

	"ddpolice/internal/faults"
)

func faultCounter(r *Result, name string) uint64 {
	if r.Telemetry == nil {
		return 0
	}
	for _, c := range r.Telemetry.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func TestValidateFaults(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Faults = &faults.Schedule{ControlLoss: -0.1} },
		func(c *Config) { c.Faults = &faults.Schedule{ControlLoss: 1.0} },
		func(c *Config) {
			c.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{
				{StartSec: 60, EndSec: 60, Peers: []int{1, 2}},
			}}
		},
		func(c *Config) {
			c.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{
				{StartSec: -1, EndSec: 60, Peers: []int{1, 2}},
			}}
		},
		func(c *Config) {
			c.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{
				{StartSec: 0, EndSec: 60},
			}}
		},
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad faults config %d accepted", i)
		}
	}
}

// TestValidateFaultPeersInRange: a scheduled fault naming a peer id
// outside [0, NumPeers) indexes per-peer arrays mid-run, so Validate
// must refuse it — naming the event and the id — on both lists and both
// sides of the range, and accept the two boundary ids.
func TestValidateFaultPeersInRange(t *testing.T) {
	partition := func(event, id int) *faults.Schedule {
		ps := make([]faults.PartitionEvent, event+1)
		for i := range ps {
			ps[i] = faults.PartitionEvent{StartSec: 60, EndSec: 120, Peers: []int{1}}
		}
		ps[event].Peers = []int{2, id}
		return &faults.Schedule{Partitions: ps}
	}
	overload := func(event, id int) *faults.Schedule {
		oes := make([]faults.OverloadEvent, event+1)
		for i := range oes {
			oes[i] = faults.OverloadEvent{StartSec: 60, EndSec: 120, Peers: []int{1}, Factor: 0.5}
		}
		oes[event].Peers = []int{2, id}
		return &faults.Schedule{Overloads: oes}
	}
	cfg := smallConfig()
	n := cfg.NumPeers
	for _, tc := range []struct {
		name   string
		faults *faults.Schedule
		want   string // "" = valid
	}{
		{"partition id = NumPeers", partition(1, n), fmt.Sprintf("Faults.Partitions[1] names peer %d,", n)},
		{"partition id negative", partition(0, -1), "Faults.Partitions[0] names peer -1,"},
		{"overload id = NumPeers", overload(0, n), fmt.Sprintf("Faults.Overloads[0] names peer %d,", n)},
		{"overload id negative", overload(2, -7), "Faults.Overloads[2] names peer -7,"},
		{"partition boundary ids", &faults.Schedule{Partitions: []faults.PartitionEvent{
			{StartSec: 60, EndSec: 120, Peers: []int{0, n - 1}}}}, ""},
		{"overload boundary ids", &faults.Schedule{Overloads: []faults.OverloadEvent{
			{StartSec: 60, EndSec: 120, Peers: []int{0, n - 1}, Factor: 0.5}}}, ""},
	} {
		cfg.Faults = tc.faults
		err := cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want valid", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestPartitionApplyAndHeal: a timed partition severs exactly the
// boundary edges of its member set, the heal restores all of them, and
// none of it is billed to the defense's CutEdges.
func TestPartitionApplyAndHeal(t *testing.T) {
	cfg := smallConfig()
	cfg.Telemetry = true
	cfg.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{
		{StartSec: 60, EndSec: 180, Peers: []int{1, 2, 3, 4, 5}},
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := faultCounter(r, "sim.partition_cut_edges")
	healed := faultCounter(r, "sim.partition_healed_edges")
	if cut == 0 {
		t.Fatal("partition cut no edges")
	}
	if healed != cut {
		t.Errorf("healed %d of %d partition edges", healed, cut)
	}
	if r.CutEdges != 0 {
		t.Errorf("CutEdges = %d, want 0 (no police, partition healed)", r.CutEdges)
	}
}

// TestUnhealedPartitionNotBilledAsDefenseCuts: a partition that outlives
// the run leaves edges severed, but those are injected faults and must
// not appear in the defense's cut count.
func TestUnhealedPartitionNotBilledAsDefenseCuts(t *testing.T) {
	cfg := smallConfig()
	cfg.Telemetry = true
	cfg.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{
		{StartSec: 60, EndSec: cfg.DurationSec + 100, Peers: []int{1, 2, 3}},
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faultCounter(r, "sim.partition_cut_edges") == 0 {
		t.Fatal("partition cut no edges")
	}
	if faultCounter(r, "sim.partition_healed_edges") != 0 {
		t.Error("heal ran for a partition past the horizon")
	}
	if r.CutEdges != 0 {
		t.Errorf("CutEdges = %d, want 0 (all cuts were injected)", r.CutEdges)
	}
}

// TestCrashChurnSkipsLeaveNotifications: with every departure a crash,
// the run still completes and records the crash count; the defense keeps
// working off timeouts rather than leave notifications.
func TestCrashChurnSkipsLeaveNotifications(t *testing.T) {
	cfg := smallConfig()
	cfg.Telemetry = true
	cfg.ChurnEnabled = true
	cfg.Churn.MeanLifetime = 60
	cfg.Churn.StddevLifetime = 10
	cfg.Churn.MeanOffline = 60
	cfg.Churn.CrashFraction = 1
	cfg.PoliceEnabled = true
	cfg.NumAgents = 5
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := faultCounter(r, "sim.crash_departures"); got == 0 {
		t.Error("no crash departures recorded under CrashFraction=1")
	}
	if r.OverallSuccess <= 0 {
		t.Errorf("system collapsed entirely: success = %v", r.OverallSuccess)
	}
}

// TestFaultsDeterminism: the full fault plane (control loss, partition,
// crash churn) is driven by the run's seeded RNG streams, so identical
// configs give identical results.
func TestFaultsDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.ChurnEnabled = true
	cfg.Churn.CrashFraction = 0.5
	cfg.PoliceEnabled = true
	cfg.NumAgents = 5
	cfg.Faults = &faults.Schedule{
		ControlLoss: 0.2,
		Partitions: []faults.PartitionEvent{
			{StartSec: 90, EndSec: 150, Peers: []int{10, 11, 12}},
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OverallSuccess != b.OverallSuccess || a.QueriesIssued != b.QueriesIssued ||
		a.Detections != b.Detections || a.CutEdges != b.CutEdges {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
