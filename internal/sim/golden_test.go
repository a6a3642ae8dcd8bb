package sim

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden/*.sha256 from this run instead of comparing against them")

// goldenConfig is the base configuration of the pinned runs: a
// police+attack run (so the per-edge detection state is actually
// exercised) at 2,000 peers with eight agents, the paper's <=1% regime.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 2000
	cfg.DurationSec = 360
	cfg.AttackStartSec = 60
	cfg.ChurnEnabled = false
	cfg.PoliceEnabled = true
	cfg.NumAgents = 8
	cfg.Catalog.NumObjects = 2000
	return cfg
}

// goldenScenarios enumerates the pinned runs. Every scenario keeps
// DD-POLICE on and adds one overlay-mutation source on top of the
// attack: none (detection cuts are the mutation), continuous churn, a
// timed partition, and a scheduled capacity brownout with the overload
// plane engaged. The first four run at Radius 1 and were pinned from the
// commit before the map-keyed police state was deleted; radius2 runs
// DD-POLICE-2 under churn with congestion-driven control loss, where a
// relayed list can stand in for a lost direct push; fairshare is the
// churn run on the fair-share budget, pinned from the commit before the
// cached-vs-uncached sibling matrix was deleted.
func goldenScenarios() []struct {
	name string
	cfg  func() Config
} {
	return []struct {
		name string
		cfg  func() Config
	}{
		{"cuts", goldenConfig},
		{"churn", func() Config {
			cfg := goldenConfig()
			cfg.ChurnEnabled = true
			return cfg
		}},
		{"partition", func() Config {
			cfg := goldenConfig()
			cfg.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{
				{StartSec: 90, EndSec: 240, Peers: []int{1, 2, 3, 4, 5, 6, 7, 8}},
			}}
			return cfg
		}},
		{"brownout", func() Config {
			cfg := goldenConfig()
			cfg.Overload = &overload.SimPlane{}
			cfg.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
				{StartSec: 120, EndSec: 240, Peers: []int{10, 11, 12}, Factor: 0.25},
			}}
			return cfg
		}},
		{"radius2", func() Config {
			cfg := goldenConfig()
			cfg.ChurnEnabled = true
			cfg.Police.Radius = 2
			return cfg
		}},
		{"fairshare", func() Config {
			cfg := goldenConfig()
			cfg.ChurnEnabled = true
			cfg.FairShareDrop = true
			return cfg
		}},
	}
}

// goldenRun executes cfg and renders the run as the text pinned under
// testdata/golden: one "<stream> <sha256>" line per observable stream,
// in the order a mismatch is reported. The Result line covers every
// simulated statistic; Cache, Stages and Telemetry describe how the run
// executed, not what it simulated, and are left out.
func goldenRun(t *testing.T, cfg Config) (digests string, jrnl []byte) {
	t.Helper()
	res, jrnl := runInstrumented(t, cfg)
	r := *stripCache(res)
	r.Stages, r.Telemetry = nil, nil
	resJSON, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("result %x\njournal %x\n", sha256.Sum256(resJSON), sha256.Sum256(jrnl)), jrnl
}

func goldenPath(scenario string) string {
	return filepath.Join("testdata", "golden", scenario+".sha256")
}

// checkGolden compares got against testdata/golden/<scenario>.sha256
// and names the first stream that differs; with -update it rewrites the
// file instead.
func checkGolden(t *testing.T, scenario, got string) {
	t.Helper()
	path := goldenPath(scenario)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: no pinned digests (%v); `make golden` pins them", scenario, err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		stream, sum, _ := strings.Cut(line, " ")
		want[stream] = sum
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		stream, sum, _ := strings.Cut(line, " ")
		if want[stream] != sum {
			t.Fatalf("%s: the %s stream is the first to differ from %s\ngot:\n%swant:\n%s"+
				"if the change is intended, `make golden` re-pins it",
				scenario, stream, path, got, buf)
		}
	}
	if string(buf) != got {
		t.Fatalf("%s: %s pins a stream the run no longer produces\ngot:\n%swant:\n%s", scenario, path, got, buf)
	}
}

// TestGoldenDigests checks the one engine against pinned artifacts:
// each scenario's Result and journal streams must hash to
// the digests committed under testdata/golden, so any change that
// reorders an iteration, drops an update or shifts a random draw
// anywhere in the tick shows up here as the first stream it reaches.
func TestGoldenDigests(t *testing.T) {
	t.Parallel()
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			got, jr := goldenRun(t, sc.cfg())
			// Vacuousness guards: the pinned streams must contain real
			// detection traffic, and the Radius-2 run real relays.
			switch sc.name {
			case "cuts":
				if cuts := journalEvents(t, jr, journal.TypeCut); len(cuts) == 0 {
					t.Fatalf("%s: no cut events journaled — digest pins silence", sc.name)
				}
			case "radius2":
				// A second run pins determinism: the relay order is the
				// static neighbour order, never a map range.
				if again, _ := goldenRun(t, sc.cfg()); again != got {
					t.Fatalf("%s: two runs of one seed differ:\n%s%s", sc.name, got, again)
				}
				// "churn" is this scenario at Radius 1: equal digests
				// would mean no list was ever relayed.
				if r1, err := os.ReadFile(goldenPath("churn")); err == nil && string(r1) == got {
					t.Fatalf("%s: digests equal the Radius-1 churn run's — nothing was relayed", sc.name)
				}
			}
			checkGolden(t, sc.name, got)
		})
	}
}
