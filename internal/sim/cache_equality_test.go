package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ddpolice/internal/faults"
	"ddpolice/internal/flood"
)

// runInstrumented executes one config with the detection journal
// captured.
func runInstrumented(t *testing.T, cfg Config) (res *Result, jrnl []byte) {
	t.Helper()
	res, jrnl, err := journaled(Run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, jrnl
}

// stripCache returns a copy of res with the cache-effectiveness
// counters zeroed. Result.Cache is the one field the determinism
// contract (DESIGN.md §13) exempts: hit/build/prewarm tallies
// legitimately differ between cached and uncached runs and between
// serial and sharded runs, while every other byte must match.
func stripCache(res *Result) *Result {
	c := *res
	c.Cache = flood.CacheStats{}
	return &c
}

// assertSameRun asserts the full acceptance property between two runs
// of the same seed: equal Results (modulo Cache) and byte-identical
// journals.
func assertSameRun(t *testing.T, scenario, labelA, labelB string, a, b *Result, jrA, jrB []byte) {
	t.Helper()
	if !reflect.DeepEqual(stripCache(a), stripCache(b)) {
		t.Fatalf("%s: Results diverged:\n%s: %+v\n%s: %+v", scenario, labelA, a, labelB, b)
	}
	if !bytes.Equal(jrA, jrB) {
		t.Fatalf("%s: journals diverged (%d vs %d bytes)", scenario, len(jrA), len(jrB))
	}
}

func equalityConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 800
	cfg.DurationSec = 360
	cfg.AttackStartSec = 60
	cfg.ChurnEnabled = false
	cfg.Catalog.NumObjects = 2000
	return cfg
}

// equalityScenarios enumerates every overlay-mutation regime the
// serial-vs-sharded suite runs; it leaves with Config.Shards.
func equalityScenarios() []struct {
	name string
	cfg  func() Config
} {
	return []struct {
		name string
		cfg  func() Config
	}{
		{"steady", equalityConfig},
		{"churn", func() Config {
			cfg := equalityConfig()
			cfg.ChurnEnabled = true
			return cfg
		}},
		{"partition", func() Config {
			cfg := equalityConfig()
			cfg.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{
				{StartSec: 90, EndSec: 210, Peers: []int{1, 2, 3, 4, 5, 6, 7, 8}},
			}}
			return cfg
		}},
		{"police", func() Config {
			cfg := equalityConfig()
			cfg.PoliceEnabled = true
			cfg.NumAgents = 4
			return cfg
		}},
		{"fairshare", func() Config {
			cfg := equalityConfig()
			cfg.ChurnEnabled = true
			cfg.FairShareDrop = true
			cfg.NumAgents = 4
			return cfg
		}},
	}
}

// TestCachedRunByteIdentical holds the uncached engine to the pinned
// artifacts, not to a sibling run: every golden scenario with the
// traversal cache off must hash to the digests TestGoldenDigests pins
// with it on. The scenarios cover detection cuts, churn (every
// SetOnline flushes the cache), partition apply and heal, a brownout,
// Radius-2 relays and the fair-share budget, whose per-edge shares are
// rebuilt on the mutation counter the cache keys on.
func TestCachedRunByteIdentical(t *testing.T) {
	if *updateGolden {
		t.Skip("the pins come from the cached run (TestGoldenDigests)")
	}
	t.Parallel()
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cfg := sc.cfg()
			cfg.DisableFloodCache = true
			got, _ := goldenRun(t, cfg)
			checkGolden(t, sc.name, got)
		})
	}
}

// TestShardedRunByteIdentical is the tentpole acceptance suite: for
// every mutation scenario, the sharded two-phase tick (parallel tree
// proposal + serial commit) at 2, 4, and 8 shards must be
// byte-identical to the serial engine — same Result (modulo Cache),
// same detection journal.
func TestShardedRunByteIdentical(t *testing.T) {
	for _, sc := range equalityScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			serial, jrS := runInstrumented(t, sc.cfg())
			for _, shards := range []int{2, 4, 8} {
				cfg := sc.cfg()
				cfg.Shards = shards
				sharded, jrP := runInstrumented(t, cfg)
				label := fmt.Sprintf("shards=%d", shards)
				assertSameRun(t, sc.name+"/"+label, "serial", label,
					serial, sharded, jrS, jrP)
			}
		})
	}
}

// TestShardedRunEngagesPrewarm guards the sharded suite against
// passing vacuously: a sharded steady run must actually route tree
// builds through the proposal phase.
func TestShardedRunEngagesPrewarm(t *testing.T) {
	cfg := equalityConfig()
	cfg.Shards = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Prewarmed == 0 {
		t.Fatalf("proposal phase never built a tree: %+v", res.Cache)
	}
	if res.Cache.Hits == 0 {
		t.Fatalf("prewarmed trees never replayed: %+v", res.Cache)
	}
}

// TestSteadyRunEngagesCache guards against the equality suite passing
// vacuously: in the steady-topology query loop (the regime of the
// benchmark's steady-2k workload) the cache must actually replay
// floods, visible in Result.Cache. No attack
// agents here on purpose — network-wide saturation clips floods, and
// clipped floods are exactly the ones replay must refuse (a clipped
// peer stops forwarding, so the cached tree would not be
// byte-identical).
func TestSteadyRunEngagesCache(t *testing.T) {
	res, err := Run(equalityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Hits == 0 || res.Cache.Builds == 0 {
		t.Fatalf("traversal cache never engaged: %+v", res.Cache)
	}
}

// TestAttackedRunReportsDiscards: under attack some recording floods
// clip, and the cache's own loss — recordings thrown away instead of
// stored — must be visible in Result.Cache.
func TestAttackedRunReportsDiscards(t *testing.T) {
	cfg := equalityConfig()
	cfg.NumAgents = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Discarded == 0 {
		t.Fatalf("no recording clipped under attack: %+v", res.Cache)
	}
}
