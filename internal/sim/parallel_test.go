package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ddpolice/internal/flood"
	"ddpolice/internal/journal"
	"ddpolice/internal/metrics"
	"ddpolice/internal/overlay"
	"ddpolice/internal/police"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/trace"
)

// TestMergeResultsLeavesInputsUnmodified is the regression test for the
// Averaged aliasing bug: the accumulator used to start from a shallow
// copy of rs[0], so averaging SuccessSeries element-wise mutated the
// first seed's underlying array in place.
func TestMergeResultsLeavesInputsUnmodified(t *testing.T) {
	first := &Result{
		SuccessSeries:  []float64{1, 1, 1},
		Minutes:        []metrics.MinuteStats{{Issued: 10, Succeeded: 10}},
		AgentIDs:       []overlay.PeerID{7},
		OverallSuccess: 1,
		Detections:     4,
	}
	second := &Result{
		SuccessSeries:  []float64{0, 0, 0},
		Minutes:        []metrics.MinuteStats{{Issued: 10, Succeeded: 0}},
		AgentIDs:       []overlay.PeerID{7},
		OverallSuccess: 0,
		Detections:     2,
	}
	wantSeries := append([]float64(nil), first.SuccessSeries...)
	wantMinutes := append([]metrics.MinuteStats(nil), first.Minutes...)

	merged := mergeResults([]*Result{first, second})

	if !reflect.DeepEqual(first.SuccessSeries, wantSeries) {
		t.Errorf("merge mutated rs[0].SuccessSeries: %v", first.SuccessSeries)
	}
	if !reflect.DeepEqual(first.Minutes, wantMinutes) {
		t.Errorf("merge mutated rs[0].Minutes: %v", first.Minutes)
	}
	if got := merged.SuccessSeries; !reflect.DeepEqual(got, []float64{0.5, 0.5, 0.5}) {
		t.Errorf("merged series = %v, want element-wise mean", got)
	}
	if merged.Detections != 3 {
		t.Errorf("merged detections = %d, want rounded mean 3", merged.Detections)
	}

	// The merged result must not alias any input storage either:
	// mutating it afterwards must leave the inputs intact.
	merged.SuccessSeries[0] = -1
	merged.Minutes[0].Issued = -1
	merged.AgentIDs[0] = -1
	if first.SuccessSeries[0] != 1 || first.Minutes[0].Issued != 10 || first.AgentIDs[0] != 7 {
		t.Error("merged result aliases the first input's slices")
	}
}

// TestMergeResultsAveragesOverhead is the regression test for the
// first-seed-only Overhead bug: "averaged" sweeps used to report the
// first seed's control-message counts as if they were the mean. The
// per-class counters must now be rounded means; P50/P95 and
// QueriesIssued were silently first-seed-only too.
func TestMergeResultsAveragesOverhead(t *testing.T) {
	first := &Result{
		Overhead:      police.Overhead{NeighborListMsgs: 100, NeighborTrafficMsgs: 10, VerifyMsgs: 5},
		ResponseP50:   0.2,
		ResponseP95:   1.0,
		QueriesIssued: 1000,
	}
	second := &Result{
		Overhead:      police.Overhead{NeighborListMsgs: 200, NeighborTrafficMsgs: 31, VerifyMsgs: 0},
		ResponseP50:   0.4,
		ResponseP95:   3.0,
		QueriesIssued: 3001,
	}
	merged := mergeResults([]*Result{first, second})
	want := police.Overhead{NeighborListMsgs: 150, NeighborTrafficMsgs: 21, VerifyMsgs: 3}
	if merged.Overhead != want {
		t.Errorf("merged overhead = %+v, want rounded mean %+v", merged.Overhead, want)
	}
	if d := merged.ResponseP50 - 0.3; d < -1e-12 || d > 1e-12 {
		t.Errorf("merged P50 = %v, want mean 0.3", merged.ResponseP50)
	}
	if merged.ResponseP95 != 2.0 {
		t.Errorf("merged P95 = %v, want mean 2.0", merged.ResponseP95)
	}
	if merged.QueriesIssued != 2001 {
		t.Errorf("merged queries issued = %d, want rounded mean 2001", merged.QueriesIssued)
	}
	if first.Overhead.NeighborListMsgs != 100 || second.Overhead.NeighborListMsgs != 200 {
		t.Error("merge mutated an input's Overhead")
	}
}

// TestRunParallelBoundedWorkers is the regression test for unbounded
// goroutine spawning: RunParallel used to launch one goroutine per
// config before acquiring a semaphore slot, so a large sweep parked
// thousands of goroutines at once. The worker pool must keep the
// goroutine count near GOMAXPROCS even for a big config slice, while
// still returning every result in input order.
func TestRunParallelBoundedWorkers(t *testing.T) {
	base := smallConfig()
	base.NumPeers = 50
	base.TopologyM = 2
	base.DurationSec = 60
	base.Catalog.NumObjects = 100
	cfgs := make([]Config, 300)
	for i := range cfgs {
		c := base
		c.Seed = uint64(i + 1)
		cfgs[i] = c
	}
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				close(done)
				return
			default:
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
				runtime.Gosched()
			}
		}
	}()
	rs, err := RunParallel(cfgs)
	done <- struct{}{}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	// Generous bound: workers + the run's own baseline + slack. The old
	// implementation peaked at before+len(cfgs) (~300+).
	limit := int64(before + runtime.GOMAXPROCS(0) + 20)
	if p := peak.Load(); p > limit {
		t.Errorf("goroutine peak %d exceeds bound %d for %d configs", p, limit, len(cfgs))
	}
	// Input-order results: each seed's run is deterministic, so result i
	// must match an independent run of cfgs[i].
	for _, i := range []int{0, 137, 299} {
		want, err := Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if rs[i] == nil || rs[i].OverallSuccess != want.OverallSuccess || rs[i].QueriesIssued != want.QueriesIssued {
			t.Errorf("result %d not in input order (got %+v)", i, rs[i])
		}
	}
}

// TestAveragedMatchesSingleRuns checks Averaged end-to-end on real (tiny)
// runs: deterministic per-seed results, averaged scalars, and no
// corruption across repeated calls with the same seeds.
func TestAveragedMatchesSingleRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.NumPeers = 200
	cfg.DurationSec = 120
	cfg.Catalog.NumObjects = 500
	seeds := []uint64{1, 2}

	singles := make([]*Result, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = r
	}
	avg, err := Averaged(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	want := (singles[0].OverallSuccess + singles[1].OverallSuccess) / 2
	if diff := avg.OverallSuccess - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("averaged success = %v, want %v", avg.OverallSuccess, want)
	}
	for i := range avg.SuccessSeries {
		want := (singles[0].SuccessSeries[i] + singles[1].SuccessSeries[i]) / 2
		if diff := avg.SuccessSeries[i] - want; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("minute %d: averaged S(t) = %v, want %v", i, avg.SuccessSeries[i], want)
		}
	}
	// A second averaged call must reproduce the first exactly (no state
	// leaked between calls through shared arrays).
	again, err := Averaged(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(avg.SuccessSeries, again.SuccessSeries) {
		t.Errorf("Averaged is not repeatable: %v vs %v", avg.SuccessSeries, again.SuccessSeries)
	}
}

// TestMergeResultsAveragesDeepFields is the regression test for the
// remaining first-seed-only traps: ControlLost was silently never
// accumulated (and absent from the documented list), and Minutes was
// first-seed-only by doc. Both must be cross-seed means; only AgentIDs
// (per-seed identity data) stays the first seed's verbatim. (Stages
// and Telemetry are per-run measurements: Averaged rejects them, see
// TestAveragedRejectsPerRunSinks.)
func TestMergeResultsAveragesDeepFields(t *testing.T) {
	first := &Result{
		ControlLost: 100,
		Cache:       flood.CacheStats{Builds: 40, Discarded: 10, PeakTreeBytes: 1001},
		Minutes: []metrics.MinuteStats{
			{Issued: 10, Succeeded: 10, QueryMsgs: 200, OnlinePeers: 50},
			{Issued: 20, Succeeded: 0, QueryMsgs: 100, OnlinePeers: 60},
		},
	}
	second := &Result{
		ControlLost: 50,
		Cache:       flood.CacheStats{Builds: 20, Discarded: 5, PeakTreeBytes: 500},
		Minutes: []metrics.MinuteStats{
			{Issued: 30, Succeeded: 11, QueryMsgs: 100, OnlinePeers: 50},
			{Issued: 40, Succeeded: 1, QueryMsgs: 300, OnlinePeers: 70},
		},
	}
	merged := mergeResults([]*Result{first, second})

	if merged.ControlLost != 75 {
		t.Errorf("merged ControlLost = %d, want mean 75", merged.ControlLost)
	}
	if want := (flood.CacheStats{Builds: 30, Discarded: 8, PeakTreeBytes: 751}); merged.Cache != want {
		t.Errorf("merged Cache = %+v, want rounded means %+v", merged.Cache, want)
	}
	wantMinutes := []metrics.MinuteStats{
		{Issued: 20, Succeeded: 11, QueryMsgs: 150, OnlinePeers: 50},
		{Issued: 30, Succeeded: 1, QueryMsgs: 200, OnlinePeers: 65},
	}
	// Succeeded means: (10+11)/2 = 10.5 rounds to 11, (0+1)/2 rounds to 1.
	if !reflect.DeepEqual(merged.Minutes, wantMinutes) {
		t.Errorf("merged Minutes = %+v, want %+v", merged.Minutes, wantMinutes)
	}
	if first.ControlLost != 100 || first.Minutes[0].Issued != 10 {
		t.Error("merge mutated the first input")
	}
	if second.Minutes[1].Issued != 40 {
		t.Error("merge mutated the second input")
	}
}

// TestAveragedRejectsPerRunSinks: the jobs of a grid execute
// concurrently, so every field that is a per-run sink must be refused by
// name when there is more than one job — replicas of one Config or
// different Configs on their own seeds — and only then. Config.Trace is
// no sink: the simulator emits no spans, so a set Trace is refused by
// name even for a single run.
func TestAveragedRejectsPerRunSinks(t *testing.T) {
	tiny := func() Config {
		cfg := smallConfig()
		cfg.NumPeers = 50
		cfg.TopologyM = 2
		cfg.DurationSec = 60
		cfg.Catalog.NumObjects = 100
		return cfg
	}
	sinks := map[string]func(*Config){
		"Journal":   func(c *Config) { c.Journal = journal.New(16) },
		"Registry":  func(c *Config) { c.Registry = telemetry.New() },
		"Telemetry": func(c *Config) { c.Telemetry = true },
	}
	for field, set := range sinks {
		cfg := tiny()
		plain := cfg
		set(&cfg)
		_, err := Averaged(cfg, []uint64{1, 2})
		if err == nil || !strings.Contains(err.Error(), "Config."+field+" ") {
			t.Errorf("two seeds with %s set: err = %v, want one naming Config.%s", field, err, field)
		}
		var job *JobError
		if _, err = Grid([]Config{plain, cfg}, nil); !errors.As(err, &job) || job.Index != 1 || !strings.Contains(err.Error(), "Config."+field+" ") {
			t.Errorf("two configs, no seeds, the second with %s set: err = %v, want config 1 refused naming Config.%s", field, err, field)
		}
		if _, err := Averaged(cfg, []uint64{1}); err != nil {
			t.Errorf("one seed with %s set: %v, want a plain run", field, err)
		}
	}
	traced := tiny()
	traced.Trace = trace.New(1, 0)
	if _, err := Averaged(traced, []uint64{1}); err == nil || !strings.Contains(err.Error(), "Config.Trace ") {
		t.Errorf("one seed with Trace set: err = %v, want one naming Config.Trace", err)
	}
}

// TestShardedRunReleasesGoroutines is the pooled-buffer goroutine
// regression: the sharded proposal phase spawns worker goroutines every
// tick and the parallel replica runner spawns one per seed; both must
// be fully joined by the time Run returns. A leak here compounds per
// tick, so even a small overlay exposes it.
func TestShardedRunReleasesGoroutines(t *testing.T) {
	cfg := smallConfig()
	cfg.DurationSec = 120
	cfg.PoliceEnabled = true
	cfg.NumAgents = 4
	cfg.Shards = 4
	baseline := runtime.NumGoroutine()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// Goroutine teardown is asynchronous after wg.Wait returns; poll
	// briefly before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before run, %d after", baseline, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
