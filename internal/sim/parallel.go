package sim

import (
	"fmt"
	"runtime"
	"sync"

	"ddpolice/internal/metrics"
	"ddpolice/internal/overlay"
)

// RunParallel executes the given configurations concurrently on a
// bounded worker pool and returns results in input order. Each
// configuration carries its own seed, so results are deterministic
// regardless of scheduling. The first error (if any, in input order)
// is returned with whatever results completed.
//
// Workers are capped at min(GOMAXPROCS, len(cfgs)) and pull indices
// from a channel: a 10k-seed sweep runs on a dozen goroutines, not ten
// thousand parked ones (the previous version spawned one goroutine per
// config before acquiring its semaphore slot).
func RunParallel(cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = Run(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Averaged runs the same configuration with the given seeds and merges
// scalar outputs by arithmetic mean: series element-wise, counters by
// rounded mean, control-overhead message counts per class by rounded
// mean, and the traversal-cache effectiveness counters (Result.Cache)
// field-wise by rounded mean. Minutes is averaged element-wise
// (truncated to the shortest run, which is a no-op for a fixed
// DurationSec) and ControlLost by rounded mean.
//
// The single remaining first-seed field is AgentIDs: agent placement
// is per-seed identity data, not a statistic — a cross-seed mean of
// peer IDs is meaningless, so the merged result carries the first
// seed's placement as "one representative run". Everything else in
// Result is averaged. It reduces run-to-run noise for the figure
// sweeps.
//
// The replicas run concurrently from copies of cfg, so a per-run sink
// in it would be shared by all of them: a Journal, Trace or Registry
// interleaved by scheduling, Telemetry timing replicas that contend
// with each other. With more than one seed any of those is an error naming the
// field; observe one run with Run instead.
func Averaged(cfg Config, seeds []uint64) (*Result, error) {
	if len(seeds) == 0 {
		return Run(cfg)
	}
	if len(seeds) > 1 {
		for _, sink := range []struct {
			field string
			set   bool
		}{
			{"Journal", cfg.Journal != nil},
			{"Trace", cfg.Trace != nil},
			{"Registry", cfg.Registry != nil},
			{"Telemetry", cfg.Telemetry},
		} {
			if sink.set {
				return nil, fmt.Errorf("sim: Averaged: Config.%s is a per-run sink and %d concurrent replicas would share it; observe one seed with Run", sink.field, len(seeds))
			}
		}
	}
	cfgs := make([]Config, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		cfgs[i] = c
	}
	rs, err := RunParallel(cfgs)
	if err != nil {
		return nil, err
	}
	return mergeResults(rs), nil
}

// mergeResults averages rs into a fresh Result without modifying any
// input: the accumulator deep-copies every slice field first, so the
// first seed's series are not mutated in place.
func mergeResults(rs []*Result) *Result {
	out := *rs[0]
	out.Minutes = append([]metrics.MinuteStats(nil), rs[0].Minutes...)
	out.SuccessSeries = append([]float64(nil), rs[0].SuccessSeries...)
	out.AgentIDs = append([]overlay.PeerID(nil), rs[0].AgentIDs...)
	n := float64(len(rs))
	for _, r := range rs[1:] {
		out.OverallSuccess += r.OverallSuccess
		out.MeanTraffic += r.MeanTraffic
		out.MeanResponseTime += r.MeanResponseTime
		out.ResponseP50 += r.ResponseP50
		out.ResponseP95 += r.ResponseP95
		out.MeanHitHops += r.MeanHitHops
		out.QueriesIssued += r.QueriesIssued
		out.Detections += r.Detections
		out.FalseNegatives += r.FalseNegatives
		out.FalsePositives += r.FalsePositives
		out.ControlLost += r.ControlLost
		out.CutEdges += r.CutEdges
		out.AttackVolume += r.AttackVolume
		out.Overhead.NeighborListMsgs += r.Overhead.NeighborListMsgs
		out.Overhead.NeighborTrafficMsgs += r.Overhead.NeighborTrafficMsgs
		out.Overhead.VerifyMsgs += r.Overhead.VerifyMsgs
		out.Cache.Hits += r.Cache.Hits
		out.Cache.Misses += r.Cache.Misses
		out.Cache.Builds += r.Cache.Builds
		out.Cache.Prewarmed += r.Cache.Prewarmed
		out.Cache.Fallbacks += r.Cache.Fallbacks
		out.Cache.Discarded += r.Cache.Discarded
		out.Cache.Flushes += r.Cache.Flushes
		out.Cache.Trees += r.Cache.Trees
		for i := range out.SuccessSeries {
			if i < len(r.SuccessSeries) {
				out.SuccessSeries[i] += r.SuccessSeries[i]
			}
		}
	}
	out.OverallSuccess /= n
	out.MeanTraffic /= n
	out.MeanResponseTime /= n
	out.ResponseP50 /= n
	out.ResponseP95 /= n
	out.MeanHitHops /= n
	out.AttackVolume /= n
	out.QueriesIssued = roundDivU64(out.QueriesIssued, n)
	out.Detections = roundDiv(out.Detections, n)
	out.FalseNegatives = roundDiv(out.FalseNegatives, n)
	out.FalsePositives = roundDiv(out.FalsePositives, n)
	// ControlLost was silently first-seed-only — it never appeared in the
	// documented list and was never accumulated, so "averaged" sweeps
	// reported one run's control-plane losses as the mean.
	out.ControlLost = roundDivU64(out.ControlLost, n)
	out.CutEdges = roundDiv(out.CutEdges, n)
	// Overhead was previously copied wholesale from the first seed, so
	// "averaged" sweeps reported one run's control traffic as the mean;
	// its three message counters are plain totals and average cleanly.
	out.Overhead.NeighborListMsgs = roundDivU64(out.Overhead.NeighborListMsgs, n)
	out.Overhead.NeighborTrafficMsgs = roundDivU64(out.Overhead.NeighborTrafficMsgs, n)
	out.Overhead.VerifyMsgs = roundDivU64(out.Overhead.VerifyMsgs, n)
	// Cache counters are plain scalars and average cleanly; reporting
	// the first seed's values verbatim (the previous behaviour) let one
	// run's hit/miss/replay profile masquerade as the sweep's.
	out.Cache.Hits = roundDivU64(out.Cache.Hits, n)
	out.Cache.Misses = roundDivU64(out.Cache.Misses, n)
	out.Cache.Builds = roundDivU64(out.Cache.Builds, n)
	out.Cache.Prewarmed = roundDivU64(out.Cache.Prewarmed, n)
	out.Cache.Fallbacks = roundDivU64(out.Cache.Fallbacks, n)
	out.Cache.Discarded = roundDivU64(out.Cache.Discarded, n)
	out.Cache.Flushes = roundDivU64(out.Cache.Flushes, n)
	out.Cache.Trees = roundDiv(out.Cache.Trees, n)
	for i := range out.SuccessSeries {
		out.SuccessSeries[i] /= n
	}
	mergeMinutes(&out, rs, n)
	return &out
}

// mergeMinutes averages the per-minute series element-wise: counts by
// rounded mean, message/drop rates by float mean. Runs of the same
// Config always produce the same number of minutes; the truncation to
// the shortest run is a defensive guard, not an expected path.
func mergeMinutes(out *Result, rs []*Result, n float64) {
	for _, r := range rs[1:] {
		if len(r.Minutes) < len(out.Minutes) {
			out.Minutes = out.Minutes[:len(r.Minutes)]
		}
	}
	for i := range out.Minutes {
		m := &out.Minutes[i]
		issued, succeeded, online := float64(m.Issued), float64(m.Succeeded), float64(m.OnlinePeers)
		for _, r := range rs[1:] {
			rm := &r.Minutes[i]
			issued += float64(rm.Issued)
			succeeded += float64(rm.Succeeded)
			online += float64(rm.OnlinePeers)
			m.QueryMsgs += rm.QueryMsgs
			m.HitMsgs += rm.HitMsgs
			m.ControlMsgs += rm.ControlMsgs
			m.CapacityDrop += rm.CapacityDrop
		}
		m.Issued = int(issued/n + 0.5)
		m.Succeeded = int(succeeded/n + 0.5)
		m.OnlinePeers = int(online/n + 0.5)
		m.QueryMsgs /= n
		m.HitMsgs /= n
		m.ControlMsgs /= n
		m.CapacityDrop /= n
	}
}

func roundDiv(sum int, n float64) int {
	return int(float64(sum)/n + 0.5)
}

func roundDivU64(sum uint64, n float64) uint64 {
	return uint64(float64(sum)/n + 0.5)
}
