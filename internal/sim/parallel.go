package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ddpolice/internal/metrics"
	"ddpolice/internal/overlay"
)

// JobError is the failure of one job of a grid.
type JobError struct {
	Index int    // of the job's configuration in cfgs
	Seed  uint64 // the job ran on
	Err   error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("config %d, seed %d: %v", e.Index, e.Seed, e.Err)
}

// sharedWorld is one distinct world of a grid: built by the first job to
// claim it and forgotten as the last does, so it lives while its jobs run.
type sharedWorld struct {
	mu     sync.Mutex
	w      *World
	jobs   []int // in declared order
	claims int
}

func (s *sharedWorld) run(cfg Config) (*Result, error) {
	s.mu.Lock()
	w, err := s.w, error(nil)
	if w == nil {
		w, err = NewWorld(cfg)
		s.w = w
	}
	if s.claims++; s.claims == len(s.jobs) {
		s.w = nil
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return w.Run(cfg)
}

// Grid runs every configuration on every seed — on its own Seed when
// seeds is empty — as flat jobs on one pool of GOMAXPROCS workers, the
// package's only one, and returns one Result per configuration in input
// order: the run's own, or with seeds the mergeResults of its replicas in
// seed order. Jobs of one world share it read-only and are dispatched
// together, worlds in order of first appearance, so about one world is
// live at a time. A job is deterministic in its Config: no result
// depends on the schedule.
//
// No job starts after one has failed, and the error is a *JobError: the
// first failure in dispatch order, which every schedule reaches (for
// configurations of one world shape, the first in declared order). With
// more than one job a per-run sink is such an error, naming the field:
// sinks would be live side by side and Telemetry would time runs that
// contend with each other.
func Grid(cfgs []Config, seeds []uint64) ([]*Result, error) {
	type job struct {
		cfg   Config
		world *sharedWorld
	}
	per := max(1, len(seeds))
	total := len(cfgs) * per
	jobs := make([]job, 0, total)
	var worlds []*sharedWorld
	byKey := map[worldKey]*sharedWorld{}
	for i, cfg := range cfgs {
		for _, sink := range []struct {
			field string
			set   bool
		}{
			{"Journal", cfg.Journal != nil},
			{"Registry", cfg.Registry != nil},
			{"Telemetry", cfg.Telemetry},
		} {
			if sink.set && total > 1 {
				return nil, &JobError{i, cfg.Seed, fmt.Errorf("sim: Config.%s is a per-run sink and %d concurrent jobs would run beside it; observe one run with Run", sink.field, total)}
			}
		}
		for r := 0; r < per; r++ {
			if len(seeds) > 0 {
				cfg.Seed = seeds[r]
			}
			s := byKey[cfg.world()]
			if s == nil {
				s = &sharedWorld{}
				byKey[cfg.world()] = s
				worlds = append(worlds, s)
			}
			s.jobs = append(s.jobs, len(jobs))
			jobs = append(jobs, job{cfg, s})
		}
	}
	var order []int
	for _, s := range worlds {
		order = append(order, s.jobs...)
	}
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), total); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(order)) && !failed.Load(); k = next.Add(1) - 1 {
				j := order[k]
				if results[j], errs[j] = jobs[j].world.run(jobs[j].cfg); errs[j] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, j := range order {
		if errs[j] != nil {
			return nil, &JobError{j / per, jobs[j].cfg.Seed, errs[j]}
		}
	}
	if len(seeds) == 0 {
		return results, nil
	}
	out := make([]*Result, len(cfgs))
	for i := range out {
		out[i] = mergeResults(results[i*per : (i+1)*per])
	}
	return out, nil
}

// RunParallel executes the given configurations concurrently and returns
// their results in input order: Grid with each on its own Seed.
func RunParallel(cfgs []Config) ([]*Result, error) { return Grid(cfgs, nil) }

// mergeResults averages rs into a fresh Result without modifying any
// input: scalars and series by arithmetic mean, counters — Minutes
// element-wise, the control-overhead classes, ControlLost, the
// traversal-cache tallies — by rounded mean. AgentIDs alone stays the
// first seed's: placement is per-seed identity, not a statistic. The
// accumulator deep-copies every slice field first, so the first seed's
// series are not mutated in place.
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
		out.Cache.PeakTreeBytes += r.Cache.PeakTreeBytes
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
	out.ControlLost = roundDivU64(out.ControlLost, n)
	out.CutEdges = roundDiv(out.CutEdges, n)
	out.Overhead.NeighborListMsgs = roundDivU64(out.Overhead.NeighborListMsgs, n)
	out.Overhead.NeighborTrafficMsgs = roundDivU64(out.Overhead.NeighborTrafficMsgs, n)
	out.Overhead.VerifyMsgs = roundDivU64(out.Overhead.VerifyMsgs, n)
	out.Cache.Hits = roundDivU64(out.Cache.Hits, n)
	out.Cache.Misses = roundDivU64(out.Cache.Misses, n)
	out.Cache.Builds = roundDivU64(out.Cache.Builds, n)
	out.Cache.Prewarmed = roundDivU64(out.Cache.Prewarmed, n)
	out.Cache.Fallbacks = roundDivU64(out.Cache.Fallbacks, n)
	out.Cache.Discarded = roundDivU64(out.Cache.Discarded, n)
	out.Cache.Flushes = roundDivU64(out.Cache.Flushes, n)
	out.Cache.Trees = roundDiv(out.Cache.Trees, n)
	out.Cache.PeakTreeBytes = roundDivU64(out.Cache.PeakTreeBytes, n)
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
