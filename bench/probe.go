package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference box slows down by a factor of 1.2 to 1.7 for spells of
// half a minute to several minutes, user+sys CPU time included and with
// no steal time reported; ten runs of one workload can then spread over
// 30 % of their median, more than any bound the benchmark may set
// (README.md, "What the reference box does to times"). A spell outlasts
// a run, so no statistic over a run's repetitions removes it. What does
// is a ruler: boxProbe is a fixed piece of work owned by the benchmark
// — flooding a fixed pseudo-random graph breadth first, the
// simulator's instruction mix of dependent loads and integer
// bookkeeping, small enough to stay in a core's own cache — timed right
// before and right after every measured interval. The interval's time
// is divided by how much slower than probeRefSeconds the ruler ran,
// which turns it into seconds at the reference speed. The ruler never
// calls the program, so a change to the program cannot move it. Larger
// rulers (1 MB, 30 MB) were tried beside this one and follow the
// workloads less well, the 100,000-peer one included.
const (
	probeNodes  = 1 << 11
	probeDegree = 6
	probeFloods = 384 // per burst
	probeBursts = 9   // per reading; the median burst is the reading

	// probeRefSeconds is one burst on the reference box when it is quiet.
	// Its value only fixes the unit: every time metric scales with it.
	probeRefSeconds = 0.0135
)

// boxProbe is the ruler's graph, probeDegree neighbours per node, with
// one set of scratch arrays per core: a reading floods on every core at
// once, because the workloads use every core (the collector, where not
// the job itself) and a neighbour may sit beside either.
type boxProbe struct {
	adj     []int32
	workers []*probeWorker
}

type probeWorker struct {
	seen  []uint32 // epoch a node was last reached in
	queue []int32
	epoch uint32
}

func newBoxProbe(cores int) *boxProbe {
	p := &boxProbe{adj: make([]int32, probeNodes*probeDegree)}
	// xorshift64: the graph is a constant of the benchmark, not an
	// input, and must not change when internal/rng does.
	x := uint64(0x9E3779B97F4A7C15)
	for i := range p.adj {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.adj[i] = int32(x % probeNodes)
	}
	for c := 0; c < cores; c++ {
		p.workers = append(p.workers, &probeWorker{seen: make([]uint32, probeNodes), queue: make([]int32, 0, probeNodes)})
	}
	return p
}

// flood reaches every node it can from src.
func (w *probeWorker) flood(adj []int32, src int32) {
	w.epoch++
	w.queue = append(w.queue[:0], src)
	w.seen[src] = w.epoch
	for head := 0; head < len(w.queue); head++ {
		v := int(w.queue[head])
		for _, n := range adj[v*probeDegree : (v+1)*probeDegree] {
			if w.seen[n] != w.epoch {
				w.seen[n] = w.epoch
				w.queue = append(w.queue, n)
			}
		}
	}
}

// burst floods probeFloods times on every core and returns the seconds
// until the last core was done.
func (p *boxProbe) burst() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *probeWorker) {
			defer wg.Done()
			for i := 0; i < probeFloods; i++ {
				w.flood(p.adj, int32(i%probeNodes))
			}
		}(w)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// slowdown is one reading: how many times slower than the reference
// the box runs now.
func (p *boxProbe) slowdown() float64 {
	// Collect first: a collection still marking what the last interval
	// left behind would share the cores with the ruler.
	runtime.GC()
	bursts := make(series, probeBursts)
	for i := range bursts {
		bursts[i] = p.burst()
	}
	return bursts.median() / probeRefSeconds
}
