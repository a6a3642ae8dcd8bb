// Package telemetry is the run observability layer: a lightweight,
// allocation-conscious registry of counters, gauges and wall-clock
// timers, plus optional CPU-profile and execution-trace hooks
// (profile.go).
//
// Everything is sync/atomic-based so hot paths — the live gnet run
// loop, transient-connection goroutines, the simulator tick loop — can
// record without locks. Every instrument is nil-safe: a nil *Counter,
// *Gauge, *Timer, *Histogram or *Registry turns every recording call
// into a nil-check no-op, so "telemetry disabled" costs a predictable
// branch and nothing else. Instrumented code therefore never guards
// its recording sites:
//
//	var reg *telemetry.Registry // nil: disabled
//	c := reg.Counter("flood.edges") // nil
//	c.Inc()                         // no-op
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level. SetMax makes it a high-water mark.
// The zero value is ready; a nil Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n exceeds the current value
// (lock-free high-water mark).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current level (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates wall-clock durations and an observation count. The
// zero value is ready; a nil Timer discards all updates.
type Timer struct {
	ns atomic.Int64
	n  atomic.Uint64
}

// Add folds in one observed duration.
func (t *Timer) Add(d time.Duration) {
	if t != nil {
		t.ns.Add(int64(d))
		t.n.Add(1)
	}
}

// Start reads the clock at the top of a measured region; pass the
// result to Observe. A nil Timer returns the zero time without reading
// the clock, so a disabled timing site costs one pointer check.
func (t *Timer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Observe folds in the time elapsed since start (as returned by Start).
func (t *Timer) Observe(start time.Time) {
	if t != nil {
		t.Add(time.Since(start))
	}
}

// Total returns the accumulated duration (0 on nil).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns the number of observations (0 on nil).
func (t *Timer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// histogramBuckets is the number of log₂ buckets: bucket 0 holds the
// value 0, bucket i (1..64) holds values in [2^(i-1), 2^i).
const histogramBuckets = 65

// Histogram is a log₂-bucketed distribution of non-negative integer
// observations (latencies in some unit, hop counts, sizes). Bucket
// index is bits.Len64(v), so recording is a couple of atomic adds and
// no floating point. The zero value is ready; a nil Histogram discards
// all updates, preserving the package's zero-cost-when-disabled
// contract.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histogramBuckets]atomic.Uint64
}

// Observe folds in one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveDuration folds in a duration as integer milliseconds
// (negative durations clamp to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d / time.Millisecond))
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry names and owns a set of instruments. Instrument lookup
// takes the registry lock; the returned pointers record lock-free, so
// hot paths resolve their instruments once and keep them. A nil
// *Registry returns nil instruments from every lookup, which is how
// "telemetry disabled" propagates through instrumented code.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = new(Timer)
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = new(Histogram)
		r.histograms[name] = h
	}
	return h
}

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one named gauge reading.
type GaugeValue struct {
	Name  string
	Value int64
}

// TimerValue is one named timer reading.
type TimerValue struct {
	Name  string
	Total time.Duration
	Count uint64
}

// HistogramBucket is one occupied log₂ bucket: Count observations with
// value ≤ Le (and greater than the previous bucket's Le).
type HistogramBucket struct {
	Le    uint64 // inclusive upper bound (2^i − 1)
	Count uint64
}

// HistogramValue is one named histogram reading. Buckets holds only
// the occupied buckets, in ascending bound order.
type HistogramValue struct {
	Name    string
	Count   uint64
	Sum     uint64
	Buckets []HistogramBucket
}

// Snapshot is a point-in-time reading of every instrument, sorted by
// name within each kind.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Timers     []TimerValue
	Histograms []HistogramValue
}

// Snapshot reads every instrument. Safe to call while recording
// continues; readings are per-instrument atomic. An empty snapshot is
// returned on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Load()})
	}
	for name, t := range r.timers {
		s.Timers = append(s.Timers, TimerValue{Name: name, Total: t.Total(), Count: t.Count()})
	}
	for name, h := range r.histograms {
		hv := HistogramValue{Name: name, Count: h.count.Load(), Sum: h.sum.Load()}
		for i := range h.buckets {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			le := ^uint64(0)
			if i < 64 {
				le = 1<<uint(i) - 1
			}
			hv.Buckets = append(hv.Buckets, HistogramBucket{Le: le, Count: n})
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Timers, func(i, j int) bool { return s.Timers[i].Name < s.Timers[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
