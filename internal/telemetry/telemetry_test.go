package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every recording call on nil instruments must be a no-op, not a
	// panic: this is the "telemetry disabled" fast path.
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	tm := r.Timer("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.SetMax(9)
	tm.Add(time.Second)
	tm.Observe(time.Now())
	h.Observe(42)
	h.ObserveDuration(time.Second)
	if c.Load() != 0 || g.Load() != 0 || tm.Total() != 0 || tm.Count() != 0 {
		t.Fatal("nil instruments retained data")
	}
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Timers)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry produced a non-empty snapshot")
	}
	if !tm.Start().IsZero() {
		t.Fatal("nil timer read the clock")
	}
}

func TestCounterGaugeTimer(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("events") != c {
		t.Fatal("lookup did not return the same counter")
	}
	g := r.Gauge("depth")
	g.SetMax(7)
	g.SetMax(3) // lower: must not regress the high-water mark
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.Set(2)
	if got := g.Load(); got != 2 {
		t.Fatalf("gauge = %d after Set, want 2", got)
	}
	tm := r.Timer("work")
	tm.Add(2 * time.Millisecond)
	tm.Add(3 * time.Millisecond)
	if got := tm.Total(); got != 5*time.Millisecond {
		t.Fatalf("timer total = %v", got)
	}
	if got := tm.Count(); got != 2 {
		t.Fatalf("timer count = %d", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	// Exercised under -race by the CI target: many goroutines hammer the
	// same instruments while another snapshots.
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	tm := r.Timer("t")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				tm.Add(time.Microsecond)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Load(); got != workers*per-1 {
		t.Fatalf("gauge high-water = %d, want %d", got, workers*per-1)
	}
	if got := tm.Count(); got != workers*per {
		t.Fatalf("timer count = %d, want %d", got, workers*per)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	if r.Histogram("lat") != h {
		t.Fatal("lookup did not return the same histogram")
	}
	// 0 → bucket 0 (le 0); 1 → le 1; 5,7 → le 7; 100 → le 127.
	for _, v := range []uint64{0, 1, 5, 7, 100} {
		h.Observe(v)
	}
	hv := r.Snapshot().Histograms[0]
	wantBuckets := []HistogramBucket{{Le: 0, Count: 1}, {Le: 1, Count: 1}, {Le: 7, Count: 2}, {Le: 127, Count: 1}}
	if len(hv.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %+v", hv.Buckets)
	}
	for i, b := range hv.Buckets {
		if b != wantBuckets[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, wantBuckets[i])
		}
	}
	// The reading carries what a consumer derives a mean or a quantile
	// from (/metrics: _count, _sum and the cumulative le buckets).
	if hv.Name != "lat" || hv.Count != 5 || hv.Sum != 113 {
		t.Fatalf("reading = %+v, want lat with count 5, sum 113", hv)
	}
	// ObserveDuration records integer milliseconds, clamping negatives.
	h2 := r.Histogram("dur")
	h2.ObserveDuration(3 * time.Millisecond)
	h2.ObserveDuration(-time.Second)
	if dur := r.Snapshot().Histograms[0]; dur.Name != "dur" || dur.Count != 2 || dur.Sum != 3 {
		t.Fatalf("duration histogram reading = %+v, want count 2, sum 3", dur)
	}
}

// TestHistogramConcurrent is part of the -race CI gate: many writers,
// one snapshotting reader.
func TestHistogramConcurrent(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(i))
				if i%200 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Histograms[0].Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	var inBuckets uint64
	for _, b := range r.Snapshot().Histograms[0].Buckets {
		inBuckets += b.Count
	}
	if inBuckets != workers*per {
		t.Fatalf("bucket total = %d, want %d", inBuckets, workers*per)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("gnet.reconnect_ok").Add(2)
	r.Gauge("gnet.inbox_hwm").Set(5)
	r.Timer("stage.flood").Add(1500 * time.Millisecond)
	h := r.Histogram("flood.hit_hops")
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gnet_reconnect_ok counter\ngnet_reconnect_ok 2\n",
		"# TYPE gnet_inbox_hwm gauge\ngnet_inbox_hwm 5\n",
		"# TYPE stage_flood_seconds summary\nstage_flood_seconds_sum 1.5\nstage_flood_seconds_count 1\n",
		"flood_hit_hops_bucket{le=\"0\"} 1\n",
		"flood_hit_hops_bucket{le=\"3\"} 3\n",
		"flood_hit_hops_bucket{le=\"+Inf\"} 3\n",
		"flood_hit_hops_sum 6\n",
		"flood_hit_hops_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := PromName("9flood.hit-hops"); got != "_9flood_hit_hops" {
		t.Fatalf("PromName = %q", got)
	}
}

// TestSnapshotSortedAndCloned: a snapshot is sorted by name within each
// kind and is a copy — recording after it was taken does not move it.
func TestSnapshotSortedAndCloned(t *testing.T) {
	r := New()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Timer("t2").Add(time.Millisecond)
	r.Timer("t1").Add(time.Millisecond)
	snap := r.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a" || snap.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	if len(snap.Timers) != 2 || snap.Timers[0].Name != "t1" || snap.Timers[1].Name != "t2" {
		t.Fatalf("timers not sorted: %+v", snap.Timers)
	}
	r.Counter("a").Add(97)
	r.Timer("t1").Add(time.Second)
	if snap.Counters[0].Value != 2 || snap.Timers[0].Total != time.Millisecond {
		t.Fatalf("snapshot moved with the live instruments: %+v %+v", snap.Counters[0], snap.Timers[0])
	}
}

// TestTimerStartObserve: a live timer's Start reads the clock and
// Observe charges the interval since — the pair the simulator's stage
// timers are built from.
func TestTimerStartObserve(t *testing.T) {
	r := New()
	tm := r.Timer("alpha")
	st := tm.Start()
	if st.IsZero() {
		t.Fatal("live timer did not read the clock")
	}
	time.Sleep(time.Millisecond)
	tm.Observe(st)
	tv := r.Snapshot().Timers[0]
	if tv.Name != "alpha" || tv.Total <= 0 || tv.Count != 1 {
		t.Fatalf("alpha timer = %+v", tv)
	}
}

func TestProfileHooks(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for i := 0; i < 1e6; i++ {
		busy += i
	}
	_ = busy
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}

	tr := filepath.Join(dir, "run.trace")
	stop, err = StartTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}

	if _, err := StartCPUProfile(filepath.Join(dir, "missing", "x")); err == nil {
		t.Fatal("profile into missing directory succeeded")
	}
}
