package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func smokeRun(t *testing.T, workload string, traced bool, goldenDir string) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: 1, smoke: true, traced: traced, goldenDir: goldenDir})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	return res
}

// TestSmokeMatchesSpec runs every workload at smoke size, end to end
// and traced, and holds what they emit against BENCHMARK.json: the same
// workloads, the same metric names with the same units, every value a
// finite number, every run correct against the digests pinned in golden/.
func TestSmokeMatchesSpec(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics: limits are 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}
	type unitOfMetric map[string]string
	want := map[bool]unitOfMetric{false: {}, true: {}}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	declare := func(traced bool, n, unit, better string, specs []metricSpec) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or used twice", n)
		}
		seen[n] = true
		want[traced][n] = unit
		for _, s := range specs {
			if s.name == n && s.unit == unit && s.better == better {
				return
			}
		}
		t.Errorf("metric %s (%s, %s) of BENCHMARK.json is not in spec.go", n, unit, better)
	}
	for _, m := range spec.EndToEnd {
		declare(false, m.Name, m.Unit, m.Better, endToEndSpecs)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		declare(true, m.Name, m.Unit, m.Better, perLayerSpecs)
	}
	if len(want[false]) != len(endToEndSpecs) || len(want[true]) != len(perLayerSpecs) {
		t.Errorf("spec.go has %d+%d metrics, BENCHMARK.json %d+%d",
			len(endToEndSpecs), len(perLayerSpecs), len(want[false]), len(want[true]))
	}

	for i, wl := range spec.Workloads {
		if wl.Name != workloads[i].name || !name.MatchString(wl.Name) {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the runner", i, wl.Name, workloads[i].name)
		}
		for _, traced := range []bool{false, true} {
			res := smokeRun(t, wl.Name, traced, "golden")
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if !traced && res.Digest != "" && !res.Pinned {
				t.Errorf("%s: smoke digest %s is not pinned in golden/", wl.Name, res.Digest)
			}
			for n, unit := range want[traced] {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s missing or in %q, want %q", wl.Name, traced, n, m.Unit, unit)
				}
			}
			for n, m := range res.Metrics {
				if _, ok := want[traced][n]; !ok {
					t.Errorf("%s traced=%v: emits %s, which BENCHMARK.json does not name", wl.Name, traced, n)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: %s = %v", wl.Name, traced, n, m.Value)
				}
			}
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
				t.Errorf("%s traced=%v: last line is %.60q", wl.Name, traced, last)
			}
		}
	}
}

// TestWrongDigestFails pins a digest the run cannot produce and expects
// the run to count a failure; -update must then repair the pin.
func TestWrongDigestFails(t *testing.T) {
	dir := t.TempDir()
	path := goldenPath(dir, "steady-2k", 1, true)
	if err := writeGolden(path, strings.Repeat("0", 64)); err != nil {
		t.Fatal(err)
	}
	res := smokeRun(t, "steady-2k", false, dir)
	if res.Correct || res.Failed != 1 || !res.Pinned {
		t.Fatalf("wrong pin: correct=%v failed=%d pinned=%v", res.Correct, res.Failed, res.Pinned)
	}
	if _, err := run(options{workload: "steady-2k", seed: 1, smoke: true, update: true, goldenDir: dir}); err != nil {
		t.Fatal(err)
	}
	if res := smokeRun(t, "steady-2k", false, dir); !res.Correct {
		t.Fatalf("after -update: %q", res.Notes)
	}
	// A seed with no pin is checked only for repeating, and says so.
	if res := smokeRun(t, "steady-2k", false, t.TempDir()); !res.Correct || res.Pinned || len(res.Notes) == 0 {
		t.Fatalf("no pin: correct=%v pinned=%v notes=%q", res.Correct, res.Pinned, res.Notes)
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// a root with two overlapping children, one of which has a child that
// sticks out of it, and a childless sibling root.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100}, // 0: children cover [10,60) and [40,80) = 70
		{parent: 0, start: 10, end: 60},  // 1: child 3 covers [50,60) after clipping
		{parent: 0, start: 40, end: 80},  // 2
		{parent: 1, start: 50, end: 70},  // 3: sticks out of its parent
		{parent: -1, start: 100, end: 130},
	}
	want := []int64{30, 40, 40, 20, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}

	rec := newRecorder("t")
	outer := rec.begin("outer")
	inner := rec.begin("inner")
	rec.end(inner)
	rec.rename(inner, "renamed")
	rec.end(outer)
	st := rec.stats()
	if st["renamed"].Count != 1 || st["inner"].Count != 0 || st["outer"].SelfNs != st["outer"].TotalNs-st["renamed"].TotalNs {
		t.Errorf("recorder stats %+v", st)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x")) // a nil recorder records nothing and does not panic
}

// TestBoxProbe: the ruler's floods must reach most of its graph, or a
// burst times next to nothing, and a reading is a positive number.
func TestBoxProbe(t *testing.T) {
	p := newBoxProbe(2)
	w := p.workers[1]
	w.flood(p.adj, 0)
	if len(w.queue) < probeNodes*9/10 {
		t.Errorf("a flood reaches %d of %d nodes", len(w.queue), probeNodes)
	}
	if s := p.slowdown(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("slowdown reading %v", s)
	}
}

func TestPerWorldMetric(t *testing.T) {
	m := perWorld{{10, 12, 11}, {20}}.metric()
	// Medians 11 and 20; the first world's repetitions reach 10/11 and
	// 12/11 of their median.
	if m.Value != 15.5 || m.N != 4 || math.Abs(m.Min-15.5*10/11) > 1e-9 || math.Abs(m.Max-15.5*12/11) > 1e-9 {
		t.Errorf("metric %+v", m)
	}
}

func TestJudge(t *testing.T) {
	at := func(v, spread float64) metricOut {
		return metricOut{Value: v, Min: v * (1 - spread), Max: v * (1 + spread)}
	}
	cases := []struct {
		a, b    metricOut
		better  string
		verdict string
	}{
		{at(100, 0.01), at(104, 0.01), "lower", verdictOK},
		{at(100, 0.01), at(111, 0.01), "lower", verdictRegression},
		{at(100, 0.01), at(89, 0.01), "higher", verdictRegression},
		{at(100, 0.08), at(101, 0.01), "lower", verdictUnresolved},
		{at(100, 0.08), at(80, 0.08), "lower", verdictOK}, // every repetition of b beats every one of a
	}
	for i, c := range cases {
		if _, v := judge(c.a, c.b, c.better, 0.10); v != c.verdict {
			t.Errorf("case %d: verdict %s, want %s", i, v, c.verdict)
		}
	}
}

// TestCompareSets writes two result sets and checks that -compare
// passes equal sets and rejects a regression and a higher fail share.
func TestCompareSets(t *testing.T) {
	write := func(dir string, wall float64, failed int) {
		for _, wl := range workloads {
			r := &result{Workload: wl.name, Valid: true, Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metricOut{}}
			for _, s := range endToEndSpecs {
				r.Metrics[s.name] = metricOut{Value: wall, Unit: s.unit, Min: wall, Max: wall, N: 3}
			}
			if err := writeResult(filepath.Join(dir, wl.name+".json"), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, same, slow, failing := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 1, 0)
	write(same, 1.01, 0)
	write(slow, 1.5, 0)
	write(failing, 1, 1)
	var out bytes.Buffer
	if err := compareSets(&out, "../BENCHMARK.json", a, same); err != nil {
		t.Errorf("equal sets: %v\n%s", err, out.String())
	}
	if err := compareSets(&out, "../BENCHMARK.json", a, slow); err == nil {
		t.Error("a 50 % regression passed")
	}
	if err := compareSets(&out, "../BENCHMARK.json", a, failing); err == nil {
		t.Error("a higher fail share passed")
	}
}

// TestResultFileOnFullDisk: a result that cannot be written is an
// error, not a truncated file reported as success.
func TestResultFileOnFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	r := &result{Workload: "steady-2k", Metrics: map[string]metricOut{}}
	if err := writeResult("/dev/full", r); err == nil {
		t.Error("writing a result to /dev/full succeeded")
	}
}
