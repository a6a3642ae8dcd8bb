// Command bench is the repository benchmark BENCHMARK.json names: five
// fixed workloads over the simulator, the paper-figure regeneration and
// a live gnet overlay, measured end to end with tracing off and, in a
// separate traced run, layer by layer through each package's public
// API. See README.md in this directory.
//
// It is a module of its own (go.mod here) that builds against the
// checkout around it, so it runs from this directory, and relative paths
// in its flags are relative to this directory:
//
//	go run -C bench . -workload steady-2k -seed 1            # end-to-end metrics
//	go run -C bench . -workload steady-2k -seed 1 -trace 1   # per-layer ledger
//	go run -C bench . -compare /tmp/A /tmp/B                 # regression check
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"ddpolice/internal/outfile"
)

// A run builds worldsPerRun worlds from its seed and repeats them in
// turn until -seconds have passed, every world at least once. A metric
// is the mean over the worlds of each world's median repetition: the
// median keeps one slow repetition (a co-tenant, a GC at the wrong
// moment) from setting the number, and the mean over worlds keeps one
// unusual topology from setting it, because what a world costs varies
// by 5-15 % from seed to seed while the run-to-run noise of a count is
// nil. Set-up is the shortest and so the noisiest interval: a world's
// set-up is sampled setupPerRep times before each of its repetitions,
// which also spreads the samples over the run, and the median of them
// all is reported.
const (
	worldsPerRun = 4
	smokeWorlds  = 2
	setupPerRep  = 2
)

// options is one invocation.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	smoke     bool
	update    bool
	goldenDir string
	out       string
	traceOut  string
}

// metricOut is one metric of a result. Min and Max are Value scaled by
// the smallest and largest ratio of a repetition to its own world's
// median, so they show the run's noise and not the differences between
// its worlds; N counts the repetitions. Raw, on the end-to-end time
// metrics, is Value as the clock read it, before the scaling to the
// reference speed (probe.go).
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	Raw   float64 `json:"raw,omitempty"`
}

// environment is recorded with every result: numbers from different
// boxes or core counts must not be compared.
type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
	Transport  string `json:"transport"`
}

// result is everything one run produced; -out writes it.
type result struct {
	Workload  string               `json:"workload"`
	Size      string               `json:"size"`
	Seed      uint64               `json:"seed"`
	Traced    bool                 `json:"traced"`
	Smoke     bool                 `json:"smoke"`
	Worlds    int                  `json:"worlds"`
	Reps      int                  `json:"reps"`
	Env       environment          `json:"env"`
	Valid     bool                 `json:"valid"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Slowdown  metricOut            `json:"box_slowdown"` // untraced runs: how much slower than the reference the box ran, per repetition
	Digest    string               `json:"digest,omitempty"`
	Pinned    bool                 `json:"digest_pinned"`
	Metrics   map[string]metricOut `json:"metrics"`
	Spans     map[string]spanStat  `json:"spans,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// put stores a metric under the unit its spec gives it.
func (r *result) put(name string, m metricOut) {
	m.Unit = unitOf(name)
	r.Metrics[name] = m
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.note(format, args...)
}

func currentEnvironment() environment {
	head := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	return environment{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitHead:    head,
		Transport:  "loopback",
	}
}

// run executes one workload and returns its result. An error means the
// benchmark itself could not run; a wrong output is a result with
// Correct false.
func run(opt options) (*result, error) {
	idx := -1
	for i, w := range workloads {
		if w.name == opt.workload {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	env := currentEnvironment()
	res := &result{
		Workload: opt.workload, Size: workloads[idx].size, Seed: opt.seed,
		Traced: opt.traced, Smoke: opt.smoke, Env: env,
		Valid:   env.GOMAXPROCS <= env.Nproc,
		Metrics: map[string]metricOut{},
	}
	if opt.smoke {
		res.Size = "smoke size"
	}
	if !res.Valid {
		res.note("invalid: GOMAXPROCS %d > nproc %d, threads time-share cores", env.GOMAXPROCS, env.Nproc)
	}
	worlds := instantiate(idx, opt.seed, opt.smoke)
	res.Worlds = len(worlds)
	var err error
	if opt.traced {
		res.Worlds = 1 // the ledger describes the run's first world
		err = runTraced(worlds[0], opt, res)
	} else {
		err = runMeasured(worlds, opt, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// perWorld holds one metric's repetitions, a series per world.
type perWorld []series

// metric folds the repetitions into the reported value: the mean over
// the worlds of each world's median.
func (p perWorld) metric() metricOut {
	m := metricOut{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, s := range p {
		med := s.median()
		m.Value += med / float64(len(p))
		m.N += len(s)
		m.Min = math.Min(m.Min, s.min()/med)
		m.Max = math.Max(m.Max, s.max()/med)
	}
	m.Min *= m.Value
	m.Max *= m.Value
	return m
}

// runMeasured is the end-to-end run, tracing off: the worlds repeated
// in turn, each repetition after its set-up samples, until opt.seconds
// have passed and every world has run once.
func runMeasured(worlds []workloadRun, opt options, res *result) error {
	k := len(worlds)
	wall, cpu := make(perWorld, k), make(perWorld, k)
	bytesPerOp, allocsPerOp := make(perWorld, k), make(perWorld, k)
	rawWall, rawCPU := make(perWorld, k), make(perWorld, k)
	var setup, rawSetup, rss, slowdown series
	digests := make([]string, k)
	probe := newBoxProbe(runtime.GOMAXPROCS(0))
	start := time.Now()
	after := probe.slowdown()
	for ; res.Reps < k || (!opt.smoke && time.Since(start).Seconds() < opt.seconds); res.Reps++ {
		w := res.Reps % k
		before := after
		for i := 0; i < setupPerRep; i++ {
			s, err := worlds[w].setup()
			if err != nil {
				return err
			}
			rawSetup = append(rawSetup, s)
		}
		mid := probe.slowdown()
		for _, s := range rawSetup[len(setup):] {
			setup = append(setup, s/((before+mid)/2))
		}
		r, err := worlds[w].rep()
		if err != nil {
			return err
		}
		after = probe.slowdown()
		slow := (mid + after) / 2
		slowdown = append(slowdown, slow)
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Notes = append(res.Notes, r.notes...)
		if r.ops == 0 {
			return fmt.Errorf("world %d: repetition completed no operation", w)
		}
		wall[w] = append(wall[w], r.wall/slow)
		cpu[w] = append(cpu[w], r.cpu/slow)
		rawWall[w] = append(rawWall[w], r.wall)
		rawCPU[w] = append(rawCPU[w], r.cpu)
		bytesPerOp[w] = append(bytesPerOp[w], r.allocBytes/r.ops)
		allocsPerOp[w] = append(allocsPerOp[w], r.allocs/r.ops)
		rss = append(rss, r.peakRSSMB)
		if digests[w] == "" {
			digests[w] = r.digest
		} else if r.digest != digests[w] {
			res.fail("world %d: digest %s differs from its first repetition's %s", w, r.digest, digests[w])
		}
	}
	if err := checkGolden(opt, combineDigests(digests), res); err != nil {
		return err
	}

	res.Slowdown = metricOut{Value: slowdown.median(), Unit: "ratio", Min: slowdown.min(), Max: slowdown.max(), N: len(slowdown)}
	res.put("setup_s", metricOut{Value: setup.median(), Min: setup.min(), Max: setup.max(), N: len(setup), Raw: rawSetup.median()})
	wallOut, cpuOut := wall.metric(), cpu.metric()
	wallOut.Raw, cpuOut.Raw = rawWall.metric().Value, rawCPU.metric().Value
	res.put("wall_s", wallOut)
	res.put("cpu_s", cpuOut)
	res.put("alloc_bytes_per_op", bytesPerOp.metric())
	res.put("allocs_per_op", allocsPerOp.metric())
	// The smallest peak, not the middle one: when the collector runs
	// and whether two parallel replicas peak together only ever add to
	// what a repetition needs, and on paper-figs they add up to 80 %.
	res.put("peak_rss_mb", metricOut{Value: rss.min(), Min: rss.min(), Max: rss.max(), N: len(rss)})
	return nil
}

// checkGolden compares the run's digest with the one pinned for this
// workload and seed, or pins it under -update. A seed with no pin is
// still checked for repeating exactly across the run's repetitions.
func checkGolden(opt options, digest string, res *result) error {
	res.Digest = digest
	if digest == "" {
		return nil
	}
	path := goldenPath(opt.goldenDir, opt.workload, opt.seed, opt.smoke)
	if opt.update {
		res.Pinned = true
		return writeGolden(path, digest)
	}
	want, err := readGolden(path)
	if err != nil {
		return err
	}
	res.Pinned = want != ""
	switch {
	case !res.Pinned:
		res.note("no digest pinned for seed %d: output checked only for repeating across repetitions", opt.seed)
	case want != digest:
		res.fail("digest %s differs from %s pinned in %s: a simulated statistic changed", digest, want, path)
	}
	return nil
}

// runTraced is the per-layer run.
func runTraced(wl workloadRun, opt options, res *result) error {
	tr := &tracedRun{result: res}
	probe := newBoxProbe(runtime.GOMAXPROCS(0))
	before := probe.slowdown()
	if err := wl.traced(tr); err != nil {
		return err
	}
	// The ledger's times are as the clock read them; this says what
	// kind of spell the box was in while it did.
	tr.set("bench.box_slowdown", (before+probe.slowdown())/2)
	res.Reps = 1
	for _, spec := range perLayerSpecs {
		if _, ok := res.Metrics[spec.name]; !ok {
			tr.set(spec.name, 0) // the workload bypasses this layer
		}
	}
	if len(res.Metrics) != len(perLayerSpecs) {
		return fmt.Errorf("%d per-layer metrics set but not in perLayerSpecs", len(res.Metrics)-len(perLayerSpecs))
	}
	res.Spans = mergeRecorders(tr.recs).stats()
	if opt.traceOut != "" {
		return outfile.Write(opt.traceOut, func(w io.Writer) error { return writeChromeTrace(w, tr.recs) })
	}
	return nil
}

func unitOf(name string) string {
	for _, specs := range [][]metricSpec{endToEndSpecs, perLayerSpecs} {
		for _, s := range specs {
			if s.name == name {
				return s.unit
			}
		}
	}
	return ""
}

// report prints every metric by name with its unit, then the one-line
// summary the driver reads, which must stay the last line of stdout.
func report(w io.Writer, res *result) error {
	specs := endToEndSpecs
	if res.Traced {
		specs = perLayerSpecs
	}
	fmt.Fprintf(w, "%s seed=%d reps=%d %s nproc=%d GOMAXPROCS=%d %s head=%s (%s)\n",
		res.Workload, res.Seed, res.Reps, res.Env.GoVersion, res.Env.Nproc, res.Env.GOMAXPROCS,
		res.Env.Transport, res.Env.GitHead, res.Size)
	if !res.Traced {
		fmt.Fprintf(w, "  times are seconds at the reference speed; the box ran %.3f times slower [min %.3f max %.3f]\n",
			res.Slowdown.Value, res.Slowdown.Min, res.Slowdown.Max)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]lineMetric{}}
	for _, s := range specs {
		m := res.Metrics[s.name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", s.name, m.Value)
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-6s [min %.6g max %.6g n=%d]", s.name, m.Value, m.Unit, m.Min, m.Max, m.N)
		if m.Raw != 0 {
			fmt.Fprintf(w, " raw %.6g", m.Raw)
		}
		fmt.Fprintln(w)
		last.Metrics[s.name] = lineMetric{m.Value, m.Unit}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeResult(path string, res *result) error {
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return outfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(append(buf, '\n'))
		return err
	})
}

var errFailed = errors.New("bench: run incorrect")

func mainErr() error {
	var (
		opt     options
		trace   int
		compare bool
		spec    string
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run: steady-2k, attack-40k, scale-100k, paper-figs or live-12")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&opt.seconds, "seconds", 15, "keep repeating the workload until this many seconds have passed")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny sizes, two worlds run once each (bench_test.go uses them)")
	flag.BoolVar(&opt.update, "update", false, "pin this run's digest in -golden instead of checking it")
	flag.StringVar(&opt.goldenDir, "golden", "golden", "directory of pinned digests")
	flag.StringVar(&opt.out, "out", "", "also write the full result as JSON to this file")
	flag.StringVar(&opt.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	flag.BoolVar(&compare, "compare", false, "compare two result files or directories given as arguments; exit non-zero on a regression")
	flag.StringVar(&spec, "spec", "../BENCHMARK.json", "benchmark definition -compare reads the bounds from")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			return errors.New("usage: bench -compare A B")
		}
		return compareSets(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	opt.traced = trace == 1
	res, err := run(opt)
	if err != nil {
		return err
	}
	if opt.out != "" {
		if err := writeResult(opt.out, res); err != nil {
			return err
		}
	}
	stdout := bufio.NewWriter(os.Stdout) // its first write error sticks until Flush
	if err := report(stdout, res); err != nil {
		return err
	}
	if err := stdout.Flush(); err != nil {
		return err
	}
	if !res.Correct {
		return errFailed
	}
	return nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
