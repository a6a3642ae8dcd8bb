package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readSet loads the end-to-end results under path (a result file, or a
// directory of them) by workload. A set may hold several results of a
// workload, one per seed.
func readSet(path string) (map[string][]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	set := map[string][]*result{}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.Traced {
			continue // not a result, or per-layer metrics, which carry no bound
		}
		if !r.Valid {
			return nil, fmt.Errorf("%s: result is marked invalid (GOMAXPROCS > nproc)", f)
		}
		set[r.Workload] = append(set[r.Workload], &r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end results", path)
	}
	return set, nil
}

// pooled folds one metric of a workload's results into one: the median
// of their values, the widest of their ranges (which for several seeds
// includes the values themselves), and all their repetitions.
func pooled(results []*result, name string) (metricOut, error) {
	var values series
	m := metricOut{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, r := range results {
		one, ok := r.Metrics[name]
		if !ok {
			return m, fmt.Errorf("workload %s seed %d: no metric %s", r.Workload, r.Seed, name)
		}
		values = append(values, one.Value)
		m.Min = math.Min(m.Min, one.Min)
		m.Max = math.Max(m.Max, one.Max)
		m.N += one.N
	}
	m.Value = values.median()
	return m, nil
}

// verdicts of one workload x metric pairing.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of the parent (a) with the change (b).
// worse is the relative change in the metric's bad direction. The
// pairing is unresolved, not unchanged, when either side's own min-max
// range is wider than the bound, unless every repetition of b reads
// better than every repetition of a.
func judge(a, b metricOut, better string, bound float64) (worse float64, verdict string) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse = sign * (b.Value - a.Value) / a.Value
	spread := func(m metricOut) float64 { return (m.Max - m.Min) / m.Value }
	allBetter := b.Max < a.Min
	if better == "higher" {
		allBetter = b.Min > a.Max
	}
	switch {
	case worse > bound:
		return worse, verdictRegression
	case (spread(a) > bound || spread(b) > bound) && !allBetter:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareSets prints, per workload x end-to-end metric, both medians,
// the relative difference and the bound, and returns an error when any
// pairing regressed or b failed a larger share of what it attempted.
func compareSets(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	regressions := 0
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s missing from one set", wl.Name)
		}
		fmt.Fprintf(w, "%s  (A %d result(s), B %d)\n", wl.Name, len(ra), len(rb))
		if ea, eb := ra[0].Env, rb[0].Env; ea.Nproc != eb.Nproc || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.GoVersion != eb.GoVersion {
			fmt.Fprintf(w, "  note: environments differ (%+v vs %+v)\n", ea, eb)
		}
		for _, m := range spec.EndToEnd {
			ma, err := pooled(ra, m.Name)
			if err != nil {
				return err
			}
			mb, err := pooled(rb, m.Name)
			if err != nil {
				return err
			}
			worse, verdict := judge(ma, mb, m.Better, m.Bound)
			if verdict == verdictRegression {
				regressions++
			}
			fmt.Fprintf(w, "  %-20s A %14.6g  B %14.6g %-5s  worse by %+7.2f%%  bound %5.1f%%  %s\n",
				m.Name, ma.Value, mb.Value, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
		share := func(rs []*result) (failed, attempted int) {
			for _, r := range rs {
				failed += r.Failed
				attempted += r.Attempted
			}
			return
		}
		fa, na := share(ra)
		fb, nb := share(rb)
		fmt.Fprintf(w, "  %-20s A %d/%d  B %d/%d\n", "failed/attempted", fa, na, fb, nb)
		if float64(fb)/float64(nb) > float64(fa)/float64(na) {
			regressions++
			fmt.Fprintf(w, "  %s: B fails a larger share\n", verdictRegression)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}
