// Command ddexp regenerates every table and figure of the paper's
// evaluation section and prints the rows/series the paper reports.
//
// Usage:
//
//	ddexp [-scale quick|paper] [-csv dir] [-svg dir] [-fig all|<a key of ddpolice.Figures>]
//
// Every figure is one entry of the table ddpolice.Figures; this command
// is flag parsing plus one loop over it. At -scale paper the full
// regeneration takes about a minute on two cores (measured: 51-65 s);
// -scale quick replays every experiment at reduced size in about 5 s.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"ddpolice"
	"ddpolice/internal/outfile"
	"ddpolice/internal/telemetry"
	dtrace "ddpolice/internal/trace"
)

func main() {
	figKeys := ddpolice.FigureKeys()
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
	figFlag := flag.String("fig", "all", "figure to regenerate: "+strings.Join(figKeys, ", "))
	csvDir := flag.String("csv", "", "also write one CSV per figure into this directory")
	svgDir := flag.String("svg", "", "also render one SVG per figure into this directory")
	telemetryFlag := flag.Bool("telemetry", false, "run the telemetry study and print per-stage timing tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	tracePath := flag.String("trace", "", "write an execution trace to this file (go tool trace)")
	traceOut := flag.String("trace-out", "", "capture causal traces of one policed timeline run at the chosen scale (.json = Chrome/Perfetto, else NDJSON for ddtrace)")
	traceSmp := flag.Float64("trace-sample", 1.0, "head-sampling rate for -trace-out (0..1)")
	flag.Parse()

	var scale ddpolice.Scale
	switch *scaleFlag {
	case "quick":
		scale = ddpolice.QuickScale()
	case "paper":
		scale = ddpolice.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "ddexp: unknown -scale %q; valid values: quick, paper\n", *scaleFlag)
		os.Exit(2)
	}
	if !slices.Contains(figKeys, *figFlag) {
		if *figFlag == "scale" {
			fmt.Fprintln(os.Stderr, "ddexp: -fig scale is gone: tick cost against overlay size is measured by the repository benchmark (go run -C bench . -workload scale-100k)")
		}
		fmt.Fprintf(os.Stderr, "ddexp: unknown -fig %q; valid values: %s\n", *figFlag, strings.Join(figKeys, ", "))
		os.Exit(2)
	}

	if *cpuProfile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		deferCleanup(stop)
	}
	if *tracePath != "" {
		stop, err := telemetry.StartTrace(*tracePath)
		if err != nil {
			fatal(err)
		}
		deferCleanup(stop)
	}
	defer runCleanups()
	for _, dir := range []string{*csvDir, *svgDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}

	for _, fig := range ddpolice.Figures {
		// The -trace-out capture keeps its place in the print order:
		// after the studies, ahead of the Fig 9-14 sweeps.
		if fig.Keys[0] == "9" && *traceOut != "" {
			if err := captureTrace(scale, *traceOut, *traceSmp); err != nil {
				fatal(err)
			}
		}
		if *figFlag != "all" && !slices.Contains(fig.Keys, *figFlag) {
			continue
		}
		data, err := fig.Run(scale)
		if err != nil {
			fatal(err)
		}
		for _, t := range fig.Tables {
			save(*csvDir, t.CSV, func(w io.Writer) error { return t.WriteCSV(w, data) })
		}
		for _, s := range fig.SVGs {
			save(*svgDir, s.Name, func(w io.Writer) error { return s.Render(w, data) })
		}
		if err := fig.WriteText(os.Stdout, scale, data); err != nil {
			fatal(err)
		}
	}
	if *telemetryFlag {
		if err := printTelemetryStudy(scale); err != nil {
			fatal(err)
		}
	}
}

// cleanups holds profile/trace stop functions. fatal exits with
// os.Exit, which skips deferred calls, so both the normal return path
// and fatal drain this list — otherwise a failed figure would leave a
// truncated pprof file behind.
var cleanups []func() error

func deferCleanup(fn func() error) { cleanups = append(cleanups, fn) }

func runCleanups() {
	for i := len(cleanups) - 1; i >= 0; i-- {
		if err := cleanups[i](); err != nil {
			fmt.Fprintln(os.Stderr, "ddexp:", err)
		}
	}
	cleanups = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddexp:", err)
	runCleanups()
	os.Exit(1)
}

// save writes one artifact into dir; an unset directory flag, or a
// table that declares no CSV name, writes nothing.
func save(dir, name string, render func(w io.Writer) error) {
	if dir == "" || name == "" {
		return
	}
	if err := outfile.Write(dir+"/"+name, render); err != nil {
		fatal(err)
	}
}

func printTelemetryStudy(scale ddpolice.Scale) error {
	rows, err := ddpolice.TelemetryStudy(scale)
	if err != nil {
		return err
	}
	fmt.Println("\n== Run telemetry: per-stage wall-clock breakdown ==")
	for _, row := range rows {
		fmt.Printf("\n-- %s --\n", row.Label)
		if err := telemetry.WriteStageTable(os.Stdout, row.Stages); err != nil {
			return err
		}
		if len(row.Counters.Counters) > 0 || len(row.Counters.Gauges) > 0 {
			fmt.Println()
			if err := row.Counters.WriteTable(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// captureTrace runs one policed timeline run at the chosen scale with
// the causal tracer attached and writes the span stream by extension.
func captureTrace(scale ddpolice.Scale, path string, sample float64) error {
	cfg := ddpolice.DefaultConfig()
	cfg.NumPeers = scale.NumPeers
	cfg.DurationSec = scale.DurationSec
	cfg.AttackStartSec = scale.AttackStartSec
	cfg.Seed = scale.Seed
	cfg.NumAgents = scale.TimelineAgents
	cfg.PoliceEnabled = true
	tr := dtrace.New(sample, 0)
	cfg.Trace = tr
	if _, err := ddpolice.Run(cfg); err != nil {
		return err
	}
	err := outfile.Write(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".json") {
			return tr.WriteChromeTrace(w)
		}
		return tr.WriteNDJSON(w)
	})
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d spans in %d traces -> %s\n", tr.Len(), tr.TraceCount(), path)
	return nil
}
