// Command ddexp regenerates every table and figure of the paper's
// evaluation section and prints the rows/series the paper reports.
//
// Usage:
//
//	ddexp [-scale quick|paper] [-csv dir] [-svg dir] [-fig all|<a key of ddpolice.Figures>]
//
// Every figure is one entry of the table ddpolice.Figures; this command
// is flag parsing, a check of the selected entries' plans, and one loop
// over them. At -scale paper the full
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
)

func main() {
	figKeys := ddpolice.FigureKeys()
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
	figFlag := flag.String("fig", "all", "figure to regenerate: "+strings.Join(figKeys, ", "))
	csvDir := flag.String("csv", "", "also write one CSV per figure into this directory")
	svgDir := flag.String("svg", "", "also render one SVG per figure into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	tracePath := flag.String("trace", "", "write an execution trace to this file (go tool trace)")
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
	var figs []ddpolice.Figure
	for _, fig := range ddpolice.Figures {
		if *figFlag == "all" || slices.Contains(fig.Keys, *figFlag) {
			figs = append(figs, fig)
		}
	}
	// A bad plan fails here, not after every figure ahead of it has run.
	if err := ddpolice.ValidateFigures(figs); err != nil {
		fatal(err)
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

	for _, fig := range figs {
		data, err := fig.Execute(scale)
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
