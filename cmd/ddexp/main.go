// Command ddexp regenerates every table and figure of the paper's
// evaluation section and prints the rows/series the paper reports.
//
// Usage:
//
//	ddexp [-scale quick|paper] [-csv dir] [-svg dir] [-fig all|<one of figValues>]
//
// At -scale paper the full regeneration takes tens of minutes on one
// core; -scale quick replays every experiment at reduced size in a few
// seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"ddpolice"
	"ddpolice/internal/outfile"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
	dtrace "ddpolice/internal/trace"
)

// figValues is every value -fig accepts; the usage string and the
// unknown-value error are both built from it.
var figValues = []string{"all", "5", "6", "9", "10", "11", "12", "13", "14",
	"freq", "cheat", "table1", "radius", "liar", "ablate", "baseline", "blacklist",
	"structured", "faults", "detect", "overload", "trace"}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
	figFlag := flag.String("fig", "all", "figure to regenerate: "+strings.Join(figValues, ", "))
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
	knownFig := false
	for _, v := range figValues {
		knownFig = knownFig || *figFlag == v
	}
	if !knownFig {
		if *figFlag == "scale" {
			fmt.Fprintln(os.Stderr, "ddexp: -fig scale is gone: tick cost against overlay size is measured by the repository benchmark (go run -C bench . -workload scale-100k)")
		}
		fmt.Fprintf(os.Stderr, "ddexp: unknown -fig %q; valid values: %s\n", *figFlag, strings.Join(figValues, ", "))
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
	csvOut = *csvDir
	svgOut = *svgDir

	want := func(keys ...string) bool {
		if *figFlag == "all" {
			return true
		}
		for _, k := range keys {
			if *figFlag == k {
				return true
			}
		}
		return false
	}

	if want("table1") {
		printTable1()
	}
	if want("5", "6") {
		if err := printFig5And6(); err != nil {
			fatal(err)
		}
	}
	if want("radius") {
		if err := printRadiusStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("liar") {
		if err := printLiarStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("ablate") {
		if err := printAblationStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("baseline") {
		if err := printBaselineStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("blacklist") {
		if err := printBlacklistStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("structured") {
		if err := printStructuredStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("faults") {
		if err := printFaultsStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("detect") {
		if err := printDetectStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("overload") {
		if err := printOverloadStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("trace") {
		if err := printTraceStudy(scale); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := captureTrace(scale, *traceOut, *traceSmp); err != nil {
			fatal(err)
		}
	}
	if want("9", "10", "11") {
		if err := printFig9To11(scale); err != nil {
			fatal(err)
		}
	}
	if want("12") {
		if err := printFig12(scale); err != nil {
			fatal(err)
		}
	}
	if want("13", "14") {
		if err := printFig13And14(scale); err != nil {
			fatal(err)
		}
	}
	if want("freq") {
		if err := printFreqStudy(scale); err != nil {
			fatal(err)
		}
	}
	if want("cheat") {
		if err := printCheatStudy(scale); err != nil {
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

// csvOut and svgOut are the optional artifact output directories.
var csvOut, svgOut string

// saveSVG renders one figure when -svg is set.
func saveSVG(name string, render func(w io.Writer) error) {
	if svgOut == "" {
		return
	}
	if err := outfile.Write(svgOut+"/"+name, render); err != nil {
		fatal(err)
	}
}

// saveCSV writes one figure's CSV when -csv is set.
func saveCSV(name string, render func(w io.Writer) error) {
	if csvOut == "" {
		return
	}
	if err := outfile.Write(csvOut+"/"+name, render); err != nil {
		fatal(err)
	}
}

func section(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

func printTable1() {
	section("Table 1: Neighbor_Traffic message body")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "field\tbyte offset\tsize")
	fmt.Fprintf(w, "Source IP Address\t%d\t4\n", protocol.OffsetSourceIP)
	fmt.Fprintf(w, "Suspect IP Address\t%d\t4\n", protocol.OffsetSuspectIP)
	fmt.Fprintf(w, "Source timestamp\t%d\t4\n", protocol.OffsetTimestamp)
	fmt.Fprintf(w, "# of Outgoing queries\t%d\t4\n", protocol.OffsetOutgoing)
	fmt.Fprintf(w, "# of Incoming queries\t%d\t4\n", protocol.OffsetIncoming)
	w.Flush()
	fmt.Printf("payload type 0x%02x, body %d bytes, full message %d bytes\n",
		protocol.TypeNeighborTraffic, protocol.NeighborTrafficBodySize,
		protocol.HeaderSize+protocol.NeighborTrafficBodySize)
}

func printFig5And6() error {
	pts, err := ddpolice.Fig5And6()
	if err != nil {
		return err
	}
	saveCSV("fig5_6_saturation.csv", func(w io.Writer) error { return ddpolice.SaturationCSV(w, pts) })
	saveSVG("fig5.svg", func(w io.Writer) error { return ddpolice.Fig5SVG(w, pts) })
	saveSVG("fig6.svg", func(w io.Writer) error { return ddpolice.Fig6SVG(w, pts) })
	section("Figures 5 & 6: single-peer saturation (testbed calibration)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "offered (q/min)\tprocessed (q/min)\tdrop rate (%)")
	for _, p := range pts {
		fmt.Fprintf(w, "%.0f\t%.0f\t%.1f\n", p.OfferedPerMin, p.ProcessedPerMin, p.DropRate*100)
	}
	return w.Flush()
}

func printFig9To11(scale ddpolice.Scale) error {
	pts, err := ddpolice.Fig9To11(scale)
	if err != nil {
		return err
	}
	saveCSV("fig9_10_11_sweep.csv", func(w io.Writer) error { return ddpolice.SweepCSV(w, pts) })
	saveSVG("fig9.svg", func(w io.Writer) error { return ddpolice.Fig9SVG(w, pts) })
	saveSVG("fig10.svg", func(w io.Writer) error { return ddpolice.Fig10SVG(w, pts) })
	saveSVG("fig11.svg", func(w io.Writer) error { return ddpolice.Fig11SVG(w, pts) })
	section("Figure 9: average traffic cost (messages/min)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "agents\tno attack\tDDoS, no defense\tDDoS + DD-POLICE")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.0f\n", p.Agents, p.TrafficBaseline, p.TrafficAttack, p.TrafficDefended)
	}
	w.Flush()

	section("Figure 10: average response time (s)")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "agents\tno attack\tDDoS, no defense\tDDoS + DD-POLICE")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\n", p.Agents, p.ResponseBaseline, p.ResponseAttack, p.ResponseDefended)
	}
	w.Flush()

	section("Figure 11: average success rate (%)")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "agents\tno attack\tDDoS, no defense\tDDoS + DD-POLICE\tdetections\tFN\tFP")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%d\t%d\t%d\n", p.Agents,
			p.SuccessBaseline*100, p.SuccessAttack*100, p.SuccessDefended*100,
			p.Detections, p.FalseNegatives, p.FalsePositives)
	}
	return w.Flush()
}

func printFig12(scale ddpolice.Scale) error {
	tl, err := ddpolice.Fig12(scale)
	if err != nil {
		return err
	}
	saveCSV("fig12_damage.csv", func(w io.Writer) error { return ddpolice.TimelinesCSV(w, tl) })
	saveSVG("fig12.svg", func(w io.Writer) error { return ddpolice.Fig12SVG(w, tl) })
	section(fmt.Sprintf("Figure 12: damage rate D(t) over time (%d agents)", scale.TimelineAgents))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	head := []string{"minute"}
	for _, v := range tl {
		head = append(head, v.Label)
	}
	fmt.Fprintln(w, strings.Join(head, "\t"))
	for m := 0; m < len(tl[0].Damage); m++ {
		row := []string{fmt.Sprint(m)}
		for _, v := range tl {
			if m < len(v.Damage) {
				row = append(row, fmt.Sprintf("%.1f", v.Damage[m]))
			} else {
				row = append(row, "-")
			}
		}
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	return w.Flush()
}

func printFig13And14(scale ddpolice.Scale) error {
	pts, err := ddpolice.Fig13And14(scale)
	if err != nil {
		return err
	}
	saveCSV("fig13_14_ct.csv", func(w io.Writer) error { return ddpolice.CTPointsCSV(w, pts) })
	saveSVG("fig13.svg", func(w io.Writer) error { return ddpolice.Fig13SVG(w, pts) })
	saveSVG("fig14.svg", func(w io.Writer) error { return ddpolice.Fig14SVG(w, pts) })
	section("Figures 13 & 14: errors and damage recovery time vs cut threshold")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CT\tfalse negative\tfalse positive\tfalse judgment\trecovery (min)\tstable damage (%)")
	for _, p := range pts {
		rec := fmt.Sprint(p.RecoveryMinutes)
		if p.RecoveryMinutes < 0 {
			rec = "never"
		}
		fmt.Fprintf(w, "%g\t%d\t%d\t%d\t%s\t%.1f\n",
			p.CutThreshold, p.FalseNegatives, p.FalsePositives, p.FalseJudgment, rec, p.StableDamage)
	}
	return w.Flush()
}

func printFreqStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.ExchangeFrequencyStudy(scale, []float64{1, 2, 4, 5, 10})
	if err != nil {
		return err
	}
	saveCSV("freq_study.csv", func(w io.Writer) error { return ddpolice.FreqPointsCSV(w, pts) })
	section("§3.7.1: neighbor-list exchange frequency study")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tlist msgs\tfalse negative\tfalse positive\trecovery (min)")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n",
			p.Label, p.ListMessages, p.FalseNegatives, p.FalsePositives, p.RecoveryMinutes)
	}
	return w.Flush()
}

func printCheatStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.CheatingStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("cheat_study.csv", func(w io.Writer) error { return ddpolice.CheatPointsCSV(w, pts) })
	section("§3.4: Neighbor_Traffic cheating strategies")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tdetections\tfalse negative\tfalse positive\tsuccess (%)")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\n",
			p.Strategy, p.Detections, p.FalseNegatives, p.FalsePositives, p.Success*100)
	}
	return w.Flush()
}

func printTelemetryStudy(scale ddpolice.Scale) error {
	rows, err := ddpolice.TelemetryStudy(scale)
	if err != nil {
		return err
	}
	section("Run telemetry: per-stage wall-clock breakdown")
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

func printRadiusStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.RadiusStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("radius_study.csv", func(w io.Writer) error { return ddpolice.RadiusPointsCSV(w, pts) })
	section("DD-POLICE-r: buddy groups from r-hop list propagation")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "radius\tdetections\tFN\tFP\tlist msgs\tsuccess (%)\trecovery (min)")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.1f\t%d\n",
			p.Radius, p.Detections, p.FalseNegatives, p.FalsePositives,
			p.ListMessages, p.Success*100, p.RecoveryMinutes)
	}
	return w.Flush()
}

func printLiarStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.LiarStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("liar_study.csv", func(w io.Writer) error { return ddpolice.LiarPointsCSV(w, pts) })
	section("§3.1: lying about neighbor lists vs the verification check")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tdetections\tFP\tsuccess (%)\tverify msgs")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%d\n",
			p.Label, p.Detections, p.FalsePositives, p.Success*100, p.VerifyMsgs)
	}
	return w.Flush()
}

func printAblationStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.AblationStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("ablation_study.csv", func(w io.Writer) error { return ddpolice.AblationPointsCSV(w, pts) })
	section("Modeling-decision ablations (DESIGN.md, Calibration)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tsuccess defended (%)\tsuccess undefended (%)\tdetections\tFN\tFP")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%d\t%d\t%d\n",
			p.Label, p.Success*100, p.SuccessNoDef*100,
			p.Detections, p.FalseNegatives, p.FalsePositives)
	}
	return w.Flush()
}

func printBaselineStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.BaselineDefenseStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("baseline_study.csv", func(w io.Writer) error { return ddpolice.BaselinePointsCSV(w, pts) })
	section("Defense comparison: DD-POLICE vs fair-share load balancing [21]")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tsuccess (%)\tresponse (s)\tdetections\tFN")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%.1f\t%.3f\t%d\t%d\n",
			p.Label, p.Success*100, p.Response, p.Detections, p.FalseNegatives)
	}
	return w.Flush()
}

func printBlacklistStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.BlacklistStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("blacklist_study.csv", func(w io.Writer) error { return ddpolice.BlacklistPointsCSV(w, pts) })
	section("Future work (§5): blacklisting rejoining agents")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tstable damage (%)\tdetections\tsuccess (%)")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%.1f\t%d\t%.1f\n", p.Label, p.StableDamage, p.Detections, p.Success*100)
	}
	return w.Flush()
}

func printFaultsStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.FaultsStudy(scale, []float64{0, 0.1, 0.2, 0.4})
	if err != nil {
		return err
	}
	saveCSV("faults_study.csv", func(w io.Writer) error { return ddpolice.FaultPointsCSV(w, pts) })
	saveSVG("faults.svg", func(w io.Writer) error { return ddpolice.FaultsSVG(w, pts) })
	section("Fault plane: judgment quality under control loss x churn")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "control loss\tchurn\tdetections\tFN\tFP\tfalse judgment\tsuccess (%)")
	for _, p := range pts {
		fmt.Fprintf(w, "%.0f%%\t%s\t%d\t%d\t%d\t%d\t%.1f\n",
			p.ControlLoss*100, p.Churn, p.Detections,
			p.FalseNegatives, p.FalsePositives, p.FalseJudgment, p.Success*100)
	}
	return w.Flush()
}

func printOverloadStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.OverloadStudy(scale, []float64{1, 3, 10})
	if err != nil {
		return err
	}
	saveCSV("overload_study.csv", func(w io.Writer) error { return ddpolice.OverloadPointsCSV(w, pts) })
	saveSVG("overload.svg", func(w io.Writer) error { return ddpolice.OverloadSVG(w, pts) })
	section("Overload plane: control delivery and time-to-cut vs offered-over-capacity")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "factor\tplane\tcontrol delivery (%)\tquery shed (%)\ttime to cut (s)\tdetections\tdegraded")
	for _, p := range pts {
		plane := "off"
		if p.Plane {
			plane = "on"
		}
		cut := "never"
		if p.TimeToCutSec >= 0 {
			cut = fmt.Sprintf("%.0f", p.TimeToCutSec)
		}
		fmt.Fprintf(w, "%.0fx\t%s\t%.1f\t%.1f\t%s\t%d\t%d\n",
			p.Factor, plane, p.ControlDelivery*100, p.QueryShedRate*100,
			cut, p.Detections, p.Degraded)
	}
	return w.Flush()
}

func printTraceStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.TraceStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("trace_study.csv", func(w io.Writer) error { return ddpolice.TracePointsCSV(w, pts) })
	saveSVG("trace.svg", func(w io.Writer) error { return ddpolice.TraceSVG(w, pts) })
	section("Causal traces: detection critical path and flood fan-out vs agents")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "agents\ttraces\tspans\twarnings\tcuts\treq (s)\tindicator (s)\tcut (s)\thops/query\tmax depth")
	for _, p := range pts {
		stage := func(v float64) string {
			if v < 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", v)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t%.1f\t%d\n",
			p.Agents, p.Traces, p.Spans, p.Warnings, p.Cuts,
			stage(p.MeanRequest), stage(p.MeanIndic), stage(p.MeanCut),
			p.HopsPerQuery, p.MaxDepth)
	}
	return w.Flush()
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

func printDetectStudy(scale ddpolice.Scale) error {
	rep, err := ddpolice.DetectStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("detect_timelines.csv", func(w io.Writer) error { return ddpolice.DetectPointsCSV(w, rep.Points) })
	saveCSV("detect_latency_cdf.csv", func(w io.Writer) error { return ddpolice.DetectCDFCSV(w, rep) })
	saveCSV("detect_overhead.csv", func(w io.Writer) error { return ddpolice.DetectOverheadCSV(w, rep) })
	saveSVG("detect_latency_cdf.svg", func(w io.Writer) error { return ddpolice.DetectCDFSVG(w, rep) })
	section("Detection pipeline: journal-reconstructed timelines")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "suspect\tagent\tflood start\tfirst warning\tquorum\tcut\tlatency (s)\tNT reports\tNT timeouts")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%d\t%v\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\n",
			p.Suspect, p.Agent, p.FloodStart, p.FirstWarning,
			p.QuorumAt, p.CutAt, p.LatencySec, p.Reports, p.Timeouts)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("journal: %d events (%d dropped); %d cuts; %d NT msgs (%.1f per cut)\n",
		rep.Events, rep.Dropped, rep.Cuts, rep.NTMessages, rep.NTPerCut)
	if n := len(rep.CDF); n > 0 {
		fmt.Printf("latency p50 %.0fs, p90 %.0fs, max %.0fs over %d cut suspects\n",
			rep.CDF[(n-1)/2].LatencySec, rep.CDF[(n-1)*9/10].LatencySec,
			rep.CDF[n-1].LatencySec, n)
	}
	return nil
}

func printStructuredStudy(scale ddpolice.Scale) error {
	pts, err := ddpolice.StructuredStudy(scale)
	if err != nil {
		return err
	}
	saveCSV("structured_study.csv", func(w io.Writer) error { return ddpolice.StructuredPointsCSV(w, pts) })
	section("Future work (§5): overlay DDoS on a structured (Chord) P2P")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "agents\tunstructured success (%)\tstructured success (%)\tDHT mean hops")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\n",
			p.Agents, p.UnstructuredSuccess*100, p.StructuredSuccess*100, p.StructuredMeanHops)
	}
	return w.Flush()
}
