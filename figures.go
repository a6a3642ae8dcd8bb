package ddpolice

// The figure table: one declaration per figure or study that cmd/ddexp
// regenerates. An entry names the -fig keys that select it, its plan —
// the simulations behind it, declared as labelled Configs in run order —
// the row builder that turns the finished runs into its data, and its
// tables — each column declared once with its CSV header, its text
// header, its value and its two formats — plus the CSV and SVG artifacts
// written from the same data. One executor (Figure.Execute) runs every
// plan, ValidateFigures checks every plan before anything runs, one text
// renderer and one CSV renderer serve every entry; adding a figure is
// adding an entry.

import (
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"ddpolice/internal/capacity"
	"ddpolice/internal/protocol"
)

// Figure is one entry of the figure table.
type Figure struct {
	Keys []string // -fig values that select this entry
	// Plan declares the figure's simulations as a function of the scale,
	// in the order they run: each Row a label, unique within the figure,
	// and the Config to run. nil: the figure runs none.
	Plan func(Scale) []Row
	// Observe, when set, condenses a run's Journal or Telemetry
	// into Row.Observed as soon as that run ends. Its runs execute once
	// each, on their own Config.Seed, at every scale.
	Observe func(Row) any
	// Build turns the finished rows into the data everything below
	// renders; nil: the rows themselves.
	Build  func(Scale, []Row) (any, error)
	Tables []Table
	SVGs   []SVG
	Notes  func(data any) []string // summary lines printed under the text tables
}

// Table is one row list of a figure with its column declarations. It is
// written whole as one CSV artifact and printed as zero or more text
// sections, each over all or some of the columns.
type Table struct {
	CSV      string    // artifact name; "" writes no CSV
	Sections []Section // none: the table is CSV only
	Columns  []Column
	Rows     func(data any) any      // picks the row slice out of the figure's data; nil: the data is the slice
	Series   func(data any) []Column // further columns known only from the data (Fig 12: one per timeline)
}

// Section is one titled text table. "{agents}" in the title stands for
// the scale's TimelineAgents.
type Section struct {
	Title string
	Only  []string // CSV headers of the columns shown; nil shows all
}

// Column is one declared column: both headers, the value, both formats.
// A nil value is a missing cell: empty in CSV, "-" in text.
type Column struct {
	CSV, Text       string
	val             func(row any) any
	csvFmt, textFmt format
}

// SVG is one chart artifact rendered from the figure's data.
type SVG struct {
	Name   string
	Render func(w io.Writer, data any) error
}

type format func(v any) string

func verb(f string) format { return func(v any) string { return fmt.Sprintf(f, v) } }

// scaled formats a float64 multiplied by k: fractions are kept in
// [0,1] (and written so to CSV) but printed as percentages.
func scaled(f string, k float64) format {
	return func(v any) string { return fmt.Sprintf(f, v.(float64)*k) }
}

// orNegative prints sentinel in place of a negative value — the "never
// happened" marker of the recovery, time-to-cut and trace-stage columns.
func orNegative(sentinel string, f format) format {
	return func(v any) string {
		if strings.HasPrefix(raw(v), "-") {
			return sentinel
		}
		return f(v)
	}
}

// bit writes a bool as 0 or 1, the one CSV cell that is not raw.
func bit(v any) string {
	if v.(bool) {
		return "1"
	}
	return "0"
}

var (
	raw = verb("%v") // %g for floats, %d for integers
	f0  = verb("%.0f")
	f1  = verb("%.1f")
	f3  = verb("%.3f")
	pct = scaled("%.1f", 100)
)

// col declares one column over rows of type T.
func col[T any](csvHead, textHead string, val func(T) any, csvFmt, textFmt format) Column {
	return Column{csvHead, textHead, func(r any) any { return val(r.(T)) }, csvFmt, textFmt}
}

// table completes the common shape of an entry: data written whole to
// one CSV and printed as one section.
func (f Figure) table(csvName, title string, cols []Column, svgs ...SVG) Figure {
	f.Tables = []Table{{CSV: csvName, Sections: []Section{{Title: title}}, Columns: cols}}
	f.SVGs = svgs
	return f
}

// fanoutColumns declares the fan-out study's columns, one per hop of the
// TTL every run of its plan floods with.
func fanoutColumns() []Column {
	cols := []Column{
		col("agents", "agents", func(p FanoutPoint) any { return p.Agents }, raw, raw),
		col("queries", "good queries", func(p FanoutPoint) any { return p.Queries }, raw, raw),
	}
	for d := range DefaultConfig().TTL {
		cols = append(cols, col(fmt.Sprintf("depth_%d", d+1), fmt.Sprintf("hop %d", d+1),
			func(p FanoutPoint) any { return p.Depth[d] }, raw, f1))
	}
	return append(cols, col("total_per_query", "peers/query", func(p FanoutPoint) any { return p.Total }, raw, f1))
}

// svg adapts a typed chart builder to the table's signature.
func svg[D any](name string, render func(io.Writer, D) error) SVG {
	return SVG{name, func(w io.Writer, d any) error { return render(w, d.(D)) }}
}

// The columns more than one study shows of a finished Row, declared once.
var (
	detections    = col("detections", "detections", func(r Row) any { return r.Result.Detections }, raw, raw)
	falseNeg      = col("false_negatives", "FN", func(r Row) any { return r.Result.FalseNegatives }, raw, raw)
	falsePos      = col("false_positives", "FP", func(r Row) any { return r.Result.FalsePositives }, raw, raw)
	falseJudgment = col("false_judgment", "false judgment", func(r Row) any { return r.FalseJudgment() }, raw, raw)
	success       = col("success", "success (%)", func(r Row) any { return r.Result.OverallSuccess }, raw, pct)
	listMessages  = col("list_messages", "list msgs", func(r Row) any { return r.Result.Overhead.NeighborListMsgs }, raw, raw)
	recovery      = col("recovery_minutes", "recovery (min)", func(r Row) any { return r.RecoveryMinutes() }, raw, raw)
	// Figs 13-14 and the §3.7 studies spell the paper's error names out.
	falseNegative = falseNeg.headed("false negative")
	falsePositive = falsePos.headed("false positive")
)

// labelled shows a row's label under the study's own word for it.
func labelled(head string) Column {
	return col(head, head, func(r Row) any { return r.Label }, raw, raw)
}

// headed is c under another text header.
func (c Column) headed(text string) Column { c.Text = text; return c }

// Figures is the figure table, in the order ddexp prints it.
var Figures = []Figure{
	{
		Keys: []string{"table1"},
		Build: func(Scale, []Row) (any, error) {
			return [][2]any{ // field, byte offset
				{"Source IP Address", protocol.OffsetSourceIP},
				{"Suspect IP Address", protocol.OffsetSuspectIP},
				{"Source timestamp", protocol.OffsetTimestamp},
				{"# of Outgoing queries", protocol.OffsetOutgoing},
				{"# of Incoming queries", protocol.OffsetIncoming},
			}, nil
		},
		Tables: []Table{{
			Sections: []Section{{Title: "Table 1: Neighbor_Traffic message body"}},
			Columns: []Column{
				col("field", "field", func(f [2]any) any { return f[0] }, raw, raw),
				col("byte_offset", "byte offset", func(f [2]any) any { return f[1] }, raw, raw),
				col("size", "size", func([2]any) any { return 4 }, raw, raw),
			},
		}},
		Notes: func(any) []string {
			return []string{fmt.Sprintf("payload type 0x%02x, body %d bytes, full message %d bytes",
				protocol.TypeNeighborTraffic, protocol.NeighborTrafficBodySize,
				protocol.HeaderSize+protocol.NeighborTrafficBodySize)}
		},
	},
	Figure{Keys: []string{"5", "6"}, Build: func(Scale, []Row) (any, error) { return Fig5And6() }}.table(
		"fig5_6_saturation.csv", "Figures 5 & 6: single-peer saturation (testbed calibration)", []Column{
			col("offered_per_min", "offered (q/min)", func(p capacity.SaturationPoint) any { return p.OfferedPerMin }, raw, f0),
			col("processed_per_min", "processed (q/min)", func(p capacity.SaturationPoint) any { return p.ProcessedPerMin }, raw, f0),
			col("drop_rate", "drop rate (%)", func(p capacity.SaturationPoint) any { return p.DropRate }, raw, pct),
		}, svg("fig5.svg", Fig5SVG), svg("fig6.svg", Fig6SVG)),
	Figure{Keys: []string{"radius"}, Plan: radiusPlan, Build: againstFirst}.table(
		"radius_study.csv", "DD-POLICE-r: buddy groups from r-hop list propagation", []Column{
			col("radius", "radius", func(r Row) any { return r.Config.Police.Radius }, raw, raw),
			detections, falseNeg, falsePos, listMessages, success, recovery,
		}),
	Figure{Keys: []string{"liar"}, Plan: liarPlan}.table(
		"liar_study.csv", "§3.1: lying about neighbor lists vs the verification check", []Column{
			labelled("variant"), detections, falsePos, success,
			col("verify_messages", "verify msgs", func(r Row) any { return r.Result.Overhead.VerifyMsgs }, raw, raw),
		}),
	Figure{Keys: []string{"ablate"}, Plan: ablationPlan, Build: ablationRows}.table(
		"ablation_study.csv", "Modeling-decision ablations (DESIGN.md, Calibration)", []Column{
			labelled("variant"),
			col("success_defended", "success defended (%)", func(r Row) any { return r.Result.OverallSuccess }, raw, pct),
			col("success_undefended", "success undefended (%)", func(r Row) any { return r.Against.OverallSuccess }, raw, pct),
			detections, falseNeg, falsePos,
		}),
	Figure{Keys: []string{"baseline"}, Plan: baselinePlan}.table(
		"baseline_study.csv", "Defense comparison: DD-POLICE vs fair-share load balancing [21]", []Column{
			labelled("strategy"), success,
			col("response_s", "response (s)", func(r Row) any { return r.Result.MeanResponseTime }, raw, f3),
			detections, falseNeg,
		}),
	Figure{Keys: []string{"structured"}, Plan: func(s Scale) []Row { return perAgentCount(s, false) }, Build: structuredPoints}.table(
		"structured_study.csv", "Future work (§5): overlay DDoS on a structured (Chord) P2P", []Column{
			col("agents", "agents", func(p StructuredPoint) any { return p.Agents }, raw, raw),
			col("unstructured_success", "unstructured success (%)", func(p StructuredPoint) any { return p.UnstructuredSuccess }, raw, pct),
			col("structured_success", "structured success (%)", func(p StructuredPoint) any { return p.StructuredSuccess }, raw, pct),
			col("structured_mean_hops", "DHT mean hops", func(p StructuredPoint) any { return p.StructuredMeanHops }, raw, f1),
		}),
	Figure{Keys: []string{"faults"}, Plan: func(s Scale) []Row { return faultsPlan(s, 0, 0.1, 0.2, 0.4) }}.table(
		"faults_study.csv", "Fault plane: judgment quality under control loss x churn", []Column{
			col("control_loss", "control loss", func(r Row) any { return r.Config.Faults.ControlLoss }, raw, scaled("%.0f%%", 100)),
			col("churn", "churn", func(r Row) any { return churnRegime(r) }, raw, raw),
			detections, falseNeg, falsePos, falseJudgment, success,
		}, svg("faults.svg", FaultsSVG)),
	{
		Keys:    []string{"detect"},
		Plan:    detectPlan,
		Observe: detectReport,
		Build:   func(_ Scale, rows []Row) (any, error) { return rows[0].Observed, nil },
		Tables: []Table{{
			CSV:      "detect_timelines.csv",
			Sections: []Section{{Title: "Detection pipeline: journal-reconstructed timelines"}},
			Rows:     func(d any) any { return d.(*DetectReport).Points },
			Columns: []Column{
				col("suspect", "suspect", func(p DetectPoint) any { return p.Suspect }, raw, raw),
				col("agent", "agent", func(p DetectPoint) any { return p.Agent }, bit, raw),
				col("flood_start", "flood start", func(p DetectPoint) any { return p.FloodStart }, raw, f0),
				col("first_warning", "first warning", func(p DetectPoint) any { return p.FirstWarning }, raw, f0),
				col("quorum_at", "quorum", func(p DetectPoint) any { return p.QuorumAt }, raw, f0),
				col("cut_at", "cut", func(p DetectPoint) any { return p.CutAt }, raw, f0),
				col("latency_sec", "latency (s)", func(p DetectPoint) any { return p.LatencySec }, raw, f0),
				col("nt_reports", "NT reports", func(p DetectPoint) any { return p.Reports }, raw, raw),
				col("nt_timeouts", "NT timeouts", func(p DetectPoint) any { return p.Timeouts }, raw, raw),
			},
		}, {
			CSV:  "detect_latency_cdf.csv",
			Rows: func(d any) any { return d.(*DetectReport).CDF },
			Columns: []Column{
				col("latency_sec", "latency (s)", func(p DetectCDFPoint) any { return p.LatencySec }, raw, f0),
				col("fraction", "fraction", func(p DetectCDFPoint) any { return p.Fraction }, raw, raw),
			},
		}, {
			CSV:  "detect_overhead.csv",
			Rows: func(d any) any { return []*DetectReport{d.(*DetectReport)} },
			Columns: []Column{
				col("nt_messages", "NT msgs", func(r *DetectReport) any { return r.NTMessages }, raw, raw),
				col("cuts", "cuts", func(r *DetectReport) any { return r.Cuts }, raw, raw),
				col("nt_per_cut", "NT per cut", func(r *DetectReport) any { return r.NTPerCut }, raw, f1),
				col("journal_events", "journal events", func(r *DetectReport) any { return r.Events }, raw, raw),
				col("journal_dropped", "journal dropped", func(r *DetectReport) any { return r.Dropped }, raw, raw),
			},
		}},
		SVGs: []SVG{svg("detect_latency_cdf.svg", DetectCDFSVG)},
		Notes: func(d any) []string {
			rep := d.(*DetectReport)
			lines := []string{fmt.Sprintf("journal: %d events (%d dropped); %d cuts; %d NT msgs (%.1f per cut)",
				rep.Events, rep.Dropped, rep.Cuts, rep.NTMessages, rep.NTPerCut)}
			if n := len(rep.CDF); n > 0 {
				lines = append(lines, fmt.Sprintf("latency p50 %.0fs, p90 %.0fs, max %.0fs over %d cut suspects",
					rep.CDF[(n-1)/2].LatencySec, rep.CDF[(n-1)*9/10].LatencySec, rep.CDF[n-1].LatencySec, n))
			}
			return lines
		},
	},
	Figure{Keys: []string{"overload"}, Plan: func(s Scale) []Row { return overloadPlan(s, 1, 3, 10) }, Observe: overloadPoint, Build: observed[OverloadPoint]}.table(
		"overload_study.csv", "Overload plane: control delivery and time-to-cut vs offered-over-capacity", []Column{
			col("factor", "factor", func(p OverloadPoint) any { return p.Factor }, raw, verb("%.0fx")),
			col("plane", "plane", func(p OverloadPoint) any {
				if p.Plane {
					return "on"
				}
				return "off"
			}, raw, raw),
			col("control_delivery", "control delivery (%)", func(p OverloadPoint) any { return p.ControlDelivery }, raw, pct),
			col("query_shed_rate", "query shed (%)", func(p OverloadPoint) any { return p.QueryShedRate }, raw, pct),
			col("time_to_cut_sec", "time to cut (s)", func(p OverloadPoint) any { return p.TimeToCutSec }, raw, orNegative("never", f0)),
			col("detections", "detections", func(p OverloadPoint) any { return p.Detections }, raw, raw),
		}, svg("overload.svg", OverloadSVG)),
	Figure{Keys: []string{"fanout"}, Plan: fanoutPlan, Observe: fanoutPoint, Build: observed[FanoutPoint]}.table(
		"fanout_study.csv", "Flood fan-out: peers processing a good query, by hop, vs agents", fanoutColumns()),
	{
		Keys:  []string{"9", "10", "11"},
		Plan:  sweepPlan,
		Build: sweepPoints,
		Tables: []Table{{
			CSV: "fig9_10_11_sweep.csv",
			Sections: []Section{
				{Title: "Figure 9: average traffic cost (messages/min)",
					Only: []string{"agents", "traffic_baseline", "traffic_attack", "traffic_defended"}},
				{Title: "Figure 10: average response time (s)",
					Only: []string{"agents", "response_baseline", "response_attack", "response_defended"}},
				{Title: "Figure 11: average success rate (%)",
					Only: []string{"agents", "success_baseline", "success_attack", "success_defended",
						"detections", "false_negatives", "false_positives"}},
			},
			Columns: []Column{
				col("agents", "agents", func(p SweepPoint) any { return p.Agents }, raw, raw),
				col("traffic_baseline", "no attack", func(p SweepPoint) any { return p.TrafficBaseline }, raw, f0),
				col("traffic_attack", "DDoS, no defense", func(p SweepPoint) any { return p.TrafficAttack }, raw, f0),
				col("traffic_defended", "DDoS + DD-POLICE", func(p SweepPoint) any { return p.TrafficDefended }, raw, f0),
				col("response_baseline", "no attack", func(p SweepPoint) any { return p.ResponseBaseline }, raw, f3),
				col("response_attack", "DDoS, no defense", func(p SweepPoint) any { return p.ResponseAttack }, raw, f3),
				col("response_defended", "DDoS + DD-POLICE", func(p SweepPoint) any { return p.ResponseDefended }, raw, f3),
				col("success_baseline", "no attack", func(p SweepPoint) any { return p.SuccessBaseline }, raw, pct),
				col("success_attack", "DDoS, no defense", func(p SweepPoint) any { return p.SuccessAttack }, raw, pct),
				col("success_defended", "DDoS + DD-POLICE", func(p SweepPoint) any { return p.SuccessDefended }, raw, pct),
				col("detections", "detections", func(p SweepPoint) any { return p.Detections }, raw, raw),
				col("false_negatives", "FN", func(p SweepPoint) any { return p.FalseNegatives }, raw, raw),
				col("false_positives", "FP", func(p SweepPoint) any { return p.FalsePositives }, raw, raw),
			},
		}},
		SVGs: []SVG{svg("fig9.svg", Fig9SVG), svg("fig10.svg", Fig10SVG), svg("fig11.svg", Fig11SVG)},
	},
	{
		Keys:  []string{"12"},
		Plan:  timelinePlan,
		Build: timelines,
		Tables: []Table{{
			CSV:      "fig12_damage.csv",
			Sections: []Section{{Title: "Figure 12: damage rate D(t) over time ({agents} agents)"}},
			// One row per minute of the longest timeline, one column per
			// timeline; a shorter timeline's missing minutes are padded.
			Rows: func(d any) any {
				var minutes []int
				for _, tl := range d.([]Timeline) {
					for m := len(minutes); m < len(tl.Damage); m++ {
						minutes = append(minutes, m)
					}
				}
				return minutes
			},
			Columns: []Column{col("minute", "minute", func(m int) any { return m }, raw, raw)},
			Series: func(d any) []Column {
				var cols []Column
				for _, tl := range d.([]Timeline) {
					cols = append(cols, col(tl.Label, tl.Label, func(m int) any {
						if m < len(tl.Damage) {
							return tl.Damage[m]
						}
						return nil
					}, raw, f1))
				}
				return cols
			},
		}},
		SVGs: []SVG{svg("fig12.svg", Fig12SVG)},
	},
	Figure{Keys: []string{"13", "14"}, Plan: ctPlan, Build: againstFirst}.table(
		"fig13_14_ct.csv", "Figures 13 & 14: errors and damage recovery time vs cut threshold", []Column{
			col("cut_threshold", "CT", func(r Row) any { return r.Config.Police.CutThreshold }, raw, raw),
			falseNegative, falsePositive, falseJudgment,
			col("recovery_minutes", "recovery (min)", func(r Row) any { return r.RecoveryMinutes() }, raw, orNegative("never", raw)),
			col("stable_damage_pct", "stable damage (%)", func(r Row) any { return r.StableDamage(0.2) }, raw, f1),
		}, svg("fig13.svg", Fig13SVG), svg("fig14.svg", Fig14SVG)),
	{
		Keys:  []string{"freq"},
		Plan:  func(s Scale) []Row { return freqPlan(s, 1, 2, 4, 5, 10) },
		Build: againstFirst,
		Tables: []Table{{
			CSV: "freq_study.csv",
			Sections: []Section{{Title: "§3.7.1: neighbor-list exchange frequency study",
				Only: []string{"policy", "list_messages", "false_negatives", "false_positives", "recovery_minutes"}}},
			Columns: []Column{
				labelled("policy"),
				col("period_sec", "period (s)", func(r Row) any { // 0 for event-driven
					if r.Config.Police.EventDriven {
						return 0.0
					}
					return r.Config.Police.ExchangePeriod
				}, raw, f0),
				listMessages, falseNegative, falsePositive, recovery,
			},
		}},
	},
	Figure{Keys: []string{"cheat"}, Plan: cheatPlan}.table(
		"cheat_study.csv", "§3.4: Neighbor_Traffic cheating strategies", []Column{
			labelled("strategy"), detections, falseNegative, falsePositive, success,
		}),
}

// FigureKeys lists every value -fig accepts: "all", then each entry's
// keys in table order.
func FigureKeys() []string {
	keys := []string{"all"}
	for _, f := range Figures {
		keys = append(keys, f.Keys...)
	}
	return keys
}

// ValidateFigures rejects a table that cannot be driven unambiguously:
// an entry without a -fig key, or with neither a plan nor a builder, two
// entries answering one key, two artifacts with one file name (-csv and
// -svg may name the same directory), a section with an empty title, a
// column without both headers, or a section showing a column its table
// does not declare. It then checks every plan, at quick and at paper
// scale, without running it: run labels unique, every Config valid, and
// no Journal, Registry or Telemetry on a run that will be seed-averaged.
func ValidateFigures(figs []Figure) error {
	seen := map[string]bool{"-fig key all": true}
	for i, f := range figs {
		var claims, bad []string
		if len(f.Keys) == 0 || f.Plan == nil && f.Build == nil {
			bad = append(bad, "no -fig key, or neither plan nor builder")
		}
		for _, k := range f.Keys {
			claims = append(claims, "-fig key "+k)
		}
		for _, t := range f.Tables {
			if t.CSV != "" {
				claims = append(claims, "artifact "+t.CSV)
			}
			var declared []string
			for _, c := range t.Columns {
				if c.CSV == "" || c.Text == "" {
					bad = append(bad, fmt.Sprintf("column %q/%q lacks a header", c.CSV, c.Text))
				}
				declared = append(declared, c.CSV)
			}
			for _, s := range t.Sections {
				if s.Title == "" {
					bad = append(bad, "section with an empty title")
				}
				for _, name := range s.Only {
					if !slices.Contains(declared, name) {
						bad = append(bad, fmt.Sprintf("section %q shows undeclared column %q", s.Title, name))
					}
				}
			}
		}
		for _, s := range f.SVGs {
			claims = append(claims, "artifact "+s.Name)
		}
		for _, c := range claims {
			if seen[c] {
				bad = append(bad, "duplicate "+c)
			}
			seen[c] = true
		}
		if f.Plan != nil {
			bad = append(bad, f.planErrors("quick", QuickScale())...)
			bad = append(bad, f.planErrors("paper", PaperScale())...)
		}
		if len(bad) > 0 {
			return fmt.Errorf("ddpolice: figure table: entry %d %v: %s", i, f.Keys, strings.Join(bad, "; "))
		}
	}
	return nil
}

// planErrors lists what is wrong with the figure's plan at one scale.
func (f Figure) planErrors(name string, scale Scale) (bad []string) {
	labels := map[string]bool{}
	for _, r := range f.Plan(scale) {
		at := fmt.Sprintf("run %q at %s scale: ", r.Label, name)
		if r.Label == "" || labels[r.Label] {
			bad = append(bad, at+"empty or duplicate label")
		}
		labels[r.Label] = true
		if err := r.Config.Validate(); err != nil {
			bad = append(bad, at+err.Error())
		}
		if f.Observe == nil && (r.Config.Journal != nil || r.Config.Registry != nil || r.Config.Telemetry) {
			bad = append(bad, at+"carries a Journal, Registry or Telemetry but a plan's runs are concurrent; declare Observe")
		}
	}
	return bad
}

// grid renders the table's header and rows as cells, in text or CSV
// form, over the columns only names by CSV header (nil: all of them).
func (t Table) grid(data any, text bool, only []string) [][]string {
	cols := t.Columns
	if t.Series != nil {
		cols = append(slices.Clip(cols), t.Series(data)...)
	}
	if t.Rows != nil {
		data = t.Rows(data)
	}
	rows := reflect.ValueOf(data)
	out := make([][]string, 1+rows.Len())
	for _, c := range cols {
		if only != nil && !slices.Contains(only, c.CSV) {
			continue
		}
		head, render, missing := c.CSV, c.csvFmt, ""
		if text {
			head, render, missing = c.Text, c.textFmt, "-"
		}
		out[0] = append(out[0], head)
		for i := 0; i < rows.Len(); i++ {
			cell := missing
			if v := c.val(rows.Index(i).Interface()); v != nil {
				cell = render(v)
			}
			out[i+1] = append(out[i+1], cell)
		}
	}
	return out
}

// WriteCSV renders the table's CSV artifact: the header, then every
// row under every column.
func (t Table) WriteCSV(w io.Writer, data any) error {
	return csv.NewWriter(w).WriteAll(t.grid(data, false, nil)) // WriteAll flushes
}

// WriteText prints the figure as ddexp shows it: each section's title
// and aligned table, then the summary notes.
func (f Figure) WriteText(w io.Writer, scale Scale, data any) error {
	for _, t := range f.Tables {
		for _, s := range t.Sections {
			fmt.Fprintf(w, "\n== %s ==\n", strings.ReplaceAll(s.Title, "{agents}", strconv.Itoa(scale.TimelineAgents)))
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			for _, line := range t.grid(data, true, s.Only) {
				fmt.Fprintln(tw, strings.Join(line, "\t"))
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
	}
	if f.Notes != nil {
		for _, line := range f.Notes(data) {
			fmt.Fprintln(w, line)
		}
	}
	return nil
}
