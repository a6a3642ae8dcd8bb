package ddpolice

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ddpolice/internal/capacity"
	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/telemetry"
)

func figureByKey(t *testing.T, key string) Figure {
	t.Helper()
	for _, f := range Figures {
		if slices.Contains(f.Keys, key) {
			return f
		}
	}
	t.Fatalf("no figure answers -fig %s", key)
	return Figure{}
}

// renderCSV writes one table's CSV from data, reads it back and checks
// that it is rectangular and headed by the declared CSV headers.
func renderCSV(t *testing.T, tab Table, data any) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf, data); err != nil {
		t.Fatalf("%s: %v", tab.CSV, err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("%s: unparseable CSV: %v", tab.CSV, err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no header", tab.CSV)
	}
	for i, r := range rows {
		if len(r) != len(rows[0]) {
			t.Fatalf("%s: row %d has %d fields, header has %d", tab.CSV, i, len(r), len(rows[0]))
		}
	}
	for i, c := range tab.Columns {
		if rows[0][i] != c.CSV {
			t.Fatalf("%s: header %d = %q, declared %q", tab.CSV, i, rows[0][i], c.CSV)
		}
	}
	return rows
}

// execute runs fig's plan at scale and returns its data as a T.
func execute[T any](t *testing.T, fig Figure, scale Scale) T {
	t.Helper()
	data, err := fig.Execute(scale)
	if err != nil {
		t.Fatal(err)
	}
	return data.(T)
}

// config is the zero Config with one change: the part of a hand-made
// Row a column reads.
func config(mutate func(*Config)) Config {
	var c Config
	mutate(&c)
	return c
}

// renderCase is one entry of the figure table driven through the two
// renderers with hand-made data.
type renderCase struct {
	key   string
	data  any
	csv   string            // artifact the cells are read from; "" = the entry's first table
	rows  int               // CSV lines including the header
	cells map[[2]int]string // CSV (line, column) -> cell
	text  []string          // substrings of the text rendering
}

// renderCases has at least one case per entry (keyed by its first -fig
// key): plain cells, ragged timelines, the -1 never-recovered sentinel,
// and the percent, "never" and "-" forms of the text side.
var renderCases = []renderCase{
	{key: "5", rows: 3, cells: map[[2]int]string{{2, 2}: "0.483"}, text: []string{"29000", "48.3"},
		data: []capacity.SaturationPoint{
			{OfferedPerMin: 1000, ProcessedPerMin: 1000, DropRate: 0},
			{OfferedPerMin: 29000, ProcessedPerMin: 15000, DropRate: 0.483},
		}},
	{key: "9", rows: 2, cells: map[[2]int]string{{1, 0}: "5", {1, 10}: "12", {1, 7}: "0.9"},
		text: []string{"== Figure 9:", "== Figure 10:", "== Figure 11:", "90.0"},
		data: []SweepPoint{{Agents: 5, TrafficBaseline: 100, TrafficAttack: 300,
			SuccessBaseline: 0.9, SuccessAttack: 0.5, Detections: 12}}},
	// Ragged timelines: the short series is padded, "" in CSV and "-" in text.
	{key: "12", rows: 4, cells: map[[2]int]string{{0, 2}: "b", {1, 2}: "9", {2, 2}: "", {3, 1}: "3"},
		text: []string{"(7 agents)", "2.0  -"},
		data: []Timeline{{Label: "a", Damage: []float64{1, 2, 3}}, {Label: "b", Damage: []float64{9}}}},
	// Damage that stays at 50% never recovers: -1 in CSV, "never" in text.
	{key: "13", rows: 2, cells: map[[2]int]string{{1, 0}: "5", {1, 1}: "3", {1, 3}: "4", {1, 4}: "-1", {1, 5}: "50"}, text: []string{"never"},
		data: []Row{{Config: config(func(c *Config) { c.Police.CutThreshold = 5 }),
			Result:  &Result{FalseNegatives: 3, FalsePositives: 1, SuccessSeries: []float64{0.5, 0.5}},
			Against: &Result{SuccessSeries: []float64{1, 1}}}}},
	// period_sec is a CSV column the text section leaves out.
	{key: "freq", rows: 3, cells: map[[2]int]string{{1, 1}: "120", {1, 2}: "9", {2, 1}: "0"}, text: []string{"periodic 2min  9"},
		data: []Row{
			{Label: "periodic 2min", Config: config(func(c *Config) { c.Police.ExchangePeriod = 120 }),
				Result: listMsgs(9), Against: &Result{}},
			{Label: "event-driven", Config: config(func(c *Config) { c.Police.ExchangePeriod, c.Police.EventDriven = 120, true }),
				Result: &Result{}, Against: &Result{}}}},
	{key: "cheat", rows: 2, cells: map[[2]int]string{{1, 0}: "deflate", {1, 4}: "0.5"}, text: []string{"50.0"},
		data: []Row{{Label: "deflate", Result: &Result{Detections: 7, OverallSuccess: 0.5}}}},
	{key: "radius", rows: 2, cells: map[[2]int]string{{1, 0}: "2", {1, 1}: "8", {1, 6}: "0"},
		data: []Row{{Config: config(func(c *Config) { c.Police.Radius = 2 }), Result: &Result{Detections: 8}, Against: &Result{}}}},
	{key: "liar", rows: 2, cells: map[[2]int]string{{1, 0}: "lying agents + verification", {1, 2}: "4"},
		data: []Row{{Label: "lying agents + verification", Result: &Result{FalsePositives: 4}}}},
	{key: "ablate", rows: 2, cells: map[[2]int]string{{1, 1}: "0.6", {1, 2}: "0.2"}, text: []string{"60.0", "20.0"},
		data: []Row{{Label: "ttl 7", Result: &Result{OverallSuccess: 0.6}, Against: &Result{OverallSuccess: 0.2}}}},
	{key: "baseline", rows: 2, cells: map[[2]int]string{{1, 2}: "0.1804"}, text: []string{"58.0", "0.180"},
		data: []Row{{Label: "fair-share drop [21]", Result: &Result{OverallSuccess: 0.58, MeanResponseTime: 0.1804}}}},
	{key: "structured", rows: 2, cells: map[[2]int]string{{1, 3}: "3.44"}, text: []string{"3.4"},
		data: []StructuredPoint{{Agents: 3, UnstructuredSuccess: 0.6, StructuredSuccess: 0.9, StructuredMeanHops: 3.44}}},
	// A faults row's coordinates are its label's churn regime and its Config's loss.
	{key: "faults", rows: 2, cells: map[[2]int]string{{1, 0}: "0.1", {1, 1}: "crash-heavy", {1, 5}: "3"}, text: []string{"10%"},
		data: []Row{{Label: "crash-heavy/0.1", Config: config(func(c *Config) { c.Faults = &faults.Schedule{ControlLoss: 0.1} }),
			Result: &Result{FalseNegatives: 1, FalsePositives: 2}}}},
	{key: "overload", rows: 3, cells: map[[2]int]string{{1, 1}: "off", {1, 4}: "-1", {2, 1}: "on", {2, 4}: "60"},
		text: []string{"3x", "never", "97.5"},
		data: []OverloadPoint{{Factor: 3, TimeToCutSec: -1}, {Factor: 3, Plane: true, TimeToCutSec: 60, ControlDelivery: 0.975}}},
	{key: "fanout", rows: 2, cells: map[[2]int]string{{1, 1}: "698", {1, 3}: "37.5", {1, 5}: "192.04"}, text: []string{"hop 3", "150.0", "192.0"},
		data: []FanoutPoint{{Agents: 0, Queries: 698, Depth: []float64{4.54, 37.5, 150}, Total: 192.04}}},
	{key: "detect", rows: 3, cells: map[[2]int]string{{1, 1}: "1", {2, 1}: "0", {1, 6}: "60"},
		text: []string{"true", "false", "journal: 9 events (1 dropped); 2 cuts; 30 NT msgs (15.0 per cut)", "latency p50 0s, p90 0s, max 60s over 2 cut suspects"},
		data: detectSample},
	{key: "detect", csv: "detect_latency_cdf.csv", rows: 3, cells: map[[2]int]string{{2, 0}: "60", {2, 1}: "1"}, data: detectSample},
	{key: "detect", csv: "detect_overhead.csv", rows: 2, cells: map[[2]int]string{{1, 0}: "30", {1, 2}: "15", {1, 4}: "1"}, data: detectSample},
}

func listMsgs(n uint64) *Result {
	var r Result
	r.Overhead.NeighborListMsgs = n
	return &r
}

// check renders the case's figure: every CSV of the entry must be
// rectangular under its declared header, the named cells must hold,
// and the text must contain the given forms.
func (tc renderCase) check(t *testing.T) {
	t.Helper()
	fig := figureByKey(t, tc.key)
	checked := tc.csv
	if checked == "" {
		checked = fig.Tables[0].CSV
	}
	for _, tab := range fig.Tables {
		if tab.CSV == "" {
			continue
		}
		rows := renderCSV(t, tab, tc.data)
		if tab.CSV != checked {
			continue
		}
		if len(rows) != tc.rows {
			t.Errorf("%s: %d lines, want %d: %v", tab.CSV, len(rows), tc.rows, rows)
			continue
		}
		for at, want := range tc.cells {
			if got := rows[at[0]][at[1]]; got != want {
				t.Errorf("%s: line %d column %d = %q, want %q", tab.CSV, at[0], at[1], got, want)
			}
		}
	}
	var text bytes.Buffer
	scale := QuickScale()
	scale.TimelineAgents = 7
	if err := fig.WriteText(&text, scale, tc.data); err != nil {
		t.Fatalf("-fig %s: %v", tc.key, err)
	}
	for _, want := range tc.text {
		if !strings.Contains(text.String(), want) {
			t.Errorf("-fig %s: text lacks %q:\n%s", tc.key, want, text.String())
		}
	}
}

// checkCases runs every case of the entry -fig key selects; an entry
// without a case is a failure.
func checkCases(t *testing.T, key string) {
	t.Helper()
	n := 0
	for _, tc := range renderCases {
		if tc.key == key {
			tc.check(t)
			n++
		}
	}
	if n == 0 {
		t.Errorf("-fig %s: no renderer case", key)
	}
}

func TestSaturationCSV(t *testing.T) { checkCases(t, "5") }

func TestSweepCSV(t *testing.T) { checkCases(t, "9") }

func TestTimelinesCSVRaggedSeries(t *testing.T) { checkCases(t, "12") }

// TestRemainingCSVWriters runs every other entry of the figure table
// (Table 1's builder is its data: TestFigureRenderersEmptyInput).
func TestRemainingCSVWriters(t *testing.T) {
	for _, f := range Figures {
		if key := f.Keys[0]; !slices.Contains([]string{"table1", "5", "9", "12"}, key) {
			checkCases(t, key)
		}
	}
}

var detectSample = &DetectReport{
	Points: []DetectPoint{
		{Suspect: 7, Agent: true, FloodStart: 60, FirstWarning: 120, QuorumAt: 120, CutAt: 120, LatencySec: 60, Reports: 2},
		{Suspect: 9, FloodStart: 240, FirstWarning: 240, QuorumAt: 240, CutAt: 240},
	},
	CDF:        []DetectCDFPoint{{LatencySec: 0, Fraction: 0.5}, {LatencySec: 60, Fraction: 1}},
	NTMessages: 30, Cuts: 2, NTPerCut: 15, Events: 9, Dropped: 1,
}

// Empty input still yields every CSV's header and every section's
// title — no renderer indexes into rows it was not given.
func TestFigureRenderersEmptyInput(t *testing.T) {
	empty := map[string]any{ // the entries whose data is not a []Row
		"5": []capacity.SaturationPoint(nil), "structured": []StructuredPoint(nil), "detect": &DetectReport{},
		"overload": []OverloadPoint(nil), "fanout": []FanoutPoint(nil), "9": []SweepPoint(nil), "12": []Timeline(nil),
	}
	for _, fig := range Figures {
		data, ok := empty[fig.Keys[0]]
		if !ok {
			data = []Row(nil)
		}
		if fig.Keys[0] == "table1" {
			// Table 1 has no input to empty: its builder is its data.
			data = execute[any](t, fig, Scale{})
		}
		for _, tab := range fig.Tables {
			if tab.CSV == "" {
				continue
			}
			lines := 1
			if tab.CSV == "detect_overhead.csv" {
				lines = 2 // the one summary row is there for an empty journal too
			}
			if rows := renderCSV(t, tab, data); len(rows) != lines || len(rows[0]) != len(tab.Columns) {
				t.Errorf("%s on empty input = %v, want %d line(s)", tab.CSV, rows, lines)
			}
		}
		var text bytes.Buffer
		if err := fig.WriteText(&text, Scale{}, data); err != nil {
			t.Fatalf("-fig %s: %v", fig.Keys[0], err)
		}
		for _, tab := range fig.Tables {
			for _, s := range tab.Sections {
				if title, _, _ := strings.Cut(s.Title, "{"); !strings.Contains(text.String(), "== "+title) {
					t.Errorf("-fig %s on empty input does not print section %q", fig.Keys[0], s.Title)
				}
			}
		}
	}
}

// TestFigureTableValid holds the committed table to ValidateFigures and
// each rule of ValidateFigures to a table that breaks it.
func TestFigureTableValid(t *testing.T) {
	if err := ValidateFigures(Figures); err != nil {
		t.Fatal(err)
	}
	good := func(key, artifact string) Figure {
		return Figure{Keys: []string{key}, Build: func(Scale, []Row) (any, error) { return []int(nil), nil }}.table(artifact+".csv", "a title",
			[]Column{col("n", "n", func(n int) any { return n }, raw, raw)},
			svg(artifact+".svg", func(w io.Writer, _ []int) error { return nil }))
	}
	if err := ValidateFigures([]Figure{good("a", "a"), good("b", "b")}); err != nil {
		t.Fatalf("two distinct entries rejected: %v", err)
	}
	planned := func(vs ...variant) func(Scale) []Row {
		return func(s Scale) []Row { return s.plan(s.baseConfig(), true, vs...) }
	}
	bad := map[string]func(f *Figure){
		"duplicate -fig key a":         func(f *Figure) { f.Keys = []string{"b", "a"} },
		"duplicate -fig key all":       func(f *Figure) { f.Keys = []string{"all"} },
		"duplicate artifact a.csv":     func(f *Figure) { f.Tables[0].CSV = "a.csv" },
		"duplicate artifact a.svg":     func(f *Figure) { f.SVGs[0].Name = "a.svg" },
		"duplicate artifact b.svg":     func(f *Figure) { f.Tables[0].CSV = "b.svg" },
		"section with an empty title":  func(f *Figure) { f.Tables[0].Sections[0].Title = "" },
		`column "n"/"" lacks a header`: func(f *Figure) { f.Tables[0].Columns[0].Text = "" },
		`column ""/"n" lacks a header`: func(f *Figure) { f.Tables[0].Columns[0].CSV = "" },
		`shows undeclared column "m"`:  func(f *Figure) { f.Tables[0].Sections[0].Only = []string{"n", "m"} },
		"no -fig key, or neither plan": func(f *Figure) { f.Keys = nil },
		"entry 1 [b]: no -fig key, or": func(f *Figure) { f.Build = nil },
		// The plan checks name the figure, the run and the scale.
		`entry 1 [b]: run "twice" at quick scale: empty or duplicate label`: func(f *Figure) {
			f.Plan = planned(variant{label: "once"}, variant{label: "twice"}, variant{label: "twice"})
		},
		`run "" at quick scale: empty or duplicate label`: func(f *Figure) { f.Plan = planned(variant{}) },
		`run "all agents" at paper scale: sim: NumAgents = 2000 of 2000 peers`: func(f *Figure) {
			f.Plan = planned(variant{"all agents", func(c *Config) { c.NumAgents = c.NumPeers }})
		},
		// A per-run sink without Observe, at the scale that has no seeds
		// too: a plan's rows run concurrently whatever the seed count.
		`entry 1 [b]: run "narrated" at quick scale: carries a Journal, Trace, Registry or Telemetry`: func(f *Figure) {
			f.Plan = planned(variant{"narrated", func(c *Config) { c.Journal = journal.New(1) }})
		},
		`run "timed" at paper scale: carries a Journal, Trace, Registry or Telemetry`: func(f *Figure) {
			f.Plan = planned(variant{label: "plain"}, variant{"timed", func(c *Config) { c.Telemetry = true }})
		},
		`run "metered" at quick scale: carries a Journal, Trace, Registry or Telemetry`: func(f *Figure) {
			f.Plan = planned(variant{"metered", func(c *Config) { c.Registry = telemetry.New() }})
		},
	}
	for want, breakIt := range bad {
		second := good("b", "b")
		breakIt(&second)
		err := ValidateFigures([]Figure{good("a", "a"), second})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want an error containing %q, got %v", want, err)
		}
	}
	// The same journal is in order on a figure that observes its runs.
	narrated := good("b", "b")
	narrated.Plan = planned(variant{"narrated", func(c *Config) { c.Journal = journal.New(1) }})
	narrated.Observe = func(Row) any { return nil }
	if err := ValidateFigures([]Figure{narrated}); err != nil {
		t.Errorf("a journal under Observe rejected: %v", err)
	}
}

// shortScale is QuickScale cut to two minutes, with two replica seeds so
// that a plan is a (row x seed) grid.
func shortScale() Scale {
	s := QuickScale()
	s.NumPeers, s.DurationSec, s.Seeds = 300, 120, []uint64{4, 5}
	return s
}

// TestExecuteIndependentOfWorkers: Figs 9-11's plan runs as one grid of
// flat (row x seed) jobs on GOMAXPROCS workers over shared worlds; its
// data must not know how many there were.
func TestExecuteIndependentOfWorkers(t *testing.T) {
	fig := figureByKey(t, "9")
	var data [2][]SweepPoint
	for i, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		data[i] = execute[[]SweepPoint](t, fig, shortScale())
		runtime.GOMAXPROCS(prev)
	}
	if !reflect.DeepEqual(data[0], data[1]) {
		t.Errorf("Figs 9-11 differ between 1 worker and 4:\n%+v\n%+v", data[0], data[1])
	}
	if first, last := data[0][0], data[0][len(data[0])-1]; last.TrafficAttack <= first.TrafficAttack {
		t.Errorf("attack traffic does not grow with agents (vacuous): %+v .. %+v", first, last)
	}
}

// TestExecuteErrorNamesFigureRunAndSeed: a plan executed without
// ValidateFigures in front of it, its third and fourth rows invalid. The
// error names the figure, the third row's label and the first seed, at one
// worker and at four: the first row that fails, not whichever job lost
// the race.
func TestExecuteErrorNamesFigureRunAndSeed(t *testing.T) {
	fig := Figure{Keys: []string{"broken"}, Plan: func(s Scale) []Row {
		return s.plan(s.baseConfig(), true,
			noAttack, variant{label: "attacked"},
			variant{"all agents", func(c *Config) { c.NumAgents = c.NumPeers }},
			variant{"no ttl", func(c *Config) { c.TTL = 0 }},
			variant{label: "never reached"})
	}}
	const want = `-fig broken, run "all agents", seed 4: sim: NumAgents = 300 of 300 peers`
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		data, err := fig.Execute(shortScale())
		runtime.GOMAXPROCS(prev)
		if err == nil || err.Error() != want || data != nil {
			t.Errorf("GOMAXPROCS %d: data %v, err %v, want %s", procs, data, err, want)
		}
	}
	// Without replica seeds the job's seed is its Config's own.
	scale := shortScale()
	scale.Seeds = nil
	if _, err := fig.Execute(scale); err == nil || !strings.Contains(err.Error(), `run "all agents", seed 1: sim: NumAgents`) {
		t.Errorf("no seeds: err %v, want the run on seed 1", err)
	}
}

// TestFigurePlansValid walks every entry's plan at both scales: it is
// valid as ValidateFigures defines it, and it declares exactly the runs
// the figure has always made — the repository benchmark divides the
// paper-figs wall clock by Fig 9-11's 13 plus Fig 12's 5 configurations.
func TestFigurePlansValid(t *testing.T) {
	runs := map[string][2]int{ // first -fig key -> runs at quick, at paper scale
		"table1": {0, 0}, "5": {0, 0}, "radius": {3, 3}, "liar": {3, 3}, "ablate": {12, 12}, "baseline": {4, 4},
		"structured": {4, 7}, "faults": {12, 12}, "detect": {1, 1}, "overload": {6, 6},
		"fanout": {4, 7}, "9": {7, 13}, "12": {5, 5}, "13": {7, 9}, "freq": {7, 7}, "cheat": {4, 4},
	}
	for _, fig := range Figures {
		want, ok := runs[fig.Keys[0]]
		if !ok {
			t.Errorf("-fig %s: no run count declared here", fig.Keys[0])
		}
		for i, scale := range []Scale{QuickScale(), PaperScale()} {
			if fig.Plan == nil {
				if want[i] != 0 {
					t.Errorf("-fig %s: no plan, want %d runs", fig.Keys[0], want[i])
				}
				continue
			}
			if bad := fig.planErrors([]string{"quick", "paper"}[i], scale); len(bad) > 0 {
				t.Errorf("-fig %s: %v", fig.Keys[0], bad)
			}
			rows := fig.Plan(scale)
			if len(rows) != want[i] {
				t.Errorf("-fig %s: %d runs at scale %d, want %d", fig.Keys[0], len(rows), i, want[i])
			}
			for _, r := range rows {
				if r.Config.NumPeers != scale.NumPeers || r.Config.DurationSec != scale.DurationSec || r.Config.Seed != scale.Seed {
					t.Errorf("-fig %s, run %q: not at the scale's size, length and seed", fig.Keys[0], r.Label)
				}
				sink := r.Config.Journal != nil || r.Config.Trace != nil || r.Config.Registry != nil || r.Config.Telemetry
				if sink != (fig.Observe != nil) {
					t.Errorf("-fig %s, run %q: a sink without Observe, or Observe without a sink", fig.Keys[0], r.Label)
				}
			}
		}
	}
}

// Every -fig key of the table is documented in README's target table.
func TestReadmeListsEveryFigKey(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range FigureKeys()[1:] {
		if !bytes.Contains(readme, []byte("`-fig "+key+"`")) {
			t.Errorf("README.md does not document `-fig %s`", key)
		}
	}
}
