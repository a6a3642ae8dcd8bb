package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ddpolice"
	"ddpolice/internal/journal"
	"ddpolice/internal/trace"
)

// TestMain re-executes the test binary as ddtrace itself when asked to,
// so a test can drive main through its flags.
func TestMain(m *testing.M) {
	if os.Getenv("DDTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracedRun executes a small police+attack simulation with full
// sampling and the journal on, and writes the span NDJSON and the
// journal NDJSON to temp files.
func tracedRun(t *testing.T) (tracePath, journalPath string) {
	t.Helper()
	cfg := ddpolice.DefaultConfig()
	cfg.NumPeers = 600
	cfg.DurationSec = 360
	cfg.AttackStartSec = 60
	cfg.ChurnEnabled = false
	cfg.PoliceEnabled = true
	cfg.NumAgents = 4
	tr := trace.New(1.0, 0)
	cfg.Trace = tr
	cfg.Journal = journal.New(1 << 16)
	if _, err := ddpolice.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Journal.Dropped(); n > 0 {
		t.Fatalf("journal ring dropped %d records", n)
	}
	dir := t.TempDir()
	tracePath, journalPath = filepath.Join(dir, "run.trace"), filepath.Join(dir, "run.journal")
	for path, write := range map[string]func(*os.File) error{
		tracePath:   func(f *os.File) error { return tr.WriteNDJSON(f) },
		journalPath: func(f *os.File) error { return cfg.Journal.WriteNDJSON(f) },
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return tracePath, journalPath
}

// TestCriticalPathEndToEnd is the acceptance check: from the journal of
// a police+attack sim run, `ddtrace -critical FILE` prints one row per
// cut with every stage filled in, each cut joined to its round although
// the simulator records the sweep's cuts after every round of the sweep.
func TestCriticalPathEndToEnd(t *testing.T) {
	_, journalPath := tracedRun(t)
	cmd := exec.Command(os.Args[0], "-critical", journalPath)
	cmd.Env = append(os.Environ(), "DDTRACE_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ddtrace -critical: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	header := strings.Fields(lines[0])
	if len(header) != 11 || header[0] != "window" || header[7] != "cut(s)" {
		t.Fatalf("critical table header = %q", lines[0])
	}
	cutRows := 0
	for _, line := range lines[1:] {
		row := strings.Fields(line)
		if len(row) != len(header) {
			t.Fatalf("row %q does not fit the header %q", line, lines[0])
		}
		if row[7] == "-" {
			continue
		}
		cutRows++
		if slices.Contains(row[4:8], "-") {
			t.Errorf("cut row %q skips a stage", line)
		}
	}

	events, err := readJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	cuts := 0
	for _, e := range events {
		if e.Type == journal.TypeCut {
			cuts++
		}
	}
	if cuts == 0 || cutRows != cuts {
		t.Fatalf("%d cut rows for %d journaled cuts:\n%s", cutRows, cuts, stdout.String())
	}
}

// TestDetectionsFromJournal rebuilds rounds from hand-built records: two
// live observers judging one suspect, interleaved as in a shared gnet
// journal, one of them deferred, warned again while its round is still
// pending, and never cutting; then two simulated observers whose cuts the
// sweep records after both rounds; and records no round takes.
func TestDetectionsFromJournal(t *testing.T) {
	ev := func(t float64, typ string, node, peer int64, window int, member int64) journal.Event {
		return journal.Event{T: t, Type: typ, Node: node, Peer: peer, Window: window, Member: member}
	}
	events := []journal.Event{
		ev(60, journal.TypeWarning, 1, 9, 1, 0),
		ev(60, journal.TypeWarning, 2, 9, 1, 0),
		ev(60, journal.TypeNTRequest, 1, 9, 1, 0),
		ev(60.5, journal.TypeNTRequest, 2, 9, 1, 0),
		ev(62, journal.TypeNTReport, 1, 9, 0, 4),
		ev(90, journal.TypeNTTimeout, 1, 9, 0, 5),
		ev(90, journal.TypeIndicator, 1, 9, 1, 0),
		ev(90.5, journal.TypeNTDefer, 2, 9, 0, 0),
		ev(90.5, journal.TypeCut, 1, 9, 1, 0),
		ev(120, journal.TypeWarning, 2, 9, 2, 0), // rate-limited: no request
		ev(110, journal.TypeNTReport, 2, 9, 0, 3),
		ev(100, journal.TypeNTReport, 2, 9, 0, 6),
		ev(120.5, journal.TypeIndicator, 2, 9, 1, 0),
		ev(180, journal.TypeWarning, 5, 7, 3, 0),
		ev(180, journal.TypeNTRequest, 5, 7, 3, 0),
		ev(180, journal.TypeNTReport, 5, 7, 0, 8),
		ev(180, journal.TypeIndicator, 5, 7, 3, 0),
		ev(180, journal.TypeWarning, 6, 7, 3, 0),
		ev(180, journal.TypeNTRequest, 6, 7, 3, 0),
		ev(180, journal.TypeNTTimeout, 6, 7, 0, 8),
		ev(180, journal.TypeIndicator, 6, 7, 3, 0),
		ev(180, journal.TypeCut, 5, 7, 3, 0),
		ev(180, journal.TypeCut, 6, 7, 3, 0),
		ev(181, journal.TypeNTReport, 42, 43, 0, 44), // no round of (42, 43)
		ev(181, journal.TypeCut, 1, 9, 7, 0),         // no round in window 7
		ev(181, journal.TypePeerDrop, 1, 9, 0, 0),
	}
	want := []detection{
		{window: 1, node: 1, suspect: 9, warnT: 60, request: 0, firstReport: 2, indicator: 30, cut: 30.5, reports: 1, timeouts: 1},
		{window: 1, node: 2, suspect: 9, warnT: 60, request: 0.5, firstReport: 40, indicator: 60.5, cut: -1, reports: 2, defers: 1},
		{window: 2, node: 2, suspect: 9, warnT: 120, request: -1, firstReport: -1, indicator: -1, cut: -1},
		{window: 3, node: 5, suspect: 7, warnT: 180, request: 0, firstReport: 0, indicator: 0, cut: 0, reports: 1},
		{window: 3, node: 6, suspect: 7, warnT: 180, request: 0, firstReport: -1, indicator: 0, cut: 0, timeouts: 1},
	}
	got := detections(events)
	if !slices.Equal(got, want) {
		t.Fatalf("detections\n got %+v\nwant %+v", got, want)
	}

	var sb strings.Builder
	if err := printCritical(&sb, got); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"1 2 9 60 0.5 40.0 60.5 - 2 0 1", "2 2 9 120 - - - - 0 0 0"} {
		if !strings.Contains(strings.Join(strings.Fields(sb.String()), " "), row) {
			t.Errorf("table lacks the row %q:\n%s", row, sb.String())
		}
	}
}

func TestSummaryAndFanOut(t *testing.T) {
	path, _ := tracedRun(t)
	spans, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	views := trace.Group(spans)

	var sum strings.Builder
	if err := printSummary(&sum, spans, views); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "spans in") || !strings.Contains(sum.String(), "query traces") {
		t.Fatalf("summary = %q", sum.String())
	}

	var fo strings.Builder
	if err := printFanOut(&fo, views); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fo.String(), "depth") || strings.Contains(fo.String(), "no query traces") {
		t.Fatalf("fanout = %q", fo.String())
	}

	var tree strings.Builder
	if err := printTrees(&tree, views, views[0].ID); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.String(), "└─ "+trace.KindQueryIssue) {
		t.Fatalf("tree of %s lacks its query_issue root:\n%s", views[0].ID, tree.String())
	}
}

func TestPerfettoConversion(t *testing.T) {
	path, _ := tracedRun(t)
	spans, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "run.json")
	var status strings.Builder
	if err := writePerfetto(out, spans, &status); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"displayTimeUnit":"ms","traceEvents":[`) {
		t.Fatalf("perfetto output prefix = %q", data[:40])
	}
}
