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

// journalRun executes a small police+attack simulation with the journal
// on and writes the journal NDJSON to a temp file.
func journalRun(t *testing.T) string {
	t.Helper()
	cfg := ddpolice.DefaultConfig()
	cfg.NumPeers = 600
	cfg.DurationSec = 360
	cfg.AttackStartSec = 60
	cfg.ChurnEnabled = false
	cfg.PoliceEnabled = true
	cfg.NumAgents = 4
	cfg.Journal = journal.New(1 << 16)
	if _, err := ddpolice.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Journal.Dropped(); n > 0 {
		t.Fatalf("journal ring dropped %d records", n)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Journal.WriteNDJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// twoQueries is a hand-built span stream as live nodes record it:
// standalone spans of two interleaved query traces, the first reaching
// two peers at depth 1 and two at depth 2 (one answers), the second two
// at depth 1, one at depth 2 (and a congestion drop there) and one at
// depth 3.
const twoQueries = "testdata/two_queries.trace"

// TestCriticalPathEndToEnd is the acceptance check: from the journal of
// a police+attack sim run, `ddtrace -critical FILE` prints one row per
// cut with every stage filled in, each cut joined to its round although
// the simulator records the sweep's cuts after every round of the sweep.
func TestCriticalPathEndToEnd(t *testing.T) {
	journalPath := journalRun(t)
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
	spans, err := readSpans(twoQueries)
	if err != nil {
		t.Fatal(err)
	}
	views := trace.Group(spans)

	var sum strings.Builder
	if err := printSummary(&sum, spans, views); err != nil {
		t.Fatal(err)
	}
	if got, want := sum.String(), "12 spans in 2 query traces\n"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}

	var fo strings.Builder
	if err := printFanOut(&fo, views); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(fo.String()), "\n") {
		rows = append(rows, strings.Join(strings.Fields(line), " "))
	}
	if want := []string{"depth hops hops/query", "1 4 2.00", "2 3 1.50", "3 1 0.50"}; !slices.Equal(rows, want) {
		t.Fatalf("fanout rows = %q, want %q", rows, want)
	}

	var tree strings.Builder
	if err := printTrees(&tree, views, views[0].ID); err != nil {
		t.Fatal(err)
	}
	// Live spans are standalone: the tree lists the trace's six in
	// recorded order, its query_issue first.
	lines := strings.Split(strings.TrimSpace(tree.String()), "\n")
	if len(lines) != 7 || lines[0] != "trace "+views[0].ID || !strings.Contains(lines[1], "─ "+trace.KindQueryIssue+" ") {
		t.Fatalf("tree of %s is not its six spans under the query_issue:\n%s", views[0].ID, tree.String())
	}
}

func TestPerfettoConversion(t *testing.T) {
	spans, err := readSpans(twoQueries)
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
	if !strings.HasPrefix(status.String(), "wrote 12 events to ") {
		t.Fatalf("perfetto status = %q", status.String())
	}
}

// TestConflictingModesExitTwo: -critical, -tree, -fanout and -perfetto
// each pick what ddtrace prints, so two of them at once exit 2 naming
// both instead of running one and ignoring the other.
func TestConflictingModesExitTwo(t *testing.T) {
	dir, spans := t.TempDir(), twoQueries
	perfetto := filepath.Join(dir, "run.json")
	for _, tc := range []struct {
		args       []string
		mode, also string
	}{
		{[]string{"-in", spans, "-tree", "all", "-fanout"}, "-tree", "-fanout"},
		{[]string{"-in", spans, "-fanout", "-perfetto", perfetto}, "-fanout", "-perfetto"},
		{[]string{"-critical", spans, "-fanout"}, "-critical", "-fanout"},
		{[]string{"-in", spans, "-tree", "all", "-perfetto", perfetto}, "-tree", "-perfetto"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "DDTRACE_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("ddtrace %v: err = %v, want exit 2", tc.args, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.mode) || !strings.Contains(msg, tc.also) {
			t.Errorf("ddtrace %v: stderr %q names neither or only one of %s, %s", tc.args, msg, tc.mode, tc.also)
		}
		if stdout.Len() > 0 {
			t.Errorf("ddtrace %v printed %q", tc.args, stdout.String())
		}
		if _, err := os.Stat(perfetto); err == nil {
			t.Fatalf("ddtrace %v wrote %s", tc.args, perfetto)
		}
	}
}
