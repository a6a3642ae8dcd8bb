package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ddpolice"
	"ddpolice/internal/journal"
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

// twoQueries is a hand-built journal as live nodes with -flood-sample 1
// record it: the flood records of two interleaved queries, the first
// reaching two peers at depth 1 and two at depth 2 (one answers), the
// second two at depth 1, one at depth 2 (and a congestion drop there)
// and one at depth 3; then a warning and its nt_request.
const twoQueries = "testdata/two_queries.journal"

// TestCriticalPathEndToEnd is the acceptance check: from the journal of
// a police+attack sim run, `ddtrace -in FILE -critical` prints one row per
// cut with every stage filled in, each cut joined to its round although
// the simulator records the sweep's cuts after every round of the sweep.
func TestCriticalPathEndToEnd(t *testing.T) {
	journalPath := journalRun(t)
	cmd := exec.Command(os.Args[0], "-in", journalPath, "-critical")
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
	events, err := readJournal(twoQueries)
	if err != nil {
		t.Fatal(err)
	}
	fl := floods(events)

	var sum strings.Builder
	if err := printSummary(&sum, events, fl); err != nil {
		t.Fatal(err)
	}
	if got, want := sum.String(), "14 records: 12 flood records of 2 queries\n"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}

	var fo strings.Builder
	if err := printFanOut(&fo, fl); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(fo.String()), "\n") {
		rows = append(rows, strings.Join(strings.Fields(line), " "))
	}
	if want := []string{"depth hops hops/query", "1 4 2.00", "2 3 1.50", "3 1 0.50"}; !slices.Equal(rows, want) {
		t.Fatalf("fanout rows = %q, want %q", rows, want)
	}
	deep := []flood{{id: "x", records: []journal.Event{{Type: journal.TypeHop, Depth: maxDepth + 1}}}}
	if err := printFanOut(io.Discard, deep); err == nil {
		t.Fatalf("a hop at depth %d was tallied", maxDepth+1)
	}
}

// TestGroup: floods keeps only flood records, one group per query ID in
// order of first appearance, each group's records in journal order.
func TestGroup(t *testing.T) {
	events, err := readJournal(twoQueries)
	if err != nil {
		t.Fatal(err)
	}
	fl := floods(events)
	if len(fl) != 2 || fl[0].id != "1a2b3c4d5e6f7081" || fl[1].id != "0f1e2d3c4b5a6978" {
		t.Fatalf("floods = %+v, want 1a2b3c4d5e6f7081 then 0f1e2d3c4b5a6978", fl)
	}
	for _, f := range fl {
		if len(f.records) != 6 {
			t.Fatalf("query %s has %d records, want 6", f.id, len(f.records))
		}
		for i, e := range f.records {
			if e.Detail != f.id || !isFlood(e.Type) || (i > 0 && e.Seq <= f.records[i-1].Seq) {
				t.Fatalf("query %s record %d = %+v", f.id, i, e)
			}
		}
	}
	if got := floods([]journal.Event{{Type: journal.TypeWarning, Detail: "x"}}); len(got) != 0 {
		t.Fatalf("a warning made a flood: %+v", got)
	}
}

// TestFanOut: only hop records count, a depth no hop reached is a zero
// row, and hops/query divides by every flooded query.
func TestFanOut(t *testing.T) {
	var recs []journal.Event
	add := func(n int, typ string, depth int) {
		for i := 0; i < n; i++ {
			recs = append(recs, journal.Event{Type: typ, Depth: depth, Detail: "a"})
		}
	}
	add(1, journal.TypeQueryIssue, 0)
	add(3, journal.TypeHop, 1)
	add(5, journal.TypeHop, 2)
	add(1, journal.TypeCongestionDrop, 2) // not a hop
	add(1, journal.TypeDelivery, 2)       // not a hop
	add(1, journal.TypeHop, 4)            // gap at depth 3
	fl := append(floods(recs), flood{id: "b", records: []journal.Event{{Type: journal.TypeQueryIssue}}})
	var sb strings.Builder
	if err := printFanOut(&sb, fl); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		rows = append(rows, strings.Join(strings.Fields(line), " "))
	}
	if want := []string{"depth hops hops/query", "1 3 1.50", "2 5 2.50", "3 0 0.00", "4 1 0.50"}; !slices.Equal(rows, want) {
		t.Fatalf("fanout rows = %q, want %q", rows, want)
	}
	sb.Reset()
	if err := printFanOut(&sb, nil); err != nil || sb.String() != "no flood records\n" {
		t.Fatalf("empty fanout = %q, %v", sb.String(), err)
	}
}

// TestWriteTree: each hop nests under the record of the node that sent
// the copy, a delivery under its node's hop, a congestion drop under its
// sender.
func TestWriteTree(t *testing.T) {
	events, err := readJournal(twoQueries)
	if err != nil {
		t.Fatal(err)
	}
	fl := floods(events)
	var tree strings.Builder
	if err := printTrees(&tree, fl, "all"); err != nil {
		t.Fatal(err)
	}
	want := `query 1a2b3c4d5e6f7081
└─ query_issue t=1700000000.000 node=1
   ├─ hop t=1700000000.010 node=2 peer=1 depth=1
   │  └─ hop t=1700000000.020 node=4 peer=2 depth=2
   └─ hop t=1700000000.011 node=3 peer=1 depth=1
      └─ hop t=1700000000.021 node=5 peer=3 depth=2
         └─ delivery t=1700000000.021 node=5 peer=3 depth=2
query 0f1e2d3c4b5a6978
└─ query_issue t=1700000000.015 node=4
   ├─ hop t=1700000000.025 node=1 peer=4 depth=1
   │  ├─ hop t=1700000000.035 node=2 peer=1 depth=2
   │  │  └─ hop t=1700000000.045 node=7 peer=2 depth=3
   │  └─ congestion_drop t=1700000000.036 node=3 peer=1 depth=2
   └─ hop t=1700000000.026 node=6 peer=4 depth=1
`
	if tree.String() != want {
		t.Fatalf("trees:\n%s\nwant:\n%s", tree.String(), want)
	}
}

// TestWriteTreeLivePath: one node's file alone, as a live node writes
// it. The records whose sender is elsewhere are roots, a hop's sender
// must be one depth up, and records that name each other as sender do
// not recurse.
func TestWriteTreeLivePath(t *testing.T) {
	var part strings.Builder
	if err := writeTree(&part, flood{id: "x", records: []journal.Event{
		{Type: journal.TypeHop, Node: 4, Peer: 2, Depth: 2},
		{Type: journal.TypeHop, Node: 9, Peer: 4, Depth: 3},
		{Type: journal.TypeHop, Node: 8, Peer: 4, Depth: 5},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(part.String(), "\n└─ ") + strings.Count(part.String(), "\n├─ "); got != 2 {
		t.Fatalf("partial tree has %d roots, want 2:\n%s", got, part.String())
	}

	var loop strings.Builder
	if err := writeTree(&loop, flood{id: "y", records: []journal.Event{
		{Type: journal.TypeHop, Node: 1, Peer: 2, Depth: 1},
		{Type: journal.TypeHop, Node: 2, Peer: 1, Depth: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(loop.String(), "\n"); n != 3 {
		t.Fatalf("mutual-sender tree lines = %d:\n%s", n, loop.String())
	}

	events, err := readJournal(twoQueries)
	if err != nil {
		t.Fatal(err)
	}
	if err := printTrees(&part, floods(events), "ffffffffffffffff"); err == nil {
		t.Fatal("an absent query ID printed no error")
	}
}

func TestPerfettoConversion(t *testing.T) {
	events, err := readJournal(twoQueries)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "run.json")
	var status strings.Builder
	if err := writePerfetto(out, events, &status); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Cat  string
			PID  int
			TID  int64
			Args journal.Event
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("perfetto output is not JSON: %v\n%s", err, data)
	}
	if len(doc.TraceEvents) != len(events) {
		t.Fatalf("%d trace events for %d records", len(doc.TraceEvents), len(events))
	}
	for i, ev := range doc.TraceEvents {
		e := events[i]
		wantPID, wantCat := 0, "journal"
		switch e.Detail {
		case "1a2b3c4d5e6f7081":
			wantPID, wantCat = 1, "query"
		case "0f1e2d3c4b5a6978":
			wantPID, wantCat = 2, "query"
		}
		if ev.Name != e.Type || ev.Cat != wantCat || ev.PID != wantPID || ev.TID != e.Node || ev.Args != e {
			t.Errorf("event %d = %+v, want record %+v in pid %d", i, ev, e, wantPID)
		}
	}
	if !strings.HasPrefix(status.String(), "wrote 14 events to ") {
		t.Fatalf("perfetto status = %q", status.String())
	}
}

// TestChromeTraceExport: the -perfetto file is the trace-event dialect
// Perfetto loads: complete ("X") events in microseconds, each drawn 1 µs
// wide, under a millisecond display unit.
func TestChromeTraceExport(t *testing.T) {
	events := []journal.Event{
		{Seq: 1, T: 2.5, Type: journal.TypeQueryIssue, Node: 3, Detail: "00000000000000aa"},
		{Seq: 2, T: 2.75, Type: journal.TypeHop, Node: 4, Peer: 3, Depth: 1, Detail: "00000000000000aa"},
	}
	out := filepath.Join(t.TempDir(), "run.json")
	if err := writePerfetto(out, events, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string
		TraceEvents     []chromeEvent
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("perfetto output is not JSON: %v\n%s", err, data)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 2 {
		t.Fatalf("document = %+v", doc)
	}
	for i, want := range []float64{2.5e6, 2.75e6} {
		ev := doc.TraceEvents[i]
		if ev.Ph != "X" || ev.TS != want || ev.Dur != 1 || ev.PID != 1 {
			t.Errorf("event %d = %+v, want ph X at ts %g, dur 1, pid 1", i, ev, want)
		}
	}
	if err := writePerfetto(filepath.Join(t.TempDir(), "no", "such", "dir.json"), events, io.Discard); err == nil {
		t.Fatal("an unwritable path reported no error")
	}
}

// TestConflictingModesExitTwo: -critical, -tree, -fanout and -perfetto
// each pick what ddtrace prints, so two of them at once exit 2 naming
// both instead of running one and ignoring the other.
func TestConflictingModesExitTwo(t *testing.T) {
	dir, in := t.TempDir(), twoQueries
	perfetto := filepath.Join(dir, "run.json")
	for _, tc := range []struct {
		args       []string
		mode, also string
	}{
		{[]string{"-in", in, "-tree", "all", "-fanout"}, "-tree", "-fanout"},
		{[]string{"-in", in, "-fanout", "-perfetto", perfetto}, "-fanout", "-perfetto"},
		{[]string{"-in", in, "-critical", "-fanout"}, "-critical", "-fanout"},
		{[]string{"-in", in, "-tree", "all", "-perfetto", perfetto}, "-tree", "-perfetto"},
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
