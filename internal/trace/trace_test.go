package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Sampled(42) {
		t.Fatal("nil tracer sampled")
	}
	if tc := tr.Start(42, Span{Kind: KindQueryIssue}); tc != nil {
		t.Fatal("nil tracer started a trace")
	}
	tr.Record(42, Span{Kind: KindShed}) // must not panic
	if tr.Len() != 0 || tr.TraceCount() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tc *Trace
	if got := tc.Add(Span{Kind: KindHop}); got != 0 {
		t.Fatalf("nil Add = %d", got)
	}
	tc.End()
	tc.EndAt(5)
	if tc.ID() != "" {
		t.Fatalf("nil ID = %q", tc.ID())
	}
}

func TestTraceLifecycle(t *testing.T) {
	tr := New(1.0, 0)
	id := QueryID(7, 3, 0)
	tc := tr.Start(id, Span{Kind: KindQueryIssue, T: 3, Node: 12})
	if tc == nil {
		t.Fatal("sample=1 must keep every trace")
	}
	if tr.Len() != 0 {
		t.Fatal("spans visible before End")
	}
	h1 := tc.Add(Span{Kind: KindHop, T: 3.1, Node: 20, Depth: 1})
	h2 := tc.Add(Span{Kind: KindHop, T: 3.2, Node: 21, Parent: h1, Depth: 2})
	if h1 != 1 || h2 != 2 {
		t.Fatalf("ordinals = %d, %d", h1, h2)
	}
	tc.EndAt(5)
	tc.End() // idempotent
	spans := tr.Spans()
	if len(spans) != 3 || tr.TraceCount() != 1 {
		t.Fatalf("spans=%d traces=%d", len(spans), tr.TraceCount())
	}
	if spans[0].ID != 0 || spans[0].Dur != 2 {
		t.Fatalf("root = %+v", spans[0])
	}
	if spans[0].Trace != FormatID(id) || spans[2].Parent != h1 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	tr1 := New(0.3, 0)
	tr2 := New(0.3, 0)
	kept := 0
	for i := uint64(0); i < 1000; i++ {
		id := QueryID(99, i, 0)
		if tr1.Sampled(id) != tr2.Sampled(id) {
			t.Fatalf("sampling disagrees for id %d", id)
		}
		if tr1.Sampled(id) {
			kept++
		}
	}
	// The hash is uniform, so 30% ± a generous margin.
	if kept < 200 || kept > 400 {
		t.Fatalf("kept %d/1000 at rate 0.3", kept)
	}
	if New(0, 0).Sampled(123) {
		t.Fatal("rate 0 sampled")
	}
	if !New(1, 0).Sampled(123) {
		t.Fatal("rate 1 rejected")
	}
}

func TestTracerCapDropsWholeTraces(t *testing.T) {
	tr := New(1.0, 4)
	tc := tr.Start(1, Span{Kind: KindQueryIssue})
	tc.Add(Span{Kind: KindHop})
	tc.End() // 2 spans committed
	tc2 := tr.Start(2, Span{Kind: KindQueryIssue})
	tc2.Add(Span{Kind: KindHop})
	tc2.Add(Span{Kind: KindHop}) // 3 spans: would exceed the cap of 4
	tc2.End()
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2 (second trace dropped whole)", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
}

// TestIDsDistinctAcrossLifecycles: every query's lifecycle gets its own
// trace ID — seed, tick and index each move it, and swapping tick and
// index does not collide — and the ID is a pure function of the three.
func TestIDsDistinctAcrossLifecycles(t *testing.T) {
	seen := map[uint64]string{}
	add := func(id uint64, what string) {
		if prev, ok := seen[id]; ok {
			t.Fatalf("id collision: %s vs %s", prev, what)
		}
		seen[id] = what
	}
	add(QueryID(7, 1, 2), "query")
	add(QueryID(7, 2, 1), "tick and index swapped")
	add(QueryID(7, 1, 3), "next query of the tick")
	add(QueryID(8, 1, 2), "query other seed")
	if QueryID(7, 1, 2) != QueryID(7, 1, 2) {
		t.Fatal("QueryID not pure")
	}
}

// TestFormatParseID: a formatted ID is 16 lowercase hex digits that
// parse back to the ID — what a consumer matching span files by trace
// ID relies on.
func TestFormatParseID(t *testing.T) {
	for id, want := range map[uint64]string{
		0:          "0000000000000000",
		0xDEADBEEF: "00000000deadbeef",
		^uint64(0): "ffffffffffffffff",
	} {
		s := FormatID(id)
		if s != want {
			t.Fatalf("FormatID(%#x) = %q, want %q", id, s, want)
		}
		if back, err := strconv.ParseUint(s, 16, 64); err != nil || back != id {
			t.Fatalf("%q parses back to %d, %v", s, back, err)
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	tr := New(1.0, 0)
	tc := tr.Start(QueryID(1, 0, 0), Span{Kind: KindQueryIssue, T: 1, Node: 3, Value: 17})
	tc.Add(Span{Kind: KindHop, T: 1.5, Node: 4, Peer: 3, Depth: 1})
	tc.Add(Span{Kind: KindTTLDeath, T: 2, Detail: "saturated"})
	tc.End()

	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if len(back) != len(want) {
		t.Fatalf("round trip len = %d, want %d", len(back), len(want))
	}
	for i := range back {
		if back[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, back[i], want[i])
		}
	}

	// Identical span streams must serialize byte-identically.
	var buf2 bytes.Buffer
	if err := tr.WriteNDJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		// buf was consumed by ReadNDJSON; re-render for the check.
		var a, b bytes.Buffer
		_ = tr.WriteNDJSON(&a)
		_ = tr.WriteNDJSON(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("NDJSON not deterministic")
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := New(1.0, 0)
	tc := tr.Start(QueryID(1, 0, 0), Span{Kind: KindQueryIssue, T: 1, Node: 3})
	tc.Add(Span{Kind: KindHop, T: 1.5, Node: 4, Depth: 1})
	tc.End()
	tr.Record(QueryID(1, 0, 1), Span{Kind: KindShed, T: 9, Node: 2, Peer: 3, Detail: "quarantine"})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 3 {
		t.Fatalf("doc = %+v", doc)
	}
	ev := doc.TraceEvents
	if ev[0].Ph != "X" || ev[0].TS != 1e6 || ev[0].Cat != "query" {
		t.Fatalf("root event = %+v", ev[0])
	}
	if ev[1].Dur != 1 { // instant span gets the 1 µs floor
		t.Fatalf("hop dur = %g", ev[1].Dur)
	}
	if ev[2].Cat != "query" || ev[2].PID == ev[0].PID {
		t.Fatalf("shed event = %+v (pid clash with %+v)", ev[2], ev[0])
	}
	if ev[0].PID != ev[1].PID {
		t.Fatal("same trace split across pids")
	}
}

// TestWriteFileByExtension: the one trace-dump switch the commands
// share — .json is the Chrome export, anything else the NDJSON stream,
// each byte-identical to its writer — and a failed write is an error.
func TestWriteFileByExtension(t *testing.T) {
	tr := New(1.0, 0)
	tc := tr.Start(QueryID(1, 0, 0), Span{Kind: KindQueryIssue, T: 1, Node: 3})
	tc.Add(Span{Kind: KindHop, T: 1.5, Node: 4, Depth: 1})
	tc.End()
	dir := t.TempDir()
	for name, write := range map[string]func(io.Writer) error{
		"run.json":   tr.WriteChromeTrace,
		"run.ndjson": tr.WriteNDJSON,
		"run":        tr.WriteNDJSON,
	} {
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: WriteFile wrote\n%s\nwant\n%s", name, got, want.Bytes())
		}
	}
	if err := tr.WriteFile(filepath.Join(dir, "missing", "run.json")); err == nil {
		t.Error("WriteFile into a missing directory returned nil")
	}
}

func TestReadNDJSONRejectsGarbage(t *testing.T) {
	_, err := ReadNDJSON(strings.NewReader("{\"trace\":\"x\"}\nnot json\n"))
	if err == nil {
		t.Fatal("garbage line accepted")
	}
}
