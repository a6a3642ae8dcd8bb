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
	tr.Record(42, Span{Kind: KindCongestion}) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer not inert")
	}
}

// TestTraceLifecycle: a recorded span is sampled on its trace ID,
// stamped with the formatted ID, committed at once and snapshotted in
// commit order; a sampled-out ID records nothing.
func TestTraceLifecycle(t *testing.T) {
	tr := New(1.0, 0)
	const id = 0x1a2b3c4d5e6f7081
	tr.Record(id, Span{Kind: KindQueryIssue, T: 3, Node: 12})
	tr.Record(id, Span{Trace: "ignored", Kind: KindHop, T: 3.1, Node: 20, Peer: 12, Depth: 1})
	spans := tr.Spans()
	if len(spans) != 2 || tr.Len() != 2 {
		t.Fatalf("spans = %d, Len = %d, want 2", len(spans), tr.Len())
	}
	want := Span{Trace: FormatID(id), Kind: KindHop, T: 3.1, Node: 20, Peer: 12, Depth: 1}
	if spans[0].Trace != FormatID(id) || spans[0].Kind != KindQueryIssue || spans[1] != want {
		t.Fatalf("spans = %+v", spans)
	}
	spans[0].Node = 99
	if tr.Spans()[0].Node != 12 {
		t.Fatal("Spans returned the store, not a copy")
	}
	off := New(0, 0)
	off.Record(id, Span{Kind: KindHop})
	if off.Len() != 0 || off.Dropped() != 0 {
		t.Fatal("rate 0 recorded a span")
	}
}

func TestSamplingDeterministic(t *testing.T) {
	tr1 := New(0.3, 0)
	tr2 := New(0.3, 0)
	kept := 0
	for i := uint64(0); i < 1000; i++ {
		id := i
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

// TestTracerCapDropsSpans: past the cap every span is dropped and
// counted, and the ones already kept stay.
func TestTracerCapDropsSpans(t *testing.T) {
	tr := New(1.0, 2)
	tr.Record(1, Span{Kind: KindQueryIssue})
	tr.Record(1, Span{Kind: KindHop, Depth: 1})
	tr.Record(1, Span{Kind: KindDelivery, Depth: 1}) // over the cap of 2
	tr.Record(2, Span{Kind: KindQueryIssue})
	if tr.Len() != 2 || tr.Spans()[1].Kind != KindHop {
		t.Fatalf("kept %+v, want the first two spans", tr.Spans())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
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
	tr.Record(1, Span{Kind: KindQueryIssue, T: 1, Node: 3, Value: 17})
	tr.Record(1, Span{Kind: KindHop, T: 1.5, Node: 4, Peer: 3, Depth: 1})
	tr.Record(1, Span{Kind: KindCongestion, T: 2, Node: 5, Peer: 4, Depth: 2, Detail: "saturated"})

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
	tr.Record(1, Span{Kind: KindQueryIssue, T: 1, Node: 3})
	tr.Record(1, Span{Kind: KindHop, T: 1.5, Node: 4, Depth: 1})
	tr.Record(2, Span{Kind: KindCongestion, T: 9, Node: 2, Peer: 3})

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
		t.Fatalf("issue event = %+v", ev[0])
	}
	if ev[1].Dur != 1 { // instant span gets the 1 µs floor
		t.Fatalf("hop dur = %g", ev[1].Dur)
	}
	if ev[2].Cat != "query" || ev[2].PID == ev[0].PID {
		t.Fatalf("congestion event = %+v (pid clash with %+v)", ev[2], ev[0])
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
	tr.Record(1, Span{Kind: KindQueryIssue, T: 1, Node: 3})
	tr.Record(1, Span{Kind: KindHop, T: 1.5, Node: 4, Depth: 1})
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
