package trace_test

import (
	"bytes"
	"testing"

	"ddpolice/internal/trace"
)

// FuzzReadNDJSON drives the span reader — ddtrace's input, read from
// files it did not write — with arbitrary bytes: it must never panic,
// and any stream it accepts must survive write → read unchanged, span
// for span. The seeds are one span of each kind a live node records and
// one tree-shaped span (ordinal and parent set), each alone and all
// together, then a few malformed streams. `go test` runs the seed
// corpus; `go test -fuzz=FuzzReadNDJSON ./internal/trace` explores
// further.
func FuzzReadNDJSON(f *testing.F) {
	const id = 0x1a2b3c4d5e6f7081
	tr := trace.New(1, 0)
	tr.Record(id, trace.Span{Kind: trace.KindQueryIssue, T: 1700000000, Node: 1})
	tr.Record(id, trace.Span{Kind: trace.KindHop, T: 1700000000.01, Node: 2, Peer: 1, Depth: 1})
	tr.Record(id, trace.Span{Kind: trace.KindCongestion, T: 1700000000.011, Node: 3, Peer: 1, Depth: 1, Detail: "saturated"})
	tr.Record(id, trace.Span{Kind: trace.KindDelivery, T: 1700000000.02, Dur: 0.5, Node: 4, Peer: 2, Depth: 2, Value: 1})
	spans := append(tr.Spans(), trace.Span{Trace: trace.FormatID(id), ID: 3, Parent: 2, Kind: trace.KindHop, T: 60, Node: 9, Peer: 6, Depth: 2})
	var all bytes.Buffer
	if err := trace.WriteNDJSON(&all, spans); err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(all.Bytes(), []byte("\n")) {
		if len(line) > 0 {
			f.Add(line)
		}
	}
	f.Add(all.Bytes())
	f.Add([]byte("\r\n{\"trace\":\"00\",\"id\":1,\"kind\":\"hop\",\"t\":-1e308,\"detail\":\"\\u00e9\"}\r\n"))
	f.Add([]byte("{\"trace\":\"x\"}\nnot json\n"))
	f.Add([]byte("null\n{\"id\":4294967296}\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := trace.ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.WriteNDJSON(&buf, spans); err != nil {
			t.Fatalf("accepted spans do not encode: %v", err)
		}
		back, err := trace.ReadNDJSON(&buf)
		if err != nil {
			t.Fatalf("re-reading what was written: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(spans) {
			t.Fatalf("%d spans read back, want %d", len(back), len(spans))
		}
		for i := range back {
			if back[i] != spans[i] {
				t.Fatalf("span %d round trip = %+v, want %+v", i, back[i], spans[i])
			}
		}
	})
}
