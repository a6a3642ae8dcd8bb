package trace_test

import (
	"bytes"
	"testing"

	"ddpolice/internal/sim"
	"ddpolice/internal/trace"
)

// FuzzReadNDJSON drives the span reader — ddtrace's input, read from
// files it did not write — with arbitrary bytes: it must never panic,
// and any stream it accepts must survive write → read unchanged, span
// for span. The seeds are the first line of each span kind in one real
// traced run, each alone and all together, then a few malformed streams;
// a whole run makes a seed too large for the fuzzer to mutate well. `go
// test` runs the seed corpus; `go test -fuzz=FuzzReadNDJSON
// ./internal/trace` explores further.
func FuzzReadNDJSON(f *testing.F) {
	cfg := sim.DefaultConfig()
	cfg.NumPeers, cfg.NumAgents, cfg.AttackStartSec, cfg.DurationSec = 60, 2, 0, 60
	tr := trace.New(1, 0)
	cfg.Trace = tr
	if _, err := sim.Run(cfg); err != nil {
		f.Fatal(err)
	}
	var run bytes.Buffer
	if err := tr.WriteNDJSON(&run); err != nil {
		f.Fatal(err)
	}
	spans := tr.Spans()
	kinds := map[string]bool{}
	var firsts []byte
	for i, line := range bytes.SplitAfter(run.Bytes(), []byte("\n")) {
		if i < len(spans) && !kinds[spans[i].Kind] {
			kinds[spans[i].Kind] = true
			f.Add(line)
			firsts = append(firsts, line...)
		}
	}
	if len(kinds) < 5 {
		f.Fatalf("the seed run traced only the span kinds %v", kinds)
	}
	f.Add(firsts)
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
