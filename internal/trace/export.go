package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ddpolice/internal/outfile"
)

// WriteNDJSON writes one span per line in commit order. The encoding
// is deterministic: struct field order, no HTML escaping surprises
// (span fields are plain identifiers and numbers).
func WriteNDJSON(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteNDJSON writes the tracer's committed spans as NDJSON.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	return WriteNDJSON(w, t.Spans())
}

// ReadNDJSON parses a span stream produced by WriteNDJSON. Blank lines
// are skipped; a malformed line is an error.
func ReadNDJSON(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" {
			continue
		}
		var s Span
		if err := json.Unmarshal([]byte(txt), &s); err != nil {
			return out, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// chromeEvent is one Chrome trace-event ("X" complete events only),
// the JSON dialect Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace converts spans to Chrome trace-event JSON. Each
// distinct trace becomes one process row (pid assigned in order of
// first appearance, so output is deterministic); the acting node is
// the thread. Instant spans get a 1 µs floor so they stay visible.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	pids := make(map[string]int)
	for i := range spans {
		s := &spans[i]
		pid, ok := pids[s.Trace]
		if !ok {
			pid = len(pids) + 1
			pids[s.Trace] = pid
		}
		ev := chromeEvent{
			Name: s.Kind,
			Cat:  "query",
			Ph:   "X",
			TS:   s.T * 1e6,
			Dur:  s.Dur * 1e6,
			PID:  pid,
			TID:  s.Node,
		}
		if ev.Dur < 1 {
			ev.Dur = 1
		}
		args := map[string]any{"trace": s.Trace, "span": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Peer != 0 {
			args["peer"] = s.Peer
		}
		if s.Depth != 0 {
			args["depth"] = s.Depth
		}
		if s.Value != 0 {
			args["value"] = s.Value
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		ev.Args = args
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(&ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeTrace converts the tracer's committed spans.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Spans())
}

// WriteFile writes the tracer's committed spans to path in the format
// its extension names — .json gets Chrome trace-event JSON (load in
// Perfetto), anything else NDJSON (feed to ddtrace) — through outfile,
// so a failed flush or close is an error, not a truncated file.
func (t *Tracer) WriteFile(path string) error {
	return outfile.Write(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".json") {
			return t.WriteChromeTrace(w)
		}
		return t.WriteNDJSON(w)
	})
}
