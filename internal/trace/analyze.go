package trace

import (
	"fmt"
	"io"
)

// TraceView is one reassembled trace: every span sharing a trace ID,
// in recorded order.
type TraceView struct {
	ID    string
	Spans []Span
}

// Group reassembles a span stream into traces, ordered by each
// trace's first appearance (deterministic for deterministic streams).
func Group(spans []Span) []TraceView {
	idx := make(map[string]int)
	var out []TraceView
	for _, s := range spans {
		i, ok := idx[s.Trace]
		if !ok {
			i = len(out)
			idx[s.Trace] = i
			out = append(out, TraceView{ID: s.Trace})
		}
		out[i].Spans = append(out[i].Spans, s)
	}
	return out
}

// FanOut returns the number of hop spans at each depth of the trace
// (index 0 is depth 1). Non-hop spans are ignored.
func FanOut(tv TraceView) []int {
	var out []int
	for _, s := range tv.Spans {
		if s.Kind != KindHop || s.Depth < 1 {
			continue
		}
		for len(out) < s.Depth {
			out = append(out, 0)
		}
		out[s.Depth-1]++
	}
	return out
}

// WriteTree prints the trace as an ASCII span tree, children indented
// under their parents in recorded order.
func WriteTree(w io.Writer, tv TraceView) error {
	if len(tv.Spans) == 0 {
		return nil
	}
	children := make(map[uint32][]int)
	var roots []int
	for i, s := range tv.Spans {
		if s.ID == 0 || (s.Parent == s.ID) {
			roots = append(roots, i)
			continue
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	if len(roots) == 0 { // live-path stream with no explicit root
		roots = append(roots, 0)
		for i := 1; i < len(tv.Spans); i++ {
			roots = append(roots, i)
		}
		children = nil
	}
	if _, err := fmt.Fprintf(w, "trace %s\n", tv.ID); err != nil {
		return err
	}
	var rec func(idx int, prefix string, last bool) error
	rec = func(idx int, prefix string, last bool) error {
		s := tv.Spans[idx]
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		line := fmt.Sprintf("%s%s%s t=%.3f", prefix, branch, s.Kind, s.T)
		if s.Dur > 0 {
			line += fmt.Sprintf(" dur=%.3f", s.Dur)
		}
		if s.Node != 0 {
			line += fmt.Sprintf(" node=%d", s.Node)
		}
		if s.Peer != 0 {
			line += fmt.Sprintf(" peer=%d", s.Peer)
		}
		if s.Depth != 0 {
			line += fmt.Sprintf(" depth=%d", s.Depth)
		}
		if s.Value != 0 {
			line += fmt.Sprintf(" value=%g", s.Value)
		}
		if s.Detail != "" {
			line += " " + s.Detail
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		kids := children[s.ID]
		for i, ci := range kids {
			if err := rec(ci, prefix+cont, i == len(kids)-1); err != nil {
				return err
			}
		}
		return nil
	}
	for i, ri := range roots {
		if err := rec(ri, "", i == len(roots)-1); err != nil {
			return err
		}
	}
	return nil
}
