package trace

import (
	"fmt"
	"io"
	"sort"
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

// Root returns the root span (ordinal 0), or the first span when the
// stream has no explicit root (live-path standalone spans).
func (tv *TraceView) Root() *Span {
	for i := range tv.Spans {
		if tv.Spans[i].ID == 0 {
			return &tv.Spans[i]
		}
	}
	if len(tv.Spans) == 0 {
		return nil
	}
	return &tv.Spans[0]
}

// Find returns the first span of the given kind, or nil.
func (tv *TraceView) Find(kind string) *Span {
	for i := range tv.Spans {
		if tv.Spans[i].Kind == kind {
			return &tv.Spans[i]
		}
	}
	return nil
}

// Kind classifies the trace by its root span's lifecycle.
func (tv *TraceView) Kind() string {
	if r := tv.Root(); r != nil {
		return kindCat(r.Kind)
	}
	return ""
}

// CriticalPath walks parent links from the trace's terminal span back
// to the root and returns the chain root-first. The terminal is the
// cut span if present, else the indicator, else the last span.
func CriticalPath(tv TraceView) []Span {
	if len(tv.Spans) == 0 {
		return nil
	}
	byID := make(map[uint32]Span, len(tv.Spans))
	for _, s := range tv.Spans {
		byID[s.ID] = s
	}
	term := tv.Find(KindCut)
	if term == nil {
		term = tv.Find(KindIndicator)
	}
	if term == nil {
		term = &tv.Spans[len(tv.Spans)-1]
	}
	var rev []Span
	cur := *term
	for {
		rev = append(rev, cur)
		if cur.ID == 0 {
			break
		}
		next, ok := byID[cur.Parent]
		if !ok || next.ID == cur.ID || len(rev) > len(tv.Spans) {
			break
		}
		cur = next
	}
	out := make([]Span, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// FanOut returns, for a query trace, the number of hop spans at each
// depth (index 0 is depth 1). Non-hop spans are ignored.
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

// DetectionPath is the stage breakdown of one detection trace, every
// stage as seconds after the warning crossed. Stages that never
// happened are -1.
type DetectionPath struct {
	Trace       string
	Node        int64 // observing peer
	Suspect     int64
	WarnT       float64 // absolute time the warning crossed
	RequestSec  float64 // warning -> nt_request
	FirstRepSec float64 // warning -> first nt_report
	IndicSec    float64 // warning -> indicator
	CutSec      float64 // warning -> cut
	Reports     int
	Timeouts    int
	Defers      int
}

// DetectionPaths extracts the stage breakdown of every detection trace
// in the stream (traces whose root is a warning span), sorted by
// warning time then trace ID.
func DetectionPaths(views []TraceView) []DetectionPath {
	var out []DetectionPath
	for _, tv := range views {
		root := tv.Root()
		if root == nil || root.Kind != KindWarning {
			continue
		}
		p := DetectionPath{
			Trace: tv.ID, Node: root.Node, Suspect: root.Peer, WarnT: root.T,
			RequestSec: -1, FirstRepSec: -1, IndicSec: -1, CutSec: -1,
		}
		for _, s := range tv.Spans {
			rel := s.T - root.T
			switch s.Kind {
			case KindNTRequest:
				if p.RequestSec < 0 {
					p.RequestSec = rel
				}
			case KindNTReport:
				p.Reports++
				// Reports carry their round-trip in Dur; the report
				// lands at T+Dur.
				if at := rel + s.Dur; p.FirstRepSec < 0 || at < p.FirstRepSec {
					p.FirstRepSec = at
				}
			case KindNTTimeout:
				p.Timeouts++
			case KindNTDefer:
				p.Defers++
			case KindIndicator:
				if p.IndicSec < 0 {
					p.IndicSec = rel
				}
			case KindCut:
				if p.CutSec < 0 {
					p.CutSec = rel
				}
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WarnT != out[j].WarnT {
			return out[i].WarnT < out[j].WarnT
		}
		return out[i].Trace < out[j].Trace
	})
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
