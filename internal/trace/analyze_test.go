package trace

import (
	"strings"
	"testing"
)

// buildQuery assembles a realistic query trace: issue → two depth-1
// hops, a depth-2 hop under the second and a congestion drop under the
// first → delivery.
func buildQuery(tr *Tracer, seed uint64) string {
	id := QueryID(seed, 3, 0)
	tc := tr.Start(id, Span{Kind: KindQueryIssue, T: 60, Node: 3, Value: 17})
	h1 := tc.Add(Span{Kind: KindHop, T: 60, Node: 5, Peer: 3, Depth: 1})
	h2 := tc.Add(Span{Kind: KindHop, T: 60, Node: 6, Peer: 3, Depth: 1})
	tc.Add(Span{Kind: KindHop, T: 60, Node: 9, Peer: 6, Parent: h2, Depth: 2})
	tc.Add(Span{Kind: KindCongestion, T: 60, Node: 7, Peer: 5, Parent: h1, Depth: 2})
	tc.Add(Span{Kind: KindDelivery, T: 60, Dur: 1.5, Depth: 2, Value: 1})
	tc.EndAt(61.5)
	return FormatID(id)
}

func TestGroupAndRoot(t *testing.T) {
	tr := New(1.0, 0)
	// A live stream: standalone spans of two queries, interleaved.
	tr.Record(QueryID(1, 0, 0), Span{Kind: KindQueryIssue, T: 1, Node: 8})
	tr.Record(QueryID(1, 0, 1), Span{Kind: KindQueryIssue, T: 2, Node: 4})
	tr.Record(QueryID(1, 0, 0), Span{Kind: KindHop, T: 3, Node: 9, Peer: 8, Depth: 1})
	id := buildQuery(tr, 1)

	views := Group(tr.Spans())
	if len(views) != 3 {
		t.Fatalf("views = %d, want 3", len(views))
	}
	if len(views[0].Spans) != 2 || views[0].Spans[1].Kind != KindHop || len(views[1].Spans) != 1 {
		t.Fatalf("live traces not regrouped in recorded order: %+v", views[:2])
	}
	if r := views[0].Root(); r == nil || r.Kind != KindQueryIssue || r.Node != 8 {
		t.Fatalf("live root = %+v", r)
	}
	if views[2].ID != id || len(views[2].Spans) != 6 {
		t.Fatalf("tree trace = %s with %d spans, want %s with 6", views[2].ID, len(views[2].Spans), id)
	}
	if r := views[2].Root(); r == nil || r.Kind != KindQueryIssue || r.Dur != 1.5 {
		t.Fatalf("tree root = %+v", r)
	}
}

func TestFanOut(t *testing.T) {
	tr := New(1.0, 0)
	tc := tr.Start(QueryID(1, 0, 0), Span{Kind: KindQueryIssue, T: 0})
	for i := 0; i < 3; i++ {
		tc.Add(Span{Kind: KindHop, T: 0.5, Depth: 1})
	}
	for i := 0; i < 5; i++ {
		tc.Add(Span{Kind: KindHop, T: 1, Depth: 2})
	}
	tc.Add(Span{Kind: KindCongestion, T: 1, Depth: 2}) // not a hop
	tc.Add(Span{Kind: KindHop, T: 1.5, Depth: 4})      // gap at depth 3
	tc.End()
	views := Group(tr.Spans())
	got := FanOut(views[0])
	want := []int{3, 5, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("fanout = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fanout = %v, want %v", got, want)
		}
	}
}

func TestWriteTree(t *testing.T) {
	tr := New(1.0, 0)
	id := buildQuery(tr, 1)
	views := Group(tr.Spans())
	var sb strings.Builder
	if err := WriteTree(&sb, views[0]); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "trace "+id) {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{KindQueryIssue, KindHop, KindCongestion, KindDelivery, "dur=1.500", "└─"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	// The depth-2 hop is a child of node 6's hop, the delivery of the
	// root: each is indented one level deeper than its parent.
	lines := strings.Split(out, "\n")
	indent := func(part string) int {
		for _, l := range lines {
			if strings.Contains(l, part) {
				return strings.Index(l, "─")
			}
		}
		return -1
	}
	if indent("node=9") <= indent("node=6") || indent(KindDelivery) != indent("node=6") {
		t.Fatalf("hops not nested under their parents:\n%s", out)
	}
}

// TestWriteTreeLivePath: standalone Record spans (all ordinal 0) render
// as a flat list, not an infinite recursion.
func TestWriteTreeLivePath(t *testing.T) {
	tr := New(1.0, 0)
	id := QueryID(5, 1, 2)
	tr.Record(id, Span{Kind: KindQueryIssue, T: 1, Node: 1})
	tr.Record(id, Span{Kind: KindHop, T: 2, Node: 2, Peer: 1, Depth: 1})
	views := Group(tr.Spans())
	var sb strings.Builder
	if err := WriteTree(&sb, views[0]); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "\n"); n != 3 {
		t.Fatalf("live-path tree lines = %d:\n%s", n, sb.String())
	}
}
