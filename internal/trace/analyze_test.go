package trace

import (
	"strings"
	"testing"
)

// treeQuery is a span tree as a span file may carry it, with ordinals
// and parents: issue → two depth-1 hops, a depth-2 hop under the second
// and a congestion drop under the first → delivery.
func treeQuery(id string) []Span {
	return []Span{
		{Trace: id, ID: 0, Kind: KindQueryIssue, T: 60, Dur: 1.5, Node: 3, Value: 17},
		{Trace: id, ID: 1, Kind: KindHop, T: 60, Node: 5, Peer: 3, Depth: 1},
		{Trace: id, ID: 2, Kind: KindHop, T: 60, Node: 6, Peer: 3, Depth: 1},
		{Trace: id, ID: 3, Parent: 2, Kind: KindHop, T: 60, Node: 9, Peer: 6, Depth: 2},
		{Trace: id, ID: 4, Parent: 1, Kind: KindCongestion, T: 60, Node: 7, Peer: 5, Depth: 2},
		{Trace: id, ID: 5, Kind: KindDelivery, T: 60, Dur: 1.5, Depth: 2, Value: 1},
	}
}

func TestGroup(t *testing.T) {
	tr := New(1.0, 0)
	// A live stream: standalone spans of two queries, interleaved.
	tr.Record(1, Span{Kind: KindQueryIssue, T: 1, Node: 8})
	tr.Record(2, Span{Kind: KindQueryIssue, T: 2, Node: 4})
	tr.Record(1, Span{Kind: KindHop, T: 3, Node: 9, Peer: 8, Depth: 1})
	id := FormatID(3)

	views := Group(append(tr.Spans(), treeQuery(id)...))
	if len(views) != 3 {
		t.Fatalf("views = %d, want 3", len(views))
	}
	if len(views[0].Spans) != 2 || views[0].Spans[1].Kind != KindHop || len(views[1].Spans) != 1 {
		t.Fatalf("live traces not regrouped in recorded order: %+v", views[:2])
	}
	if views[2].ID != id || len(views[2].Spans) != 6 {
		t.Fatalf("tree trace = %s with %d spans, want %s with 6", views[2].ID, len(views[2].Spans), id)
	}
}

func TestFanOut(t *testing.T) {
	tr := New(1.0, 0)
	tr.Record(1, Span{Kind: KindQueryIssue, T: 0})
	for i := 0; i < 3; i++ {
		tr.Record(1, Span{Kind: KindHop, T: 0.5, Depth: 1})
	}
	for i := 0; i < 5; i++ {
		tr.Record(1, Span{Kind: KindHop, T: 1, Depth: 2})
	}
	tr.Record(1, Span{Kind: KindCongestion, T: 1, Depth: 2}) // not a hop
	tr.Record(1, Span{Kind: KindHop, T: 1.5, Depth: 4})      // gap at depth 3
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
	id := FormatID(3)
	views := Group(treeQuery(id))
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
	const id = 0x5a5a
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
