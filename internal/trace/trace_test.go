package trace

import (
	"slices"
	"strconv"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Sampled(42) {
		t.Fatal("nil tracer sampled")
	}
	tr.Record(42, Span{Kind: KindCongestion}) // must not panic
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer not inert")
	}
}

// TestTraceLifecycle: a recorded span is sampled on its trace ID,
// stamped with the formatted ID and committed at once, in commit order;
// a sampled-out ID records nothing.
func TestTraceLifecycle(t *testing.T) {
	tr := New(1.0, 0)
	const id = 0x1a2b3c4d5e6f7081
	tr.Record(id, Span{Kind: KindQueryIssue, T: 3, Node: 12})
	tr.Record(id, Span{Trace: "ignored", Kind: KindHop, T: 3.1, Node: 20, Peer: 12, Depth: 1})
	want := []Span{
		{Trace: FormatID(id), Kind: KindQueryIssue, T: 3, Node: 12},
		{Trace: FormatID(id), Kind: KindHop, T: 3.1, Node: 20, Peer: 12, Depth: 1},
	}
	if !slices.Equal(tr.spans, want) {
		t.Fatalf("spans = %+v, want %+v", tr.spans, want)
	}
	off := New(0, 0)
	off.Record(id, Span{Kind: KindHop})
	if len(off.spans) != 0 || off.Dropped() != 0 {
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
	if len(tr.spans) != 2 || tr.spans[1].Kind != KindHop {
		t.Fatalf("kept %+v, want the first two spans", tr.spans)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

// TestFormatParseID: a formatted ID is 16 lowercase hex digits that
// parse back to the ID.
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
