// Package trace survives only for bench/live.go's trace.span_ns, until
// ROADMAP item 1a retires it from the benchmark: a live node journals its
// floods (internal/journal's query_issue, hop, delivery and
// congestion_drop records), and nothing else records a span.
//
// A nil *Tracer is inert; the store has a hard cap and counts the spans
// dropped past it; sampling is head-based on a hash of the trace ID.
package trace

import (
	"fmt"
	"math"
	"sync"

	"ddpolice/internal/rng"
)

// Span kinds: the lifecycle of one query's flood.
const (
	KindQueryIssue = "query_issue"     // root: a peer issued a search
	KindHop        = "hop"             // first delivery of the query to one peer
	KindDelivery   = "delivery"        // a replica holder answered
	KindCongestion = "congestion_drop" // copy discarded at a saturated peer
)

// Span is one recorded event of a query's flood.
type Span struct {
	Trace string // 16-hex-digit trace ID
	Kind  string
	T     float64 // seconds on the recording node's clock
	Node  int64   // acting peer/node
	Peer  int64   // counterpart: the peer the copy came from
	Depth int
}

// Tracer collects committed spans. It is safe for concurrent use.
type Tracer struct {
	mu        sync.Mutex
	threshold uint64 // keep a trace when sampleHash(id) < threshold
	limit     int    // max retained spans
	spans     []Span
	dropped   uint64 // spans discarded at the cap
}

// New returns a Tracer that head-samples traces at the given rate
// (0..1; 1 keeps everything) and retains at most maxSpans spans.
// maxSpans <= 0 selects a generous default.
func New(sample float64, maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = 1 << 20
	}
	t := &Tracer{limit: maxSpans}
	switch {
	case sample >= 1:
		t.threshold = math.MaxUint64
	case sample <= 0:
		t.threshold = 0
	default:
		t.threshold = uint64(sample * float64(math.MaxUint64))
	}
	return t
}

// sampleHash decorrelates the sampling decision from the structure of
// the ID itself: re-mixing keeps the decision independent of how
// callers chose their IDs.
func sampleHash(id uint64) uint64 { return rng.SubSeed(id, 0x7ace) }

// Sampled reports whether the trace with this ID passes head sampling.
// A nil Tracer samples nothing.
func (t *Tracer) Sampled(id uint64) bool {
	if t == nil || t.threshold == 0 {
		return false
	}
	if t.threshold == math.MaxUint64 {
		return true
	}
	return sampleHash(id) < t.threshold
}

// Record commits one span into the trace with the given ID, subject to
// head sampling.
func (t *Tracer) Record(id uint64, s Span) {
	if !t.Sampled(id) {
		return
	}
	s.Trace = FormatID(id)
	t.commit(s)
}

// commit appends one span, dropping it if the store is full. A nil
// receiver is inert: callers reach commit through Sampled, which
// rejects nil tracers, but the nil-gate contract (ddnilgate) holds on
// the guard, not on that coincidence.
func (t *Tracer) commit(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// Dropped returns the number of spans discarded because the store was
// full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// FormatID renders a trace ID as 16 lowercase hex digits.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }
