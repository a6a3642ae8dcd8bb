// Package trace is the live overlay's causal tracing plane: spans that
// connect the flat counters (telemetry) and flat events (journal) into
// the one causal story the flat planes cannot tell — how one query's
// flood propagated across live nodes hop by hop until delivery or
// death. A detection and an overload transition are not spans: each is
// a sequence of journal records (internal/journal), and that is their
// only home. The simulator emits no spans: its per-hop flood reach is
// the flood.processed_depth_<d> counters.
//
// The package mirrors the journal/telemetry contracts:
//
//   - nil-gated: every method on a nil *Tracer is a no-op, so
//     instrumentation sites cost one pointer check when tracing is off.
//   - deterministic in the ID: a live query's trace ID derives from its
//     GUID, so every node that sees the query files its spans under
//     the same trace.
//   - bounded: the span store has a hard cap; spans past it are
//     dropped and counted.
//
// Sampling is head-based on the trace ID: a trace is either recorded
// in full or not at all, decided by hashing the ID against a
// configurable rate, so every node keeps the same subset.
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

// Span is one recorded event of a query's flood. Record leaves ID and
// Parent 0: a live node cannot coordinate ordinals across processes.
// A span file may still carry them, and WriteTree nests by them. Field
// order is part of the NDJSON determinism contract — do not reorder.
type Span struct {
	Trace  string  `json:"trace"`            // 16-hex-digit trace ID
	ID     uint32  `json:"id"`               // ordinal within the trace; 0 = root
	Parent uint32  `json:"parent,omitempty"` // parent ordinal (0 for root/children of root)
	Kind   string  `json:"kind"`
	T      float64 `json:"t"`              // start, seconds on the recording node's clock
	Dur    float64 `json:"dur,omitempty"`  // duration, seconds; 0 = instant
	Node   int64   `json:"node,omitempty"` // acting peer/node
	Peer   int64   `json:"peer,omitempty"` // counterpart: the peer the copy came from
	Depth  int     `json:"depth,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// Tracer collects committed spans. It is safe for concurrent use: live
// gnet nodes share one Tracer the way they share a Journal.
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

// Record commits one standalone span into the trace with the given ID,
// subject to head sampling. Live gnet nodes use it for spans whose
// tree position cannot be coordinated across processes (the trace ID
// groups them; ordering falls to timestamps).
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

// Spans returns a snapshot copy of every committed span, in commit
// order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of committed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
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
