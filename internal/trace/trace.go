// Package trace is the causal tracing plane: span trees that connect
// the flat counters (telemetry) and flat events (journal) into the one
// causal story the flat planes cannot tell — how one query's flood
// propagated hop by hop until delivery or death. A detection and an
// overload transition are not spans: each is a sequence of journal
// records (internal/journal), and that is their only home.
//
// The package mirrors the journal/telemetry contracts:
//
//   - nil-gated: every method on a nil *Tracer or nil *Trace is a
//     no-op, so instrumentation sites cost one pointer check when
//     tracing is off and the disabled paths stay byte-identical.
//   - deterministic: a simulated query's trace ID is a pure function of
//     the run seed, the tick and the query's index in it, derived with
//     rng.SubSeed, which consumes no generator state (a live query's
//     derives from its GUID). Identical-seed runs emit byte-identical
//     span streams.
//   - bounded: the span store has a hard cap; whole traces are dropped
//     (deterministically, in commit order) once it is full.
//
// Sampling is head-based on the trace ID: a trace is either recorded
// in full or not at all, decided by hashing the ID against a
// configurable rate. Because the ID is seed-derived, the sampled
// subset is itself deterministic.
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
	KindTTLDeath   = "ttl_death"       // flood exhausted with no hit
	KindCongestion = "congestion_drop" // copy discarded at a saturated peer
	KindShed       = "shed"            // copy throttled by a live node's quarantine breaker
)

// Span is one node of a causal trace tree. IDs are ordinals within
// their trace (the root is 0); Parent links form the tree. Field order
// is part of the NDJSON determinism contract — do not reorder.
type Span struct {
	Trace  string  `json:"trace"`            // 16-hex-digit trace ID
	ID     uint32  `json:"id"`               // ordinal within the trace; 0 = root
	Parent uint32  `json:"parent,omitempty"` // parent ordinal (0 for root/children of root)
	Kind   string  `json:"kind"`
	T      float64 `json:"t"`              // start, seconds (sim time or unix)
	Dur    float64 `json:"dur,omitempty"`  // duration, seconds; 0 = instant
	Node   int64   `json:"node,omitempty"` // acting peer/node
	Peer   int64   `json:"peer,omitempty"` // counterpart: the peer the copy came from
	Depth  int     `json:"depth,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// Tracer collects committed spans. It is safe for concurrent use (live
// gnet nodes share one Tracer the way they share a Journal); the
// simulator drives it single-threaded, so commit order — and therefore
// the exported byte stream — is deterministic there.
type Tracer struct {
	mu        sync.Mutex
	threshold uint64 // keep a trace when sampleHash(id) < threshold
	limit     int    // max retained spans
	spans     []Span
	traces    int
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
// the ID itself (IDs are already SubSeed outputs, but re-mixing keeps
// the decision independent of how callers chose their dimensions).
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

// Start opens a trace with the given root span if the ID passes head
// sampling, returning nil otherwise (and on a nil Tracer). All methods
// of the returned *Trace are nil-safe, so callers may thread the
// result through unconditionally.
func (t *Tracer) Start(id uint64, root Span) *Trace {
	if !t.Sampled(id) {
		return nil
	}
	root.Trace = FormatID(id)
	root.ID = 0
	tc := &Trace{tr: t, id: root.Trace, next: 1}
	tc.spans = append(tc.spans, root)
	return tc
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
	t.commit([]Span{s}, false)
}

// commit appends a finished trace's spans, dropping the whole batch if
// it would exceed the cap. newTrace counts it toward TraceCount. A nil
// receiver is inert: callers reach commit through Sampled, which
// rejects nil tracers, but the nil-gate contract (ddnilgate) holds on
// the guard, not on that coincidence.
func (t *Tracer) commit(spans []Span, newTrace bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans)+len(spans) > t.limit {
		t.dropped += uint64(len(spans))
		return
	}
	t.spans = append(t.spans, spans...)
	if newTrace {
		t.traces++
	}
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

// TraceCount returns the number of committed whole traces (standalone
// Record spans are not counted).
func (t *Tracer) TraceCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traces
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

// Trace accumulates the spans of one trace tree and commits them
// atomically at End. Not safe for concurrent use; each trace belongs
// to one goroutine (the sim loop).
type Trace struct {
	tr    *Tracer
	id    string
	next  uint32
	spans []Span
}

// Add appends a child span, assigning its ordinal ID, and returns that
// ID for use as a Parent by deeper spans. On a nil Trace it returns 0.
func (tc *Trace) Add(s Span) uint32 {
	if tc == nil {
		return 0
	}
	s.Trace = tc.id
	s.ID = tc.next
	tc.next++
	tc.spans = append(tc.spans, s)
	return s.ID
}

// End commits the trace to its Tracer. Idempotent: a second End is a
// no-op.
func (tc *Trace) End() {
	if tc == nil || tc.tr == nil {
		return
	}
	tc.tr.commit(tc.spans, true)
	tc.tr = nil
}

// EndAt stretches the root span to end at time t (if later than its
// start) and commits.
func (tc *Trace) EndAt(t float64) {
	if tc == nil {
		return
	}
	if d := t - tc.spans[0].T; d > 0 {
		tc.spans[0].Dur = d
	}
	tc.End()
}

// ID returns the formatted trace ID ("" on nil).
func (tc *Trace) ID() string {
	if tc == nil {
		return ""
	}
	return tc.id
}

// QueryID identifies the flood of the index-th query issued at the
// given tick: a pure function of the run seed, consuming no generator
// state.
func QueryID(seed, tick, index uint64) uint64 {
	return rng.SubSeed(seed, 1, tick, index)
}

// FormatID renders a trace ID as 16 lowercase hex digits.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }
