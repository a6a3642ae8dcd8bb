package ddpolice

// The causal-trace study: the flood's span-level shape per agent count,
// the ddexp `-fig trace` figure. Where the sweep figures report how much
// traffic a flood cost, this one reports how far its fronts reached, hop
// by hop, straight from the tracing plane's span trees. A detection's
// stage times are the journal's (`ddtrace -critical`), not a span's.

import "ddpolice/internal/trace"

// TracePoint is one row of the causal-trace study: what the tracer kept
// and lost, and the flood's span-level shape, at one agent count.
type TracePoint struct {
	Agents       int
	Traces       int     // whole query traces recorded
	Spans        int     // spans recorded
	Dropped      uint64  // spans lost at the tracer's cap: the row averages only what fit
	HopsPerQuery float64 // mean hop spans per query trace
	MaxDepth     int     // deepest flood front observed
}

// tracePlan is one fully-sampled traced simulation per agent count,
// police on.
func tracePlan(s Scale) []Row {
	rows := perAgentCount(s, true)
	for i := range rows {
		rows[i].Config.Trace = trace.New(1.0, 0)
	}
	return rows
}

// tracePoint condenses one run's span stream into a TracePoint.
func tracePoint(r Row) any {
	tr := r.Config.Trace
	views := trace.Group(tr.Spans())
	p := TracePoint{Agents: r.Config.NumAgents, Traces: tr.TraceCount(), Spans: tr.Len(), Dropped: tr.Dropped()}
	hops := 0
	for _, tv := range views {
		for d, n := range trace.FanOut(tv) {
			hops += n
			if n > 0 && d+1 > p.MaxDepth {
				p.MaxDepth = d + 1
			}
		}
	}
	if len(views) > 0 {
		p.HopsPerQuery = float64(hops) / float64(len(views))
	}
	return p
}
