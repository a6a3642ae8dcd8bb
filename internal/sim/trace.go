package sim

// Causal-trace plumbing for the tick's flood row: per-query span trees
// built from the flood engine's visit hook. Kept out of tick.go so the
// row stays short; everything here runs only for sampled queries.

import (
	"ddpolice/internal/flood"
	"ddpolice/internal/trace"
	"ddpolice/internal/workload"
)

// queryTracePool holds the reusable per-peer span index shared by all
// traced queries of one run. spanOf[v] is the span id of v's hop in the
// *current* query; mark/epoch invalidate the whole array in O(1)
// between queries, so tracing allocates nothing per query after the
// first (dense-index pooling, DESIGN §16).
type queryTracePool struct {
	spanOf []uint32
	mark   []uint32
	epoch  uint32
}

func newQueryTracePool(numPeers int) *queryTracePool {
	return &queryTracePool{
		spanOf: make([]uint32, numPeers),
		mark:   make([]uint32, numPeers),
	}
}

// get returns v's span in the current query, or 0 (the root span) when
// v has no hop span yet — matching the old map's zero-value lookup for
// the absent issuer.
func (p *queryTracePool) get(v flood.PeerID) uint32 {
	if p.mark[v] != p.epoch {
		return 0
	}
	return p.spanOf[v]
}

func (p *queryTracePool) set(v flood.PeerID, span uint32) {
	p.spanOf[v] = span
	p.mark[v] = p.epoch
}

// startQueryTrace opens the trace of one good-peer query and arms the
// flood engine's visit hook to grow the span tree hop by hop. Returns
// nil (and arms nothing) when the query is head-sampled out. The
// caller must disarm the engine after the flood returns.
func startQueryTrace(tcr *trace.Tracer, eng *flood.Engine, pool *queryTracePool, seed, tick, index uint64, q workload.Query, now float64) *trace.Trace {
	id := trace.QueryID(seed, tick, index)
	tc := tcr.Start(id, trace.Span{
		Kind: trace.KindQueryIssue, T: now,
		Node: int64(q.Issuer), Value: float64(q.Object),
	})
	if tc == nil {
		return nil
	}
	// The pool maps a visited peer to its hop span, so deeper hops hang
	// off their BFS parent. The issuer is never set; lookups of depth-1
	// parents return the zero value, which is the root span — exactly
	// right.
	pool.epoch++
	eng.SetTraceVisitor(func(v, parent flood.PeerID, depth int32, out flood.VisitOutcome) {
		kind := trace.KindHop
		detail := ""
		switch out {
		case flood.VisitDropped:
			kind = trace.KindCongestion
		case flood.VisitDead:
			detail = "dead_upstream"
		}
		pool.set(v, tc.Add(trace.Span{
			Kind: kind, Parent: pool.get(parent), T: now,
			Node: int64(v), Peer: int64(parent), Depth: int(depth),
			Detail: detail,
		}))
	})
	return tc
}

// endQueryTrace records the query's terminal span — delivery with the
// first-response round trip, or death by TTL/saturation — and commits.
func endQueryTrace(tc *trace.Trace, now float64, qr flood.QueryResult) {
	if qr.Hit {
		tc.Add(trace.Span{
			Kind: trace.KindDelivery, T: now, Dur: qr.ResponseDelay,
			Depth: qr.FirstHitHops, Value: float64(qr.HitHolders),
		})
	} else {
		kind := trace.KindTTLDeath
		detail := ""
		if qr.CapacityDrops > 0 {
			detail = "saturated"
		}
		tc.Add(trace.Span{
			Kind: kind, T: now,
			Value: float64(qr.CapacityDrops), Detail: detail,
		})
	}
	tc.EndAt(now + qr.ResponseDelay)
}
