package ddpolice

// The causal-trace study: span-level detection latencies and flood
// fan-out per agent count, the ddexp `-fig trace` figure. Where the
// journal-based timeline studies report when detection events happened,
// this one reports where the time went between them — stage-by-stage
// along each detection's critical path — straight from the tracing
// plane's span trees.

import (
	"io"

	"ddpolice/internal/trace"
	"ddpolice/internal/viz"
)

// TracePoint is one row of the causal-trace study: the mean
// warning-to-stage latencies over every detection that reached a cut,
// plus the flood's span-level shape, at one agent count. Stage means
// are -1 when no detection reached that stage.
type TracePoint struct {
	Agents       int
	Traces       int // whole traces recorded
	Spans        int
	Warnings     int     // detection traces (warning roots)
	Cuts         int     // detections whose path reached a cut
	MeanRequest  float64 // warning -> nt_request (s)
	MeanIndic    float64 // warning -> indicator (s)
	MeanCut      float64 // warning -> cut (s)
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
	p := TracePoint{
		Agents: r.Config.NumAgents, Traces: tr.TraceCount(), Spans: tr.Len(),
		MeanRequest: -1, MeanIndic: -1, MeanCut: -1,
	}
	queries, hops := 0, 0
	for _, tv := range views {
		if tv.Kind() != "query" {
			continue
		}
		queries++
		for d, n := range trace.FanOut(tv) {
			hops += n
			if n > 0 && d+1 > p.MaxDepth {
				p.MaxDepth = d + 1
			}
		}
	}
	if queries > 0 {
		p.HopsPerQuery = float64(hops) / float64(queries)
	}
	var sumReq, sumInd, sumCut float64
	for _, dp := range trace.DetectionPaths(views) {
		p.Warnings++
		if dp.CutSec < 0 {
			continue
		}
		p.Cuts++
		sumReq += dp.RequestSec
		sumInd += dp.IndicSec
		sumCut += dp.CutSec
	}
	if p.Cuts > 0 {
		n := float64(p.Cuts)
		p.MeanRequest, p.MeanIndic, p.MeanCut = sumReq/n, sumInd/n, sumCut/n
	}
	return p
}

// TraceSVG renders the study's headline: mean warning-to-stage latency
// per agent count, one series per critical-path stage. Agent counts
// where no detection reached a cut are omitted.
func TraceSVG(w io.Writer, pts []TracePoint) error {
	var req, ind, cut viz.Series
	req.Label, ind.Label, cut.Label = "nt_request", "indicator", "cut"
	for _, p := range pts {
		if p.Cuts == 0 {
			continue
		}
		req.X, req.Y = append(req.X, float64(p.Agents)), append(req.Y, p.MeanRequest)
		ind.X, ind.Y = append(ind.X, float64(p.Agents)), append(ind.Y, p.MeanIndic)
		cut.X, cut.Y = append(cut.X, float64(p.Agents)), append(cut.Y, p.MeanCut)
	}
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Causal traces: detection critical-path latency vs agents",
		XLabel: "DDoS agents",
		YLabel: "mean latency after warning (s)",
		YMin:   &lo,
		Series: []viz.Series{req, ind, cut},
	})
}
