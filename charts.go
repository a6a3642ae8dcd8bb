package ddpolice

// Chart builders: map each experiment's output onto an SVG line chart
// (internal/viz). cmd/ddexp -svg <dir> renders the actual figures.

import (
	"io"

	"ddpolice/internal/capacity"
	"ddpolice/internal/viz"
)

func renderChart(w io.Writer, c *viz.Chart) error { return c.RenderSVG(w) }

// Fig5SVG renders queries processed/min vs offered/min.
func Fig5SVG(w io.Writer, pts []capacity.SaturationPoint) error {
	var x, y []float64
	for _, p := range pts {
		x = append(x, p.OfferedPerMin)
		y = append(y, p.ProcessedPerMin)
	}
	return renderChart(w, &viz.Chart{
		Title:  "Figure 5: queries sent out vs processed",
		XLabel: "offered (queries/min)",
		YLabel: "processed (queries/min)",
		Series: []viz.Series{{Label: "processed", X: x, Y: y}},
	})
}

// Fig6SVG renders the drop rate vs offered rate.
func Fig6SVG(w io.Writer, pts []capacity.SaturationPoint) error {
	var x, y []float64
	for _, p := range pts {
		x = append(x, p.OfferedPerMin)
		y = append(y, p.DropRate*100)
	}
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Figure 6: query drop rate vs query density",
		XLabel: "offered (queries/min)",
		YLabel: "drop rate (%)",
		YMin:   &lo,
		Series: []viz.Series{{Label: "drop rate", X: x, Y: y}},
	})
}

// sweepSeries extracts the three scenario curves for one metric.
func sweepSeries(pts []SweepPoint, metric func(SweepPoint) (base, atk, def float64)) []viz.Series {
	var x, b, a, d []float64
	for _, p := range pts {
		pb, pa, pd := metric(p)
		x = append(x, float64(p.Agents))
		b = append(b, pb)
		a = append(a, pa)
		d = append(d, pd)
	}
	return []viz.Series{
		{Label: "no DDoS attack", X: x, Y: b},
		{Label: "DDoS, no defense", X: x, Y: a},
		{Label: "DDoS + DD-POLICE", X: x, Y: d},
	}
}

// Fig9SVG renders traffic cost vs agents.
func Fig9SVG(w io.Writer, pts []SweepPoint) error {
	return renderChart(w, &viz.Chart{
		Title:  "Figure 9: average traffic cost",
		XLabel: "number of DDoS agents",
		YLabel: "messages per minute",
		Series: sweepSeries(pts, func(p SweepPoint) (float64, float64, float64) {
			return p.TrafficBaseline, p.TrafficAttack, p.TrafficDefended
		}),
	})
}

// Fig10SVG renders response time vs agents.
func Fig10SVG(w io.Writer, pts []SweepPoint) error {
	return renderChart(w, &viz.Chart{
		Title:  "Figure 10: average response time",
		XLabel: "number of DDoS agents",
		YLabel: "seconds",
		Series: sweepSeries(pts, func(p SweepPoint) (float64, float64, float64) {
			return p.ResponseBaseline, p.ResponseAttack, p.ResponseDefended
		}),
	})
}

// Fig11SVG renders success rate vs agents.
func Fig11SVG(w io.Writer, pts []SweepPoint) error {
	lo, hi := 0.0, 100.0
	return renderChart(w, &viz.Chart{
		Title:  "Figure 11: average success rate",
		XLabel: "number of DDoS agents",
		YLabel: "success rate (%)",
		YMin:   &lo, YMax: &hi,
		Series: sweepSeries(pts, func(p SweepPoint) (float64, float64, float64) {
			return p.SuccessBaseline * 100, p.SuccessAttack * 100, p.SuccessDefended * 100
		}),
	})
}

// Fig12SVG renders the damage-rate timelines.
func Fig12SVG(w io.Writer, tl []Timeline) error {
	lo := 0.0
	var series []viz.Series
	for _, v := range tl {
		var x []float64
		for m := range v.Damage {
			x = append(x, float64(m))
		}
		series = append(series, viz.Series{Label: v.Label, X: x, Y: v.Damage})
	}
	return renderChart(w, &viz.Chart{
		Title:  "Figure 12: damage rate over time",
		XLabel: "minute",
		YLabel: "damage rate (%)",
		YMin:   &lo,
		Series: series,
	})
}

// Fig13SVG renders the three error curves vs CT.
func Fig13SVG(w io.Writer, pts []CTPoint) error {
	var x, fn, fp, fj []float64
	for _, p := range pts {
		x = append(x, p.CutThreshold)
		fn = append(fn, float64(p.FalseNegatives))
		fp = append(fp, float64(p.FalsePositives))
		fj = append(fj, float64(p.FalseJudgment))
	}
	return renderChart(w, &viz.Chart{
		Title:  "Figure 13: errors vs cut threshold",
		XLabel: "cut threshold CT",
		YLabel: "errors",
		Series: []viz.Series{
			{Label: "false judgment", X: x, Y: fj},
			{Label: "false negative", X: x, Y: fn},
			{Label: "false positive", X: x, Y: fp},
		},
	})
}

// Fig14SVG renders the recovery time vs CT (never-recovered points are
// drawn at the top of the plotted range).
func Fig14SVG(w io.Writer, pts []CTPoint) error {
	maxRec := 1.0
	for _, p := range pts {
		if float64(p.RecoveryMinutes) > maxRec {
			maxRec = float64(p.RecoveryMinutes)
		}
	}
	var x, y []float64
	for _, p := range pts {
		x = append(x, p.CutThreshold)
		if p.RecoveryMinutes < 0 {
			y = append(y, maxRec+1) // sentinel: never recovered
		} else {
			y = append(y, float64(p.RecoveryMinutes))
		}
	}
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Figure 14: damage recovery time vs cut threshold",
		XLabel: "cut threshold CT",
		YLabel: "recovery time (min)",
		YMin:   &lo,
		Series: []viz.Series{{Label: "damage recovery time", X: x, Y: y}},
	})
}

// DetectCDFSVG renders the detection-latency CDF reconstructed from
// the event journal (agents and collateral good peers together).
func DetectCDFSVG(w io.Writer, rep *DetectReport) error {
	var x, y []float64
	for _, p := range rep.CDF {
		x = append(x, p.LatencySec)
		y = append(y, p.Fraction)
	}
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Detection latency CDF (journal-reconstructed)",
		XLabel: "seconds from flood start to cut",
		YLabel: "fraction of cut suspects",
		YMin:   &lo,
		Series: []viz.Series{{Label: "detection latency", X: x, Y: y}},
	})
}

// FaultsSVG renders the false-judgment surface of the fault-plane
// study: one curve per churn regime, control loss on the x-axis.
func FaultsSVG(w io.Writer, pts []FaultPoint) error {
	series := map[string]*viz.Series{}
	var order []string
	for _, p := range pts {
		s, ok := series[p.Churn]
		if !ok {
			s = &viz.Series{Label: "churn: " + p.Churn}
			series[p.Churn] = s
			order = append(order, p.Churn)
		}
		s.X = append(s.X, p.ControlLoss)
		s.Y = append(s.Y, float64(p.FalseJudgment))
	}
	lo := 0.0
	c := &viz.Chart{
		Title:  "Fault plane: false judgments vs control loss",
		XLabel: "injected control-message loss",
		YLabel: "false judgments (FN + FP)",
		YMin:   &lo,
	}
	for _, k := range order {
		c.Series = append(c.Series, *series[k])
	}
	return renderChart(w, c)
}

// OverloadSVG renders the headline curve of the overload study:
// time-to-cut vs offered-over-capacity factor, one series with the
// overload plane off and one with it on. Points where the agent was
// never cut are omitted from their series.
func OverloadSVG(w io.Writer, pts []OverloadPoint) error {
	var off, on viz.Series
	off.Label, on.Label = "plane off", "plane on"
	for _, p := range pts {
		if p.TimeToCutSec < 0 {
			continue
		}
		s := &off
		if p.Plane {
			s = &on
		}
		s.X = append(s.X, p.Factor)
		s.Y = append(s.Y, p.TimeToCutSec)
	}
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Overload plane: time to cut vs offered-over-capacity",
		XLabel: "agent rate / peer capacity",
		YLabel: "time to first cut (s)",
		YMin:   &lo,
		Series: []viz.Series{off, on},
	})
}
