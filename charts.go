package ddpolice

// Chart builders: map each experiment's output onto an SVG line chart
// (internal/viz). cmd/ddexp -svg <dir> renders the actual figures.

import (
	"io"
	"slices"

	"ddpolice/internal/capacity"
	"ddpolice/internal/viz"
)

func renderChart(w io.Writer, c *viz.Chart) error { return c.RenderSVG(w) }

// curve is one series: each point's x and y.
func curve[T any](label string, pts []T, xy func(T) (x, y float64)) viz.Series {
	s := viz.Series{Label: label}
	for _, p := range pts {
		x, y := xy(p)
		s.X, s.Y = append(s.X, x), append(s.Y, y)
	}
	return s
}

// Fig5SVG renders queries processed/min vs offered/min.
func Fig5SVG(w io.Writer, pts []capacity.SaturationPoint) error {
	return renderChart(w, &viz.Chart{
		Title:  "Figure 5: queries sent out vs processed",
		XLabel: "offered (queries/min)",
		YLabel: "processed (queries/min)",
		Series: []viz.Series{curve("processed", pts, func(p capacity.SaturationPoint) (x, y float64) {
			return p.OfferedPerMin, p.ProcessedPerMin
		})},
	})
}

// Fig6SVG renders the drop rate vs offered rate.
func Fig6SVG(w io.Writer, pts []capacity.SaturationPoint) error {
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Figure 6: query drop rate vs query density",
		XLabel: "offered (queries/min)",
		YLabel: "drop rate (%)",
		YMin:   &lo,
		Series: []viz.Series{curve("drop rate", pts, func(p capacity.SaturationPoint) (x, y float64) {
			return p.OfferedPerMin, p.DropRate * 100
		})},
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
func Fig13SVG(w io.Writer, rows []Row) error {
	errors := func(label string, count func(Row) int) viz.Series {
		return curve(label, rows, func(r Row) (x, y float64) { return r.Config.Police.CutThreshold, float64(count(r)) })
	}
	return renderChart(w, &viz.Chart{
		Title:  "Figure 13: errors vs cut threshold",
		XLabel: "cut threshold CT",
		YLabel: "errors",
		Series: []viz.Series{
			errors("false judgment", Row.FalseJudgment),
			errors("false negative", func(r Row) int { return r.Result.FalseNegatives }),
			errors("false positive", func(r Row) int { return r.Result.FalsePositives }),
		},
	})
}

// Fig14SVG renders the recovery time vs CT (never-recovered points are
// drawn at the top of the plotted range).
func Fig14SVG(w io.Writer, rows []Row) error {
	rec := curve("damage recovery time", rows, func(r Row) (x, y float64) {
		return r.Config.Police.CutThreshold, float64(r.RecoveryMinutes())
	})
	never := slices.Max(append([]float64{1}, rec.Y...)) + 1
	for i, y := range rec.Y {
		if y < 0 {
			rec.Y[i] = never
		}
	}
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Figure 14: damage recovery time vs cut threshold",
		XLabel: "cut threshold CT",
		YLabel: "recovery time (min)",
		YMin:   &lo,
		Series: []viz.Series{rec},
	})
}

// DetectCDFSVG renders the detection-latency CDF reconstructed from
// the event journal (agents and collateral good peers together).
func DetectCDFSVG(w io.Writer, rep *DetectReport) error {
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Detection latency CDF (journal-reconstructed)",
		XLabel: "seconds from flood start to cut",
		YLabel: "fraction of cut suspects",
		YMin:   &lo,
		Series: []viz.Series{curve("detection latency", rep.CDF, func(p DetectCDFPoint) (x, y float64) {
			return p.LatencySec, p.Fraction
		})},
	})
}

// FaultsSVG renders the false-judgment surface of the fault-plane
// study: one curve per churn regime (the plan runs each regime's losses
// together), control loss on the x-axis.
func FaultsSVG(w io.Writer, rows []Row) error {
	lo := 0.0
	c := &viz.Chart{
		Title:  "Fault plane: false judgments vs control loss",
		XLabel: "injected control-message loss",
		YLabel: "false judgments (FN + FP)",
		YMin:   &lo,
	}
	for _, r := range rows {
		if label := "churn: " + churnRegime(r); len(c.Series) == 0 || c.Series[len(c.Series)-1].Label != label {
			c.Series = append(c.Series, viz.Series{Label: label})
		}
		s := &c.Series[len(c.Series)-1]
		s.X, s.Y = append(s.X, r.Config.Faults.ControlLoss), append(s.Y, float64(r.FalseJudgment()))
	}
	return renderChart(w, c)
}

// OverloadSVG renders the headline curve of the overload study:
// time-to-cut vs offered-over-capacity factor, one series with the
// overload plane off and one with it on. Points where the agent was
// never cut are omitted from their series.
func OverloadSVG(w io.Writer, pts []OverloadPoint) error {
	cut := func(label string, plane bool) viz.Series {
		kept := slices.DeleteFunc(slices.Clone(pts), func(p OverloadPoint) bool { return p.Plane != plane || p.TimeToCutSec < 0 })
		return curve(label, kept, func(p OverloadPoint) (x, y float64) { return p.Factor, p.TimeToCutSec })
	}
	lo := 0.0
	return renderChart(w, &viz.Chart{
		Title:  "Overload plane: time to cut vs offered-over-capacity",
		XLabel: "agent rate / peer capacity",
		YLabel: "time to first cut (s)",
		YMin:   &lo,
		Series: []viz.Series{cut("plane off", false), cut("plane on", true)},
	})
}
