package ddpolice

import (
	"bytes"
	"strings"
	"testing"

	"ddpolice/internal/capacity"
)

func svgOK(t *testing.T, name string, err error, buf *bytes.Buffer) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") || !strings.Contains(s, "</svg>") {
		t.Fatalf("%s: not an SVG document", name)
	}
	if strings.Contains(s, "NaN") {
		t.Fatalf("%s: NaN leaked into coordinates", name)
	}
}

func TestFigureCharts(t *testing.T) {
	sat := []capacity.SaturationPoint{
		{OfferedPerMin: 1000, ProcessedPerMin: 1000, DropRate: 0},
		{OfferedPerMin: 20000, ProcessedPerMin: 15000, DropRate: 0.25},
		{OfferedPerMin: 29000, ProcessedPerMin: 15000, DropRate: 0.48},
	}
	var buf bytes.Buffer
	svgOK(t, "fig5", Fig5SVG(&buf, sat), &buf)
	buf.Reset()
	svgOK(t, "fig6", Fig6SVG(&buf, sat), &buf)

	sweep := []SweepPoint{
		{Agents: 0, TrafficBaseline: 100, TrafficAttack: 100, TrafficDefended: 100,
			SuccessBaseline: 0.9, SuccessAttack: 0.9, SuccessDefended: 0.9,
			ResponseBaseline: 0.2, ResponseAttack: 0.2, ResponseDefended: 0.2},
		{Agents: 10, TrafficBaseline: 100, TrafficAttack: 450, TrafficDefended: 170,
			SuccessBaseline: 0.9, SuccessAttack: 0.5, SuccessDefended: 0.8,
			ResponseBaseline: 0.2, ResponseAttack: 0.48, ResponseDefended: 0.22},
	}
	buf.Reset()
	svgOK(t, "fig9", Fig9SVG(&buf, sweep), &buf)
	if c := strings.Count(buf.String(), "<polyline"); c != 3 {
		t.Fatalf("fig9 series = %d, want 3", c)
	}
	buf.Reset()
	svgOK(t, "fig10", Fig10SVG(&buf, sweep), &buf)
	buf.Reset()
	svgOK(t, "fig11", Fig11SVG(&buf, sweep), &buf)

	buf.Reset()
	tl := []Timeline{
		{Label: "no DD-POLICE", Damage: []float64{0, 50, 48}},
		{Label: "DD-POLICE-3", Damage: []float64{0, 50, 10}},
	}
	svgOK(t, "fig12", Fig12SVG(&buf, tl), &buf)

	// CT=1 recovers after a minute, CT=10 never does (Fig 14's sentinel).
	calm := &Result{SuccessSeries: []float64{1, 1, 1}}
	cts := []Row{
		{Config: config(func(c *Config) { c.Police.CutThreshold = 1 }), Against: calm,
			Result: &Result{FalseNegatives: 120, SuccessSeries: []float64{0.5, 0.9, 0.9}}},
		{Config: config(func(c *Config) { c.Police.CutThreshold = 10 }), Against: calm,
			Result: &Result{FalseNegatives: 4, FalsePositives: 2, SuccessSeries: []float64{0.5, 0.5, 0.5}}},
	}
	if a, b := cts[0].RecoveryMinutes(), cts[1].RecoveryMinutes(); a != 1 || b != -1 {
		t.Fatalf("recovery = %d, %d; want 1, -1", a, b)
	}
	buf.Reset()
	svgOK(t, "fig13", Fig13SVG(&buf, cts), &buf)
	buf.Reset()
	svgOK(t, "fig14", Fig14SVG(&buf, cts), &buf)
}
