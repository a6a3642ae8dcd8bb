package ddpolice

// Integration tests of the experiment harness: every figure's quick
// regeneration must show the paper's qualitative shape.

import (
	"math"
	"testing"

	"ddpolice/internal/capacity"
)

func TestFig5And6Shape(t *testing.T) {
	pts, err := Fig5And6()
	if err != nil {
		t.Fatal(err)
	}
	var plateau float64
	for _, p := range pts {
		if p.OfferedPerMin <= capacity.TestbedSaturationPerMin {
			// Below saturation: processed tracks offered, no drops.
			if math.Abs(p.ProcessedPerMin-p.OfferedPerMin) > p.OfferedPerMin*0.02 {
				t.Errorf("offered %v: processed %v", p.OfferedPerMin, p.ProcessedPerMin)
			}
			if p.DropRate > 0.02 {
				t.Errorf("offered %v: drop rate %v below saturation", p.OfferedPerMin, p.DropRate)
			}
		} else {
			plateau = p.ProcessedPerMin
		}
	}
	if math.Abs(plateau-capacity.TestbedSaturationPerMin) > 0.02*capacity.TestbedSaturationPerMin {
		t.Errorf("plateau = %v, want ~%v", plateau, float64(capacity.TestbedSaturationPerMin))
	}
	last := pts[len(pts)-1]
	if last.OfferedPerMin != 29000 {
		t.Fatalf("final offered = %v", last.OfferedPerMin)
	}
	if last.DropRate < 0.44 || last.DropRate > 0.52 {
		t.Errorf("drop rate at 29k = %v, want ~0.47 (the paper's anchor)", last.DropRate)
	}
}

func TestFig9To11Shapes(t *testing.T) {
	pts, err := Fig9To11(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Agents != 0 {
		t.Fatal("sweep must start at zero agents")
	}
	prevTraffic := 0.0
	for i, p := range pts {
		// Figure 9: attack traffic grows monotonically with agents.
		if p.TrafficAttack < prevTraffic*0.95 {
			t.Errorf("traffic not growing at point %d: %v after %v", i, p.TrafficAttack, prevTraffic)
		}
		prevTraffic = p.TrafficAttack
		// Defended curves sit between baseline and undefended.
		if p.Agents > 0 {
			if p.SuccessDefended < p.SuccessAttack {
				t.Errorf("agents=%d: defended success %v below undefended %v",
					p.Agents, p.SuccessDefended, p.SuccessAttack)
			}
			if p.TrafficDefended > p.TrafficAttack*1.1 {
				t.Errorf("agents=%d: defended traffic %v above undefended %v",
					p.Agents, p.TrafficDefended, p.TrafficAttack)
			}
		}
	}
	last := pts[len(pts)-1]
	// Figure 11: heavy attack substantially depresses success.
	if last.SuccessAttack > last.SuccessBaseline*0.8 {
		t.Errorf("success under max agents = %v vs baseline %v: too mild",
			last.SuccessAttack, last.SuccessBaseline)
	}
	// Figure 10: response time inflates under attack.
	if last.ResponseAttack <= last.ResponseBaseline {
		t.Errorf("response under attack %v not above baseline %v",
			last.ResponseAttack, last.ResponseBaseline)
	}
	// Figure 9: at the heaviest attack the traffic is above the
	// no-attack run's, and Figure 11: DD-POLICE strictly restores success.
	if last.TrafficAttack <= last.TrafficBaseline {
		t.Errorf("traffic under attack %v not above baseline %v",
			last.TrafficAttack, last.TrafficBaseline)
	}
	if last.SuccessDefended <= last.SuccessAttack {
		t.Errorf("defended success %v not above undefended %v",
			last.SuccessDefended, last.SuccessAttack)
	}
	if last.Detections == 0 {
		t.Error("defended run recorded no detections")
	}
	if last.FalsePositives > last.Agents/2 {
		t.Errorf("missed %d of %d agents", last.FalsePositives, last.Agents)
	}
}

func TestFig12Shape(t *testing.T) {
	tl, err := Fig12(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 4 {
		t.Fatalf("timelines = %d, want no-defense + 3 CTs", len(tl))
	}
	if tl[0].Label != "no DD-POLICE" {
		t.Fatal("first timeline must be the undefended run")
	}
	peak := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	tail := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		n := len(xs) / 5
		if n == 0 {
			n = 1
		}
		var sum float64
		for _, x := range xs[len(xs)-n:] {
			sum += x
		}
		return sum / float64(n)
	}
	undefended := tl[0]
	if peak(undefended.Damage) < 20 {
		t.Fatalf("undefended peak damage %v%% too low", peak(undefended.Damage))
	}
	// Every defended variant must end with less damage than the
	// undefended run's tail.
	for _, v := range tl[1:] {
		if tail(v.Damage) >= tail(undefended.Damage) {
			t.Errorf("%s tail damage %v%% not below undefended %v%%",
				v.Label, tail(v.Damage), tail(undefended.Damage))
		}
	}
}

func TestFig13And14Shapes(t *testing.T) {
	rows, err := Fig13And14(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := func(r Row) float64 { return r.Config.Police.CutThreshold }
	first, last := rows[0], rows[len(rows)-1]
	if len(rows) != len(QuickScale().CutThresholds) || ct(first) != 1 || ct(last) != 15 {
		t.Fatalf("%d rows from CT=%g to CT=%g, want one per cut threshold", len(rows), ct(first), ct(last))
	}
	// Figure 13: false negatives (good peers cut) shrink as CT grows;
	// false positives (missed agents) grow.
	if last.Result.FalseNegatives > first.Result.FalseNegatives {
		t.Errorf("FN grew with CT: %d@CT=%g -> %d@CT=%g",
			first.Result.FalseNegatives, ct(first), last.Result.FalseNegatives, ct(last))
	}
	if last.Result.FalsePositives < first.Result.FalsePositives {
		t.Errorf("FP shrank with CT: %d@CT=%g -> %d@CT=%g",
			first.Result.FalsePositives, ct(first), last.Result.FalsePositives, ct(last))
	}
	for _, r := range rows {
		if r.FalseJudgment() != r.Result.FalseNegatives+r.Result.FalsePositives {
			t.Errorf("CT=%g: false judgment %d != FN+FP", ct(r), r.FalseJudgment())
		}
		// Figure 14: -1 is "never recovered"; nothing below it is a time.
		if r.RecoveryMinutes() < -1 {
			t.Errorf("CT=%g: recovery time %d", ct(r), r.RecoveryMinutes())
		}
	}
}

func TestExchangeFrequencyStudyShape(t *testing.T) {
	fig := figureByKey(t, "freq")
	fig.Plan = func(s Scale) []Row { return freqPlan(s, 1, 2) }
	rows := execute[[]Row](t, fig, QuickScale())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// §3.7.1: more frequent exchange costs more list messages.
	if one, two := rows[0].Result.Overhead.NeighborListMsgs, rows[1].Result.Overhead.NeighborListMsgs; one <= two {
		t.Errorf("1-min exchange (%d msgs) not above 2-min (%d)", one, two)
	}
	if rows[0].Config.Police.ExchangePeriod != 60 || rows[1].Config.Police.ExchangePeriod != 120 {
		t.Errorf("periods = %v, %v; want 60, 120", rows[0].Config.Police.ExchangePeriod, rows[1].Config.Police.ExchangePeriod)
	}
	eventDriven := rows[len(rows)-1]
	if eventDriven.Label != "event-driven" || !eventDriven.Config.Police.EventDriven {
		t.Fatal("last row must be event-driven")
	}
}

func TestCheatingStudyShape(t *testing.T) {
	rows := execute[[]Row](t, figureByKey(t, "cheat"), QuickScale())
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 strategies", len(rows))
	}
	fn := map[string]int{}
	for _, r := range rows {
		fn[r.Label] = r.Result.FalseNegatives
		if r.Result.Detections == 0 {
			t.Errorf("%s: cheating prevented all detections", r.Label)
		}
	}
	// §3.4: deflating/silent cheating frames good peers (more false
	// negatives than honest reporting) but cannot save the agents.
	if fn["deflate"] < fn["honest"] {
		t.Errorf("deflation did not raise false cuts: %d vs honest %d", fn["deflate"], fn["honest"])
	}
	if fn["silent"] < fn["honest"] {
		t.Errorf("silence did not raise false cuts: %d vs honest %d", fn["silent"], fn["honest"])
	}
}

func TestFacadeRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 300
	cfg.DurationSec = 120
	cfg.ChurnEnabled = false
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.QueriesIssued == 0 {
		t.Fatal("facade run issued no queries")
	}
	rs, err := RunParallel([]Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].QueriesIssued != r.QueriesIssued {
		t.Fatal("parallel facade run diverged")
	}
}
