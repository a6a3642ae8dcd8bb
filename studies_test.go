package ddpolice

import "testing"

// byLabel indexes a study's rows by their variant label.
func byLabel(rows []Row) map[string]Row {
	m := map[string]Row{}
	for _, r := range rows {
		m[r.Label] = r
	}
	return m
}

func TestRadiusStudyShape(t *testing.T) {
	rows := execute[[]Row](t, figureByKey(t, "radius"), QuickScale())
	if len(rows) != 2 || rows[0].Config.Police.Radius != 1 || rows[1].Config.Police.Radius != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	r1, r2 := rows[0].Result.Overhead.NeighborListMsgs, rows[1].Result.Overhead.NeighborListMsgs
	// r=2 relays lists one hop further: strictly more control traffic.
	if r2 <= r1 {
		t.Errorf("r=2 list traffic %d not above r=1 %d", r2, r1)
	}
	// ...but one hop, not a gossip: 5.7x at paper scale, where
	// re-relaying every held list cost 737x.
	if r2 > 10*r1 {
		t.Errorf("r=2 list traffic %d is more than 10x r=1's %d", r2, r1)
	}
	for _, r := range rows {
		// Both variants must actually defend...
		if r.Result.Detections == 0 {
			t.Errorf("%s: no detections", r.Label)
		}
		// ...and are measured against the same heavy-churn overlay left alone.
		if r.Against == nil || r.Against.Detections != 0 || r.Config.Churn.MeanLifetime != 300 {
			t.Errorf("%s: not compared with the heavy-churn no-attack run", r.Label)
		}
	}
}

func TestLiarStudyShape(t *testing.T) {
	rows := execute[[]Row](t, figureByKey(t, "liar"), QuickScale())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	honest, lying, verified := rows[0].Result, rows[1].Result, rows[2].Result
	if honest.Overhead.VerifyMsgs != 0 || lying.Overhead.VerifyMsgs != 0 {
		t.Error("verification traffic without VerifyLists")
	}
	if verified.Overhead.VerifyMsgs == 0 {
		t.Error("no verification traffic with VerifyLists")
	}
	// Verification must not make the system worse than unverified lying.
	if verified.OverallSuccess < lying.OverallSuccess-0.1 {
		t.Errorf("verification hurt: %v vs %v", verified.OverallSuccess, lying.OverallSuccess)
	}
	// Agents still get identified in every variant.
	for _, r := range rows {
		if r.Result.Detections == 0 {
			t.Errorf("%s: no detections", r.Label)
		}
	}
}

func TestAblationStudyShape(t *testing.T) {
	rows := byLabel(execute[[]Row](t, figureByKey(t, "ablate"), QuickScale()))
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want one per ablation", len(rows))
	}
	// A row is the defended run; Against is the same variant undefended.
	benefit := func(r Row) float64 { return r.Result.OverallSuccess - r.Against.OverallSuccess }
	def := rows["default"]
	if def.Result.Detections == 0 {
		t.Fatal("default ablation row has no detections")
	}
	for label, r := range rows {
		if !r.Config.PoliceEnabled || r.Against.Detections != 0 {
			t.Errorf("%s: want the defended run compared with an undefended one", label)
		}
	}
	// Finding 1: the idealized counter plane destroys the defense's
	// value — indicators are noise, so cuts bring little benefit and
	// far more good peers are wrongly disconnected.
	ideal := rows["ideal counters"]
	if benefit(ideal) >= benefit(def)/2 {
		t.Errorf("ideal counters should gut the defense benefit: %+.3f vs default %+.3f",
			benefit(ideal), benefit(def))
	}
	if ideal.Result.FalseNegatives <= def.Result.FalseNegatives {
		t.Errorf("ideal counters FN %d not above default %d",
			ideal.Result.FalseNegatives, def.Result.FalseNegatives)
	}
	// Finding 2: TTL 7 produces the cliff — undefended success far
	// below the default TTL's.
	if ttl7 := rows["ttl 7"]; ttl7.Against.OverallSuccess >= def.Against.OverallSuccess {
		t.Errorf("ttl 7 should deepen damage: %v vs %v", ttl7.Against.OverallSuccess, def.Against.OverallSuccess)
	}
	// The defense must help in the default configuration.
	if benefit(def) <= 0 {
		t.Errorf("default: defended %v not above undefended %v", def.Result.OverallSuccess, def.Against.OverallSuccess)
	}
}

func TestBaselineDefenseStudyShape(t *testing.T) {
	fig := figureByKey(t, "baseline")
	rows := byLabel(execute[[]Row](t, fig, QuickScale()))
	none := rows["no defense"].Result
	fair := rows["fair-share drop [21]"].Result
	pol := rows["DD-POLICE"].Result
	if fair.OverallSuccess <= none.OverallSuccess {
		t.Errorf("fair-share drop did not help: %v vs %v", fair.OverallSuccess, none.OverallSuccess)
	}
	if pol.OverallSuccess <= none.OverallSuccess {
		t.Errorf("DD-POLICE did not help: %v vs %v", pol.OverallSuccess, none.OverallSuccess)
	}
	if fair.Detections != 0 {
		t.Error("the survival baseline must not record detections")
	}
	if pol.Detections == 0 {
		t.Error("DD-POLICE recorded no detections")
	}

	// The combined defense dominates either alone: fair sharing keeps
	// the system serving while DD-POLICE removes the attackers (and the
	// lighter congestion all but eliminates wrongful disconnections).
	comb := rows["DD-POLICE + fair-share"].Result
	if comb.OverallSuccess < fair.OverallSuccess-0.02 || comb.OverallSuccess < pol.OverallSuccess-0.02 {
		t.Errorf("combined %v below components (%v, %v)", comb.OverallSuccess, fair.OverallSuccess, pol.OverallSuccess)
	}

	// The paper's §4 argument: the survival approach becomes less
	// effective as the agent population grows — its success declines
	// with density while detection keeps removing attackers.
	heavy := QuickScale()
	heavy.TimelineAgents *= 6
	hrows := byLabel(execute[[]Row](t, fig, heavy))
	if hf := hrows["fair-share drop [21]"].Result; hf.OverallSuccess >= fair.OverallSuccess {
		t.Errorf("fair-share at 6x agents (%v) should degrade from %v", hf.OverallSuccess, fair.OverallSuccess)
	}
	if hc := hrows["DD-POLICE + fair-share"].Result; hc.OverallSuccess <= hrows["no defense"].Result.OverallSuccess {
		t.Errorf("combined defense at 6x agents did not help")
	}
}

func TestStructuredStudyShape(t *testing.T) {
	scale := QuickScale()
	scale.AgentCounts = []int{0, 3, 6}
	pts, err := StructuredStudy(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("rows = %d", len(pts))
	}
	for _, p := range pts {
		if p.StructuredMeanHops < 1 || p.StructuredMeanHops > 15 {
			t.Errorf("agents=%d: mean hops %v not logarithmic", p.Agents, p.StructuredMeanHops)
		}
	}
	// The §5 point: bounded-amplification routing resists the same
	// attack far better than flooding — each bogus request costs
	// O(log n) node-visits instead of an O(coverage) flood, moving the
	// saturation knee out by the amplification ratio.
	for _, p := range pts[1:] {
		if p.StructuredSuccess <= p.UnstructuredSuccess+0.1 {
			t.Errorf("agents=%d: structured %v not clearly above unstructured %v",
				p.Agents, p.StructuredSuccess, p.UnstructuredSuccess)
		}
	}
	mid := pts[1] // half the max agent load: chord still healthy
	if mid.StructuredSuccess < 0.8 {
		t.Errorf("structured success %v at %d agents; knee arrived too early",
			mid.StructuredSuccess, mid.Agents)
	}
}

func TestFaultsStudyShape(t *testing.T) {
	fig := figureByKey(t, "faults")
	fig.Plan = func(s Scale) []Row { return faultsPlan(s, 0, 0.2) }
	rows := execute[[]Row](t, fig, QuickScale())
	if len(rows) != 3*2 {
		t.Fatalf("rows = %d, want 3 churn regimes x 2 losses", len(rows))
	}
	for i, r := range rows {
		if want := []string{"none", "paper", "crash-heavy"}[i/2]; churnRegime(r) != want || r.Config.Faults.ControlLoss != []float64{0, 0.2}[i%2] {
			t.Errorf("row %d (%s) reads as churn %q at loss %v", i, r.Label, churnRegime(r), r.Config.Faults.ControlLoss)
		}
		if r.Result.Detections == 0 {
			t.Errorf("%s: defense never fired", r.Label)
		}
	}
	// The headline claim: a degraded control channel costs judgment
	// accuracy. Compare the clean and lossy cells of the no-churn row.
	clean, lossy := rows[0], rows[1]
	if lossy.FalseJudgment() < clean.FalseJudgment() {
		t.Errorf("20%% control loss improved judgments: %d vs %d",
			lossy.FalseJudgment(), clean.FalseJudgment())
	}
}

func TestOverloadStudyShape(t *testing.T) {
	fig := figureByKey(t, "overload")
	fig.Plan = func(s Scale) []Row { return overloadPlan(s, 3) }
	pts := execute[[]OverloadPoint](t, fig, QuickScale())
	if len(pts) != 2 {
		t.Fatalf("rows = %d, want 2 (plane off+on per factor)", len(pts))
	}
	off, on := pts[0], pts[1]
	if off.Factor != 3 || on.Factor != 3 {
		t.Fatalf("factors = %v, %v; want 3", off.Factor, on.Factor)
	}
	if off.Plane || !on.Plane {
		t.Fatalf("row order = %+v, %+v; want plane off then on", off, on)
	}
	for _, p := range pts {
		if p.Detections == 0 {
			t.Errorf("plane=%v: defense never fired at 3x", p.Plane)
		}
		if p.TimeToCutSec < 0 {
			t.Errorf("plane=%v: agent never cut at 3x", p.Plane)
		}
		if p.QueryShedRate <= 0 {
			t.Errorf("plane=%v: no query shedding at 3x over capacity", p.Plane)
		}
	}
	// The headline claim: with the plane on, control delivery holds
	// the >= 95% bound even while queries shed.
	if on.ControlDelivery < 0.95 {
		t.Errorf("plane-on control delivery = %.3f, want >= 0.95", on.ControlDelivery)
	}
}
