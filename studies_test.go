package ddpolice

import "testing"

func TestRadiusStudyShape(t *testing.T) {
	pts, err := RadiusStudy(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Radius != 1 || pts[1].Radius != 2 {
		t.Fatalf("rows = %+v", pts)
	}
	r1, r2 := pts[0], pts[1]
	// r=2 relays lists one hop further: strictly more control traffic.
	if r2.ListMessages <= r1.ListMessages {
		t.Errorf("r=2 list traffic %d not above r=1 %d", r2.ListMessages, r1.ListMessages)
	}
	// ...but one hop, not a gossip: 5.7x at paper scale, where
	// re-relaying every held list cost 737x.
	if r2.ListMessages > 10*r1.ListMessages {
		t.Errorf("r=2 list traffic %d is more than 10x r=1's %d", r2.ListMessages, r1.ListMessages)
	}
	// Both variants must actually defend.
	for _, p := range pts {
		if p.Detections == 0 {
			t.Errorf("r=%d: no detections", p.Radius)
		}
	}
}

func TestLiarStudyShape(t *testing.T) {
	pts, err := LiarStudy(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("rows = %d", len(pts))
	}
	honest, lying, verified := pts[0], pts[1], pts[2]
	if honest.VerifyMsgs != 0 || lying.VerifyMsgs != 0 {
		t.Error("verification traffic without VerifyLists")
	}
	if verified.VerifyMsgs == 0 {
		t.Error("no verification traffic with VerifyLists")
	}
	// Verification must not make the system worse than unverified lying.
	if verified.Success < lying.Success-0.1 {
		t.Errorf("verification hurt: %v vs %v", verified.Success, lying.Success)
	}
	// Agents still get identified in every variant.
	for _, p := range pts {
		if p.Detections == 0 {
			t.Errorf("%s: no detections", p.Label)
		}
	}
}

func TestAblationStudyShape(t *testing.T) {
	pts, err := AblationStudy(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationPoint{}
	for _, p := range pts {
		byLabel[p.Label] = p
	}
	def := byLabel["default"]
	if def.Detections == 0 {
		t.Fatal("default ablation row has no detections")
	}
	// Finding 1: the idealized counter plane destroys the defense's
	// value — indicators are noise, so cuts bring little benefit and
	// far more good peers are wrongly disconnected.
	ideal := byLabel["ideal counters"]
	idealBenefit := ideal.Success - ideal.SuccessNoDef
	defBenefit := def.Success - def.SuccessNoDef
	if idealBenefit >= defBenefit/2 {
		t.Errorf("ideal counters should gut the defense benefit: %+.3f vs default %+.3f",
			idealBenefit, defBenefit)
	}
	if ideal.FalseNegatives <= def.FalseNegatives {
		t.Errorf("ideal counters FN %d not above default %d",
			ideal.FalseNegatives, def.FalseNegatives)
	}
	// Finding 2: TTL 7 produces the cliff — undefended success far
	// below the default TTL's.
	ttl7 := byLabel["ttl 7"]
	if ttl7.SuccessNoDef >= def.SuccessNoDef {
		t.Errorf("ttl 7 should deepen damage: %v vs %v", ttl7.SuccessNoDef, def.SuccessNoDef)
	}
	// The defense must help in the default configuration.
	if def.Success <= def.SuccessNoDef {
		t.Errorf("default: defended %v not above undefended %v", def.Success, def.SuccessNoDef)
	}
}

func TestBaselineDefenseStudyShape(t *testing.T) {
	pts, err := BaselineDefenseStudy(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]BaselinePoint{}
	for _, p := range pts {
		byLabel[p.Label] = p
	}
	none := byLabel["no defense"]
	fair := byLabel["fair-share drop [21]"]
	pol := byLabel["DD-POLICE"]
	if fair.Success <= none.Success {
		t.Errorf("fair-share drop did not help: %v vs %v", fair.Success, none.Success)
	}
	if pol.Success <= none.Success {
		t.Errorf("DD-POLICE did not help: %v vs %v", pol.Success, none.Success)
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
	comb := byLabel["DD-POLICE + fair-share"]
	if comb.Success < fair.Success-0.02 || comb.Success < pol.Success-0.02 {
		t.Errorf("combined %v below components (%v, %v)", comb.Success, fair.Success, pol.Success)
	}

	// The paper's §4 argument: the survival approach becomes less
	// effective as the agent population grows — its success declines
	// with density while detection keeps removing attackers.
	heavy := QuickScale()
	heavy.TimelineAgents *= 6
	hpts, err := BaselineDefenseStudy(heavy)
	if err != nil {
		t.Fatal(err)
	}
	hByLabel := map[string]BaselinePoint{}
	for _, p := range hpts {
		hByLabel[p.Label] = p
	}
	if hf := hByLabel["fair-share drop [21]"]; hf.Success >= fair.Success {
		t.Errorf("fair-share at 6x agents (%v) should degrade from %v", hf.Success, fair.Success)
	}
	if hc := hByLabel["DD-POLICE + fair-share"]; hc.Success <= hByLabel["no defense"].Success {
		t.Errorf("combined defense at 6x agents did not help")
	}
}

func TestBlacklistStudyShape(t *testing.T) {
	scale := QuickScale()
	scale.DurationSec = 600 // enough minutes for re-attack cycles
	pts, err := BlacklistStudy(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("rows = %d", len(pts))
	}
	noMem, mem := pts[0], pts[1]
	// With the blacklist, re-joining agents are cut on sight, so the
	// system retains at least as much service.
	if mem.Success < noMem.Success-0.02 {
		t.Errorf("blacklist hurt success: %v vs %v", mem.Success, noMem.Success)
	}
	if mem.StableDamage > noMem.StableDamage+5 {
		t.Errorf("blacklist raised stable damage: %v vs %v", mem.StableDamage, noMem.StableDamage)
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
	losses := []float64{0, 0.2}
	pts, err := FaultsStudy(QuickScale(), losses)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*len(losses) {
		t.Fatalf("rows = %d, want %d", len(pts), 3*len(losses))
	}
	for _, p := range pts {
		if p.FalseJudgment != p.FalseNegatives+p.FalsePositives {
			t.Errorf("%s/%v: false judgment %d != FN %d + FP %d",
				p.Churn, p.ControlLoss, p.FalseJudgment, p.FalseNegatives, p.FalsePositives)
		}
		if p.Detections == 0 {
			t.Errorf("%s/%v: defense never fired", p.Churn, p.ControlLoss)
		}
	}
	// The headline claim: a degraded control channel costs judgment
	// accuracy. Compare the clean and lossy cells of the no-churn row.
	clean, lossy := pts[0], pts[1]
	if lossy.FalseJudgment < clean.FalseJudgment {
		t.Errorf("20%% control loss improved judgments: %d vs %d",
			lossy.FalseJudgment, clean.FalseJudgment)
	}
}

func TestOverloadStudyShape(t *testing.T) {
	factors := []float64{3}
	pts, err := OverloadStudy(QuickScale(), factors)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*len(factors) {
		t.Fatalf("rows = %d, want %d (plane off+on per factor)", len(pts), 2*len(factors))
	}
	off, on := pts[0], pts[1]
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
