package ddpolice

import (
	"testing"

	"ddpolice/internal/journal"
)

// TestDetectTimelinesReconstruction feeds a hand-written journal through
// the reconstruction and checks the timeline semantics: first-event
// wins, counts freeze at the first cut, agents anchor latency at the
// attack onset and good peers at their first warning.
func TestDetectTimelinesReconstruction(t *testing.T) {
	ev := []journal.Event{
		{T: 120, Type: journal.TypeAttackStart, Peer: 7},
		// Agent 7: warned twice, one timeout, quorum, cut at 300.
		{T: 180, Type: journal.TypeWarning, Node: 1, Peer: 7},
		{T: 180, Type: journal.TypeNTRequest, Node: 1, Peer: 7, K: 3},
		{T: 180, Type: journal.TypeNTTimeout, Node: 1, Peer: 7, Member: 4},
		{T: 180, Type: journal.TypeNTReport, Node: 1, Peer: 7, Member: 5},
		{T: 180, Type: journal.TypeNTReport, Node: 1, Peer: 7, Member: 6},
		{T: 180, Type: journal.TypeIndicator, Node: 1, Peer: 7, G: 8, S: 9, K: 2},
		{T: 240, Type: journal.TypeWarning, Node: 2, Peer: 7},
		{T: 300, Type: journal.TypeCut, Node: 1, Peer: 7, G: 8, S: 9},
		// Post-cut activity must not leak into the frozen timeline.
		{T: 360, Type: journal.TypeNTReport, Node: 2, Peer: 7, Member: 5},
		{T: 420, Type: journal.TypeCut, Node: 2, Peer: 7},
		// Good peer 3: collateral cut; latency runs from its warning.
		{T: 600, Type: journal.TypeWarning, Node: 1, Peer: 3},
		{T: 600, Type: journal.TypeIndicator, Node: 1, Peer: 3, G: 6, S: 6, K: 1},
		{T: 660, Type: journal.TypeCut, Node: 1, Peer: 3},
		// Peer 9 was warned but never cut: no timeline.
		{T: 700, Type: journal.TypeWarning, Node: 1, Peer: 9},
	}
	pts := DetectTimelines(ev)
	if len(pts) != 2 {
		t.Fatalf("timelines = %d, want 2 (%+v)", len(pts), pts)
	}
	good, agent := pts[0], pts[1]
	if agent.Suspect != 7 || !agent.Agent {
		t.Fatalf("agent point = %+v", agent)
	}
	if agent.FloodStart != 120 || agent.FirstWarning != 180 || agent.QuorumAt != 180 || agent.CutAt != 300 {
		t.Fatalf("agent timeline = %+v", agent)
	}
	if agent.LatencySec != 180 {
		t.Fatalf("agent latency = %g, want 180", agent.LatencySec)
	}
	if agent.Reports != 2 || agent.Timeouts != 1 {
		t.Fatalf("agent NT counts = %d/%d, want 2/1", agent.Reports, agent.Timeouts)
	}
	if good.Suspect != 3 || good.Agent {
		t.Fatalf("good point = %+v", good)
	}
	if good.FloodStart != 600 || good.LatencySec != 60 {
		t.Fatalf("good timeline = %+v", good)
	}

	cdf := detectCDF(pts)
	if len(cdf) != 2 || cdf[0].LatencySec != 60 || cdf[0].Fraction != 0.5 ||
		cdf[1].LatencySec != 180 || cdf[1].Fraction != 1 {
		t.Fatalf("cdf = %+v", cdf)
	}
}

// TestDetectStudyEndToEnd runs a small seeded attack and checks the
// study finds the agents through the journal with sane timelines.
func TestDetectStudyEndToEnd(t *testing.T) {
	scale := Scale{
		NumPeers:       250,
		DurationSec:    480,
		AttackStartSec: 120,
		Seed:           1,
		TimelineAgents: 2,
	}
	rep := execute[*DetectReport](t, figureByKey(t, "detect"), scale)
	if rep.Cuts == 0 || len(rep.Points) == 0 {
		t.Fatalf("study saw no cuts: %+v", rep)
	}
	agents := 0
	for _, p := range rep.Points {
		if p.Agent {
			agents++
			if p.FloodStart != 120 {
				t.Fatalf("agent %d flood start = %g, want 120", p.Suspect, p.FloodStart)
			}
			// An agent cannot be judged before it floods a window.
			if p.LatencySec <= 0 {
				t.Fatalf("non-positive agent latency: %+v", p)
			}
		}
		if p.CutAt < p.FirstWarning || p.FirstWarning < p.FloodStart {
			t.Fatalf("disordered timeline: %+v", p)
		}
		// Collateral good peers may be warned and cut at the same
		// minute boundary, so only negative latency is a bug.
		if p.LatencySec < 0 {
			t.Fatalf("negative latency: %+v", p)
		}
	}
	if agents == 0 {
		t.Fatal("no agent was cut in the study run")
	}
	if len(rep.CDF) != len(rep.Points) {
		t.Fatalf("cdf size %d != points %d", len(rep.CDF), len(rep.Points))
	}
	if rep.NTMessages == 0 || rep.NTPerCut <= 0 {
		t.Fatalf("NT overhead not accounted: %+v", rep)
	}
}
