package core_test

import (
	"testing"

	"ddpolice/internal/journal"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
)

// TestDroppedAskIsAMissingSeat: the observer asks the suspect's two
// other neighbors out of band, and the ask to one of them is lost. That
// member files no report, and the verdict comes anyway at its deadline,
// with the silent seat scored as zero (§3.3's timeout-as-zero).
func TestDroppedAskIsAMissingSeat(t *testing.T) {
	jr := journal.New(1024)
	reg := telemetry.New()
	// Observer 1, suspect 2, buddies 3 and 4: neither buddy is the
	// observer's neighbor, so the round reaches both through Ask.
	m := policeMesh(t, jr, reg, []int32{1, 2, 3, 4}, [2]int32{1, 2}, [2]int32{3, 2}, [2]int32{4, 2})
	m.Drop = func(from, to int32, typ byte) bool {
		return dropQueries(from, to, typ) || (from == 1 && to == 4 && typ == protocol.TypeNeighborTraffic)
	}
	since := len(m.Log)
	m.flood(1, 2, 1000, 1)
	m.advance(window)
	asked := map[int32]bool{}
	for _, e := range m.Log[since:] {
		if e.From == 1 && e.Kind == "ask" {
			asked[e.To] = true
		}
	}
	if !asked[3] || !asked[4] {
		t.Fatalf("the observer asked %v out of band, want both buddies", asked)
	}
	m.advance(window)

	reported, indicator := map[int64]bool{}, false
	for _, e := range jr.Events() {
		if e.Node != 1 {
			continue
		}
		switch e.Type {
		case journal.TypeNTReport:
			reported[e.Member] = true
		case journal.TypeIndicator:
			indicator = indicator || e.Peer == 2
		}
	}
	if reported[4] || !reported[3] {
		t.Errorf("nt_report members %v, want buddy 3's and not 4's, whose ask was lost", reported)
	}
	if !indicator {
		t.Error("the round ended in no indicator record")
	}
	if got := reg.Counter("gnet.evaluations_timeout_zero").Load(); got < 1 {
		t.Errorf("gnet.evaluations_timeout_zero = %d, want >= 1", got)
	}
}
