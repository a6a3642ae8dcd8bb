package gnet

import (
	"testing"

	"ddpolice/internal/journal"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
)

// policeTriangle is a mesh of observer(1), suspect(2) and buddy(3) with
// observer—suspect, buddy—suspect and observer—buddy links, so the
// suspect's advertised neighbor list gives the observer a real buddy
// member to collect a Neighbor_Traffic report from.
func policeTriangle(t *testing.T, jr *journal.Journal, reg *telemetry.Registry) *mesh {
	t.Helper()
	return policeMesh(t, jr, reg, []int32{1, 2, 3}, [2]int32{1, 2}, [2]int32{3, 2}, [2]int32{1, 3})
}

// TestJournalWarningReportCutOrdering drives a full detection round and
// asserts the journal shows the lifecycle in order: warning_crossed →
// nt_request → nt_report (from the buddy) → indicator → cut, followed by
// the cut-provenance peer_drop.
func TestJournalWarningReportCutOrdering(t *testing.T) {
	jr := journal.New(1024)
	reg := telemetry.New()
	m := policeTriangle(t, jr, reg)

	// The suspect floods: 1000 inbound queries in the observer's window,
	// then the window closes and the buddy's report comes back over the
	// observer—buddy link.
	m.flood(1, 2, 1000, 1)
	m.advance(window)
	if seated, _, _ := m.cores[1].Seats(2); seated != 1 {
		t.Fatalf("seated = %d, want the buddy's report", seated)
	}
	m.advance(window / 2)
	if nb := m.cores[1].Neighbors(); len(nb) != 1 || nb[0] != 3 {
		t.Fatalf("observer's neighbors %v after the verdict, want the buddy alone", nb)
	}

	seq := map[string]uint64{}
	for _, e := range jr.Events() {
		if e.Node != 1 || (e.Peer != 2 && e.Type != journal.TypeNTReport) {
			continue
		}
		if _, ok := seq[e.Type]; !ok {
			seq[e.Type] = e.Seq
		}
	}
	order := []string{
		journal.TypeWarning, journal.TypeNTRequest, journal.TypeNTReport,
		journal.TypeIndicator, journal.TypeCut, journal.TypePeerDrop,
	}
	for i, typ := range order {
		if _, ok := seq[typ]; !ok {
			t.Fatalf("journal missing %q (have %v)", typ, seq)
		}
		if i > 0 && seq[typ] <= seq[order[i-1]] {
			t.Fatalf("%q (seq %d) not after %q (seq %d)", typ, seq[typ], order[i-1], seq[order[i-1]])
		}
	}
	// The report must be attributed to the buddy, the NT latency
	// histogram must have seen it, and the round used no timeout.
	for _, e := range jr.Events() {
		if e.Node == 1 && e.Type == journal.TypeNTReport && e.Member != 3 {
			t.Fatalf("nt_report member = %d, want 3", e.Member)
		}
	}
	if got := reg.Snapshot(); len(got.Histograms) == 0 || got.Histograms[0].Count == 0 {
		t.Fatal("gnet.nt_report_latency_ms recorded nothing")
	}
	if reg.Counter("gnet.evaluations_timeout_zero").Load() != 0 {
		t.Fatal("full quorum round counted a timeout-as-zero verdict")
	}
}

// TestNeighborTrafficNoEchoStorm is the regression test for the NT
// echo loop: requests and replies share one wire format, and answering
// a reply used to bounce Neighbor_Traffic between two monitors
// indefinitely. After an evaluation settles, NT traffic must stop (a
// storm would also never let the mesh go quiet).
func TestNeighborTrafficNoEchoStorm(t *testing.T) {
	m := policeTriangle(t, nil, nil)
	m.flood(1, 2, 1000, 1)
	m.advance(window)
	m.advance(window / 2) // the verdict
	since := len(m.log)
	m.advance(window)
	for _, pair := range [][2]int32{{1, 3}, {3, 1}} {
		for _, b := range m.sent(pair[0], pair[1], since) {
			if _, ok := b.(protocol.NeighborTraffic); ok {
				t.Fatalf("Neighbor_Traffic %d -> %d after the round settled: %+v", pair[0], pair[1], b)
			}
		}
	}
}
