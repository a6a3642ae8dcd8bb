package gnet

import (
	"testing"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/telemetry"
)

// policeTriangle builds observer(1), suspect(2), buddy(3) with
// observer—suspect, buddy—suspect and observer—buddy links, so the
// suspect's advertised neighbor list gives the observer a real buddy
// member to collect a Neighbor_Traffic report from.
func policeTriangle(t *testing.T, jr *journal.Journal, reg *telemetry.Registry) (observer, suspect, buddy *Node) {
	t.Helper()
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 50
	pcfg.CutThreshold = 5
	mutate := func(cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour // windows roll by hand
		cfg.Journal = jr
		cfg.Telemetry = reg
	}
	observer = newTestNode(t, "observer", 1, mutate)
	suspect = newTestNode(t, "suspect", 2, mutate)
	buddy = newTestNode(t, "buddy", 3, mutate)
	for _, dial := range []struct{ from, to *Node }{
		{observer, suspect}, {buddy, suspect}, {observer, buddy},
	} {
		if err := dial.from.Connect(dial.to.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		sawBuddy := false
		runOnLoop(t, observer, func() {
			for _, m := range observer.monitor.lists[2].members {
				if m.NodeID() == 3 {
					sawBuddy = true
				}
			}
		})
		return sawBuddy
	}, "observer learned the suspect's buddy group")
	return observer, suspect, buddy
}

// TestJournalWarningReportCutOrdering drives a full detection round
// over real TCP and asserts the journal shows the lifecycle in order:
// warning_crossed → nt_request → nt_report (from the buddy) →
// indicator → cut, followed by the cut-provenance peer_drop.
func TestJournalWarningReportCutOrdering(t *testing.T) {
	jr := journal.New(1024)
	reg := telemetry.New()
	observer, _, buddy := policeTriangle(t, jr, reg)

	// The suspect floods: 1000 inbound queries in the observer's
	// current window, then the window closes.
	runOnLoop(t, observer, func() {
		observer.monitor.curIn[2] = 1000
		observer.monitor.closeMinute()
	})
	// The buddy's report travels over the direct observer—buddy link.
	waitFor(t, 2*time.Second, func() bool {
		return seatedReports(t, observer, 2) == 1
	}, "buddy report arrived")
	runOnLoop(t, observer, func() { observer.monitor.finishEvaluation(2) })
	waitFor(t, 2*time.Second, func() bool { return len(observer.Neighbors()) == 1 }, "suspect cut")

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
	_ = buddy
}

// TestNeighborTrafficNoEchoStorm is the regression test for the NT
// echo loop: requests and replies share one wire format, and answering
// a reply used to bounce Neighbor_Traffic between two monitors
// indefinitely. After an evaluation settles, NT traffic must stop.
func TestNeighborTrafficNoEchoStorm(t *testing.T) {
	jr := journal.New(4096)
	observer, _, buddy := policeTriangle(t, jr, nil)

	runOnLoop(t, observer, func() {
		observer.monitor.curIn[2] = 1000
		observer.monitor.closeMinute()
	})
	waitFor(t, 2*time.Second, func() bool {
		return seatedReports(t, observer, 2) == 1
	}, "buddy report arrived")
	runOnLoop(t, observer, func() { observer.monitor.finishEvaluation(2) })

	// With the evaluation settled, the observer↔buddy link must go
	// quiet; a storm shows up as ever-growing byte counts.
	settle := func() uint64 { return buddy.Stats().BytesIn }
	before := settle()
	time.Sleep(300 * time.Millisecond)
	if after := settle(); after != before {
		t.Fatalf("NT traffic still flowing after the round settled: %d -> %d bytes", before, after)
	}
}
