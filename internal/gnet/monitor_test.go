package gnet

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
)

// runOnLoop executes fn on n's run-loop goroutine and waits for it, so
// tests can drive monitor state deterministically (window rolls and
// verdicts are ordered exactly as the bug scenarios require).
func runOnLoop(t *testing.T, n *Node, fn func()) {
	t.Helper()
	done := make(chan struct{})
	select {
	case n.ctl <- func() { fn(); close(done) }:
	case <-time.After(2 * time.Second):
		t.Fatal("ctl enqueue timeout")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ctl run timeout")
	}
}

// seatedReports returns how many asked members the pending round about
// suspect has seated, -1 when no round is pending.
func seatedReports(t *testing.T, n *Node, suspect int32) int {
	t.Helper()
	seated := -1
	runOnLoop(t, n, func() {
		if r, ok := n.monitor.pending[suspect]; ok {
			seated = len(r.Asked()) - r.Silent()
		}
	})
	return seated
}

// policePair builds observer -> suspect over real TCP with DD-POLICE on
// both, a MinuteLength long enough that no timer fires during the test,
// and waits until the observer holds the suspect's neighbor list.
func policePair(t *testing.T, reg *telemetry.Registry) (observer, suspect *Node) {
	t.Helper()
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 50
	pcfg.CutThreshold = 5
	mutate := func(cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour // tests roll windows by hand
		cfg.Telemetry = reg
	}
	observer = newTestNode(t, "observer", 1, mutate)
	suspect = newTestNode(t, "suspect", 2, mutate)
	if err := observer.Connect(suspect.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		have := false
		runOnLoop(t, observer, func() {
			_, have = observer.monitor.lists[2]
		})
		return have
	}, "observer received the suspect's neighbor list")
	return observer, suspect
}

// TestEvaluationSurvivesWindowRoll is the regression test for the
// stale-window verdict bug: the half-window AfterFunc can fire after
// closeMinute rolls the windows. That the round judges by the opening
// window's own report is police.TestRoundOwnReportIsTheOpeningWindows';
// what needs a node is that a quiet window
// closing in between leaves the pending round alone and the late
// verdict still cuts.
func TestEvaluationSurvivesWindowRoll(t *testing.T) {
	observer, _ := policePair(t, nil)
	m := observer.monitor

	runOnLoop(t, observer, func() {
		m.curIn[2] = 1000 // flood window
		m.closeMinute()   // rolls it, opens the round
		m.closeMinute()   // the next, quiet window closes BEFORE the verdict
		m.finishEvaluation(2)
	})
	cuts := observer.Stats().Disconnects
	if len(cuts) != 1 || cuts[0].Code != protocol.ByeCodeDDoSSuspect || cuts[0].General <= 5 {
		t.Fatalf("verdict after a window roll: %+v, want one DD-POLICE cut with g > CT", cuts)
	}
	waitFor(t, 2*time.Second, func() bool { return len(observer.Neighbors()) == 0 }, "suspect dropped")
}

// TestDuplicateReportsCountOnce is the regression test for report
// double-counting. That a round seats each asked member once is
// police.TestRoundLifecycle's ("duplicate, non-member and suspect
// reports refused"); what needs a node is that its two channels — the
// direct link's handler and a transient dial's reply — feed the same
// seat, and that the refusal is counted.
func TestDuplicateReportsCountOnce(t *testing.T) {
	reg := telemetry.New()
	observer, _ := policePair(t, reg)
	m := observer.monitor

	nt := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(8, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(2, 0).IP,
		Outgoing:  5,
		Incoming:  400,
	}
	runOnLoop(t, observer, func() {
		// Buddy-group view of suspect 2: two members besides us, both
		// unreachable (port 1), so every report arrives by hand.
		m.holdList(2, []protocol.PeerAddr{
			protocol.AddrFromNodeID(1, 0), // the observer itself: not asked
			protocol.AddrFromNodeID(8, 1),
			protocol.AddrFromNodeID(9, 1),
		}, false)
		m.prevIn[2] = 1000
		m.startEvaluation(2)
		m.seat(8, nt) // member 8 over a transient dial ...
		m.seat(8, nt) // ... and again over a second channel
	})
	if got := seatedReports(t, observer, 2); got != 1 {
		t.Errorf("seated = %d after a duplicate Neighbor_Traffic, want 1", got)
	}
	if got := reg.Counter("gnet.nt_reports_refused").Load(); got != 1 {
		t.Errorf("gnet.nt_reports_refused = %d, want 1", got)
	}
}

// TestForgedReportsCannotShieldTheSuspect is the regression test for
// forged Neighbor_Traffic votes. The wire format lets any neighbor send
// a 0x83 frame naming any source, and the monitor used to seat every
// source it had not seen while a round was pending — so the suspect
// itself, a direct neighbor, could answer the observer's round with
// reports of an enormous Outgoing (as itself, as strangers, as the real
// buddy) and drive g and s far below CT. Now a report must name the
// neighbor whose link carried it and the round seats only members it
// asked: the forgeries are refused and counted, k stays the asked group,
// and the flooding suspect is cut.
func TestForgedReportsCannotShieldTheSuspect(t *testing.T) {
	jr := journal.New(1024)
	reg := telemetry.New()
	observer, suspect, _ := policeTriangle(t, jr, reg)

	runOnLoop(t, observer, func() {
		observer.monitor.curIn[2] = 1000
		observer.monitor.closeMinute()
	})
	sources := []int32{2, 8, 9, 3}
	runOnLoop(t, suspect, func() {
		for _, src := range sources {
			forged := protocol.NeighborTraffic{
				SourceIP:  protocol.AddrFromNodeID(src, 0).IP,
				SuspectIP: protocol.AddrFromNodeID(2, 0).IP,
				Outgoing:  math.MaxUint32,
			}
			suspect.peers[1].send(protocol.Encode(nil, protocol.NewGUID(suspect.src), 1, 0, forged))
		}
	})
	refused := reg.Counter("gnet.nt_reports_refused")
	waitFor(t, 2*time.Second, func() bool {
		return refused.Load() == uint64(len(sources)) && seatedReports(t, observer, 2) == 1
	}, "forged reports refused and the buddy's report seated")
	runOnLoop(t, observer, func() { observer.monitor.finishEvaluation(2) })

	var ind, cut *journal.Event
	for _, e := range jr.Events() {
		if e.Node == 1 && e.Peer == 2 {
			switch e.Type {
			case journal.TypeIndicator:
				ind = &e
			case journal.TypeCut:
				cut = &e
			}
		}
	}
	if ind == nil || ind.K != 2 {
		t.Fatalf("indicator %+v, want k = 2: the observer and the one member asked", ind)
	}
	if cut == nil || cut.G <= 5 {
		t.Fatalf("cut %+v, want the flooding suspect cut with g > CT (indicator %+v)", cut, ind)
	}
}

// TestStrayReplyIsNotAnswered is the regression test for the 0x83
// bounce: a reply that arrived with no round pending was answered as a
// request, the answer was answered in turn, and one stray frame kept two
// monitors trading reports for good (about 1.2 MB/s on loopback). Now a
// reply is reply-flagged in its header, and a reply nobody is waiting
// for is refused and counted, never answered.
func TestStrayReplyIsNotAnswered(t *testing.T) {
	reg := telemetry.New()
	_, suspect := policePair(t, reg)
	// Let the neighbor-list exchange of the handshake finish first: the
	// observer's list has arrived and nothing followed it.
	last := uint64(0)
	waitFor(t, 2*time.Second, func() bool {
		in := suspect.Stats().BytesIn
		quiet := in != 0 && in == last
		last = in
		return quiet
	}, "link quiet after the handshake")

	stray := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(2, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(9, 0).IP, // no round about 9 anywhere
		Outgoing:  5,
	}
	runOnLoop(t, suspect, func() {
		suspect.peers[1].send(protocol.Encode(nil, protocol.NewGUID(suspect.src), 1, ntReplyHops, stray))
	})
	refused := reg.Counter("gnet.nt_reports_refused")
	waitFor(t, 2*time.Second, func() bool {
		return refused.Load() > 0 || suspect.Stats().BytesIn != last
	}, "the stray reply refused or answered")
	time.Sleep(300 * time.Millisecond)
	if in := suspect.Stats().BytesIn; in != last {
		t.Fatalf("0x83 frames came back for a stray reply: %d -> %d bytes in", last, in)
	}
	if got := refused.Load(); got != 1 {
		t.Errorf("gnet.nt_reports_refused = %d, want 1", got)
	}
}

// TestTelemetryConcurrentTransientDials exercises the gnet telemetry
// hooks from every goroutine that records them — transient dial
// failures, handshake failures, inbox high-water, send stalls — while
// another goroutine snapshots the registry. Run under -race by the CI
// target.
func TestTelemetryConcurrentTransientDials(t *testing.T) {
	reg := telemetry.New()
	observer, suspect := policePair(t, reg)
	m := observer.monitor

	// Members advertising dead ports: every evaluation round spawns
	// concurrent transient dials that fail and must count.
	runOnLoop(t, observer, func() {
		m.holdList(7, []protocol.PeerAddr{
			protocol.AddrFromNodeID(8, 1),
			protocol.AddrFromNodeID(9, 1),
			protocol.AddrFromNodeID(10, 1),
			protocol.AddrFromNodeID(11, 1),
		}, false)
	})
	const rounds = 5
	for i := 0; i < rounds; i++ {
		runOnLoop(t, observer, func() {
			m.prevIn[7] = 1000
			m.startEvaluation(7)
		})
	}

	// Concurrent wire traffic driving inbox/send counters.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				suspect.SendRawQuery(fmt.Sprintf("load-%d-%d", w, i))
			}
		}(w)
	}
	// A failed outbound handshake must count too.
	if err := observer.Connect("127.0.0.1:1"); err == nil {
		t.Error("connect to a dead port succeeded")
	}
	wg.Wait()

	waitFor(t, 5*time.Second, func() bool {
		snap := reg.Snapshot()
		vals := map[string]uint64{}
		for _, c := range snap.Counters {
			vals[c.Name] = c.Value
		}
		return vals["gnet.transient_dial_errors"] >= rounds*4 &&
			vals["gnet.handshake_failures"] >= 1
	}, "telemetry counters converged")

	snap := reg.Snapshot()
	var hwm int64
	for _, g := range snap.Gauges {
		if g.Name == "gnet.inbox_high_water" {
			hwm = g.Value
		}
	}
	if hwm < 1 {
		t.Errorf("inbox high-water mark = %d, want >= 1 under load", hwm)
	}
}
