package gnet

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
)

// window is the monitoring window of the tests that drive cores: long
// enough that nothing but the mesh's own clock could close one.
const window = time.Hour

// runOnLoop executes fn on n's run-loop goroutine, with the time the run
// loop woke at, and waits for it.
func runOnLoop(t *testing.T, n *Node, fn func(now time.Time)) {
	t.Helper()
	if err := n.runOnCtl(func(now time.Time) error { fn(now); return nil }); err != nil {
		t.Fatal(err)
	}
}

// testPolice is the DD-POLICE configuration of the monitor tests: a
// 1000-query window is far past every threshold.
func testPolice() *police.Config {
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 50
	pcfg.CutThreshold = 5
	return &pcfg
}

// policeMesh starts DD-POLICE cores ids, with testPolice on hour-long
// windows recording into jr and reg, links edges (an id with no core is a
// scripted peer) and runs the list exchange. The flood stays off the
// mesh: the tests inject what each core counts.
func policeMesh(t *testing.T, jr *journal.Journal, reg *telemetry.Registry, ids []int32, edges ...[2]int32) *mesh {
	t.Helper()
	m := newMesh(t)
	m.drop = dropQueries
	for _, id := range ids {
		m.add(id, func(cfg *core.Config) {
			cfg.Police = testPolice()
			cfg.MinuteLength = window
			cfg.Journal = jr
			cfg.Telemetry = reg
		})
	}
	for _, e := range edges {
		m.connect(e[0], e[1])
	}
	m.run()
	return m
}

// journalCount counts node's records of type typ.
func journalCount(jr *journal.Journal, node int64, typ string) int {
	n := 0
	for _, e := range jr.Events() {
		if e.Node == node && e.Type == typ {
			n++
		}
	}
	return n
}

// TestEvaluationSurvivesWindowRoll is the regression test for the
// stale-window verdict bug: the verdict can fall due after the window
// rolls. That the round judges by the opening window's own report is
// police.TestRoundOwnReportIsTheOpeningWindows'; what needs a node is
// that a quiet window closing in between leaves the pending round alone
// and the late verdict still cuts. Here the suspect's buddy group is one
// silent peer, so the verdict defers once, to the instant the next
// window closes, and the window goes first.
func TestEvaluationSurvivesWindowRoll(t *testing.T) {
	m := policeMesh(t, nil, nil, []int32{1, 2}, [2]int32{1, 2}, [2]int32{2, 3})
	m.flood(1, 2, 1000, 1)
	m.advance(window)     // the flood window closes and the round asks 3
	m.advance(window / 2) // 3 is silent: the verdict waits one more half window
	m.advance(window / 2) // the quiet window closes, then the verdict
	cuts := m.cores[1].Stats().Disconnects
	if len(cuts) != 1 || cuts[0].Code != protocol.ByeCodeDDoSSuspect || cuts[0].General <= 5 {
		t.Fatalf("verdict after a window roll: %+v, want one DD-POLICE cut with g > CT", cuts)
	}
	if nb := m.cores[1].Neighbors(); len(nb) != 0 {
		t.Fatalf("neighbors %v after the cut, want none", nb)
	}
}

// TestDuplicateReportsCountOnce is the regression test for report
// double-counting. That a round seats each asked member once is
// police.TestRoundLifecycle's ("duplicate, non-member and suspect
// reports refused"); what needs a node is that its two channels — a
// neighbor link and an out-of-band reply — feed the same seat, and that
// the refusal is counted.
func TestDuplicateReportsCountOnce(t *testing.T) {
	reg := telemetry.New()
	m := policeMesh(t, nil, reg, []int32{1, 2}, [2]int32{1, 2})
	c := m.cores[1]
	// Buddy-group view of suspect 2: two members besides us, neither
	// reachable, so every report arrives by hand.
	if err := c.Prime(m.now, 2, []int32{1, 8, 9}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Evaluate(m.now, 2); err != nil {
		t.Fatal(err)
	}
	nt := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(8, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(2, 0).IP,
		Outgoing:  5,
		Incoming:  400,
	}
	c.Reply(m.now, 8, nt) // member 8 out of band ...
	c.Reply(m.now, 8, nt) // ... and again over a second channel
	if seated, _, _ := c.Seats(2); seated != 1 {
		t.Errorf("seated = %d after a duplicate Neighbor_Traffic, want 1", seated)
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
	m := policeTriangle(t, jr, reg)

	m.flood(1, 2, 1000, 1)
	m.advance(window) // the round asks the buddy, whose report is seated
	sources := []int32{2, 8, 9, 3}
	for _, src := range sources {
		forged := protocol.NeighborTraffic{
			SourceIP:  protocol.AddrFromNodeID(src, 0).IP,
			SuspectIP: protocol.AddrFromNodeID(2, 0).IP,
			Outgoing:  math.MaxUint32,
		}
		m.inject(1, 2, protocol.Encode(nil, protocol.NewGUID(m.src), 1, 0, forged))
	}
	if got := reg.Counter("gnet.nt_reports_refused").Load(); got != uint64(len(sources)) {
		t.Errorf("gnet.nt_reports_refused = %d, want %d", got, len(sources))
	}
	if seated, _, _ := m.cores[1].Seats(2); seated != 1 {
		t.Errorf("seated = %d, want the buddy's report only", seated)
	}
	m.advance(window / 2)

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
	m := policeMesh(t, nil, reg, []int32{1, 2}, [2]int32{1, 2})
	since := len(m.log)
	stray := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(2, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(9, 0).IP, // no round about 9 anywhere
		Outgoing:  5,
	}
	const replyHops = 1 // a Neighbor_Traffic reply's header Hops
	m.inject(1, 2, protocol.Encode(nil, protocol.NewGUID(m.src), 1, replyHops, stray))
	m.run()
	if back := m.sent(1, 2, since); len(back) != 0 {
		t.Fatalf("the stray reply was answered: %+v", back)
	}
	if got := reg.Counter("gnet.nt_reports_refused").Load(); got != 1 {
		t.Errorf("gnet.nt_reports_refused = %d, want 1", got)
	}
}

// TestMonitorNTRateLimitUsesInputTime holds the §3.3 round suppression to
// the time the node's inputs carry: ReportRateLimit is in protocol
// seconds, in which a window lasts 60 whatever MinuteLength is, so with
// a 100-second limit the round of a hot window suppresses the next
// window's and not the one after. The comparison itself is
// police.TestRoundLifecycle's ("rate limited", "rate limit expired");
// what needs a node is the conversion of its time spans to protocol
// seconds and its last-round stamp. Read as wall-clock seconds, an
// hour-long window would never be suppressed.
func TestMonitorNTRateLimitUsesInputTime(t *testing.T) {
	jr := journal.New(256)
	m := newMesh(t)
	m.drop = dropQueries
	pcfg := testPolice()
	pcfg.ReportRateLimit = 100
	pcfg.CutThreshold = 1e9 // warn, never cut: the suspect stays for every window
	for _, id := range []int32{1, 2} {
		m.add(id, func(cfg *core.Config) {
			cfg.Police = pcfg
			cfg.MinuteLength = window
			cfg.Journal = jr
		})
	}
	m.connect(1, 2)
	m.run()
	for w, wantRounds := range []int{1, 1, 2} {
		m.flood(1, 2, 1000, 1)
		m.advance(window)
		if got := journalCount(jr, 1, journal.TypeWarning); got != w+1 {
			t.Fatalf("window %d: %d warnings, want %d", w+1, got, w+1)
		}
		if got := journalCount(jr, 1, journal.TypeNTRequest); got != wantRounds {
			t.Fatalf("window %d: %d rounds opened, want %d", w+1, got, wantRounds)
		}
	}
}

// TestVerdictDeadlineFollowsInputTime pins the half-window verdict
// deadline to the time the node's inputs carry: due 30 minutes into an
// hour-long window, it must not fall at 29 and must fall at 30, and the
// journal, stamped with the same time, must read exactly that half
// window from warning to cut. The suspect's buddy group is just the
// observer itself here (asked = 0, so no deferral), and the observer's
// own 1000-query report is far beyond CT, so the verdict cuts.
func TestVerdictDeadlineFollowsInputTime(t *testing.T) {
	jr := journal.New(64)
	m := policeMesh(t, jr, nil, []int32{1, 2}, [2]int32{1, 2})
	c := m.cores[1]
	m.flood(1, 2, 1000, 1)
	m.advance(window)
	if _, _, pending := c.Seats(2); !pending {
		t.Fatal("no evaluation started for the flooding neighbor")
	}
	m.advance(window/2 - time.Minute)
	if _, _, pending := c.Seats(2); !pending || len(c.Stats().Disconnects) != 0 {
		t.Fatal("verdict fell before its half-window deadline")
	}
	m.advance(time.Minute)
	if cuts := c.Stats().Disconnects; len(cuts) != 1 || cuts[0].Code != protocol.ByeCodeDDoSSuspect {
		t.Fatalf("deadline verdict: %+v, want the flooding neighbor cut", cuts)
	}
	at := map[string]float64{}
	for _, e := range jr.Events() {
		if e.Node == 1 {
			at[e.Type] = e.T
		}
	}
	if d := at[journal.TypeCut] - at[journal.TypeWarning]; d != 1800 {
		t.Errorf("journal warning -> cut = %v s, want the 1800 s that passed", d)
	}
	if d := at[journal.TypePeerDrop] - at[journal.TypeCut]; d != 0 {
		t.Errorf("peer_drop %v s after the cut, in the same input", d)
	}
}

// TestTelemetryConcurrentTransientDials exercises the gnet telemetry
// hooks from every goroutine that records them — transient dial
// failures, handshake failures, inbox high-water, send stalls — while
// another goroutine snapshots the registry. Run under -race by the CI
// target.
func TestTelemetryConcurrentTransientDials(t *testing.T) {
	reg := telemetry.New()
	mutate := func(cfg *Config) {
		cfg.Police = testPolice()
		cfg.MinuteLength = window
		cfg.Telemetry = reg
	}
	observer := newTestNode(t, "observer", 1, mutate)
	suspect := newTestNode(t, "suspect", 2, mutate)
	if err := observer.Connect(suspect.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(suspect.Neighbors()) == 1 }, "connected")

	// Members with no port to dial: every evaluation round spawns
	// concurrent transient dials that fail and must count.
	if err := observer.BenchPrimeSuspect(7, []int32{8, 9, 10, 11}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		runOnLoop(t, observer, func(now time.Time) { observer.core.Evaluate(now, 7) })
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

	if hwm := gaugeValue(reg, "gnet.inbox_high_water"); hwm < 1 {
		t.Errorf("inbox high-water mark = %d, want >= 1 under load", hwm)
	}
}
