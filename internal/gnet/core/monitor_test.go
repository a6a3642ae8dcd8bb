package core_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
	"ddpolice/internal/gnet/core/vnet"
	"ddpolice/internal/journal"
	"ddpolice/internal/overlay"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
)

// policeMesh starts DD-POLICE cores ids, with testPolice on hour-long
// windows recording into jr and reg, links edges (an id with no core is a
// scripted peer) and runs the list exchange. The flood stays off the
// mesh: the tests inject what each core counts.
func policeMesh(t *testing.T, jr *journal.Journal, reg *telemetry.Registry, ids []int32, edges ...[2]int32) mesh {
	t.Helper()
	m := newMesh(t)
	m.Drop = dropQueries
	for _, id := range ids {
		m.add(id, func(cfg *core.Config) {
			cfg.Police = testPolice()
			cfg.MinuteLength = window
			cfg.Journal = jr
			cfg.Telemetry = reg
		})
	}
	for _, e := range edges {
		m.Connect(e[0], e[1])
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

// policeTriangle is a mesh of observer(1), suspect(2) and buddy(3) with
// observer—suspect, buddy—suspect and observer—buddy links, so the
// suspect's advertised neighbor list gives the observer a real buddy
// member to collect a Neighbor_Traffic report from.
func policeTriangle(t *testing.T, jr *journal.Journal, reg *telemetry.Registry) mesh {
	t.Helper()
	return policeMesh(t, jr, reg, []int32{1, 2, 3}, [2]int32{1, 2}, [2]int32{3, 2}, [2]int32{1, 3})
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
	cuts := m.Cores[1].Stats().Disconnects
	if len(cuts) != 1 || cuts[0].Code != protocol.ByeCodeDDoSSuspect || cuts[0].General <= 5 {
		t.Fatalf("verdict after a window roll: %+v, want one DD-POLICE cut with g > CT", cuts)
	}
	if nb := m.Cores[1].Neighbors(); len(nb) != 0 {
		t.Fatalf("neighbors %v after the cut, want none", nb)
	}
}

// TestDuplicateReportsCountOnce is the regression test for report
// double-counting. That a round seats each asked member once is
// police.TestRoundLifecycle's ("duplicate, non-member and suspect
// reports refused"); what needs a node is that two out-of-band links of
// one member feed the same seat, and that the refusal is counted.
func TestDuplicateReportsCountOnce(t *testing.T) {
	reg := telemetry.New()
	m := policeMesh(t, nil, reg, []int32{1, 2}, [2]int32{1, 2})
	c := m.Cores[1]
	// Buddy-group view of suspect 2: two members besides us, neither
	// reachable, so every report arrives by hand.
	if err := c.Prime(m.Now, 2, []int32{1, 8, 9}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Evaluate(m.Now, 2); err != nil {
		t.Fatal(err)
	}
	nt := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(8, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(2, 0).IP,
		Outgoing:  5,
		Incoming:  400,
	}
	wire := protocol.Encode(nil, protocol.NewGUID(m.Src), 1, 1, nt)
	m.frame(1, core.Link{ID: 8, Conn: vnet.AskConn}, wire)     // member 8 out of band ...
	m.frame(1, core.Link{ID: 8, Conn: vnet.AskConn + 1}, wire) // ... and again over a second channel
	if seated, _, _ := c.Seats(2); seated != 1 {
		t.Errorf("seated = %d after a duplicate Neighbor_Traffic, want 1", seated)
	}
	if got := reg.Counter("gnet.nt_reports_refused").Load(); got != 1 {
		t.Errorf("gnet.nt_reports_refused = %d, want 1", got)
	}
}

// TestOutOfBandReportIsAdmittedLikeADirectOne: a member that is not the
// observer's neighbor answers the Ask on its own out-of-band link, and
// the frame draws on the control plane's admission like a neighbor's. With
// the observer's query tokens and control reserve both spent, the
// out-of-band report is shed and counted exactly as the direct report
// beside it is, and the verdict journals both members nt_timeout.
func TestOutOfBandReportIsAdmittedLikeADirectOne(t *testing.T) {
	jr := journal.New(1024)
	reg := telemetry.New()
	// Observer 1, suspect 2 (scripted), member 3 the observer's neighbor
	// and member 4 not.
	m := policeMesh(t, jr, reg, []int32{1, 3, 4}, [2]int32{1, 2}, [2]int32{1, 3})
	c := m.Cores[1]
	m.flood(1, 2, 1000, 1) // far past the query bucket; no Tick refills it
	shed := reg.Counter("gnet.shed_control")
	for i := 0; shed.Load() == 0; i++ { // pings draw the reserve, then any query token left, until one is shed
		if i == 1000 {
			t.Fatal("1000 pings never spent the control reserve")
		}
		m.inject(1, 2, protocol.Encode(nil, protocol.NewGUID(m.Src), 1, 0, protocol.Ping{}))
	}
	before := shed.Load()
	if err := c.Prime(m.Now, 2, []int32{1, 3, 4}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Evaluate(m.Now, 2); err != nil {
		t.Fatal(err)
	}
	m.run()
	kinds := map[int32]string{}
	for _, e := range m.Log {
		if e.From == 1 && e.Kind != "dial" && protocol.FrameType(e.Frame) == protocol.TypeNeighborTraffic {
			kinds[e.To] = e.Kind
		}
	}
	if kinds[3] != "send" || kinds[4] != "ask" {
		t.Fatalf("requests %v, want 3 asked on its link and 4 out of band", kinds)
	}
	if got := shed.Load() - before; got != 2 {
		t.Errorf("gnet.shed_control grew by %d, want 2: both reports shed", got)
	}
	if seated, _, _ := c.Seats(2); seated != 0 {
		t.Errorf("seated = %d with the control plane dry, want 0", seated)
	}
	c.Verdict(m.Now, 2) // every member silent: one more half window
	c.Verdict(m.Now, 2)
	timeouts := map[int64]bool{}
	for _, e := range jr.Events() {
		switch {
		case e.Node != 1:
		case e.Type == journal.TypeNTReport:
			t.Errorf("member %d's report was seated", e.Member)
		case e.Type == journal.TypeNTTimeout:
			timeouts[e.Member] = true
		}
	}
	if !timeouts[3] || !timeouts[4] {
		t.Errorf("nt_timeout members %v, want 3 and 4", timeouts)
	}
}

// TestOutOfBandReportCountsItsBytes: the frame a member answers an Ask
// with is counted in the observer's BytesIn, like every frame it reads.
func TestOutOfBandReportCountsItsBytes(t *testing.T) {
	m := policeMesh(t, nil, nil, []int32{1, 4}, [2]int32{1, 2})
	c := m.Cores[1]
	if err := c.Prime(m.Now, 2, []int32{1, 4}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Evaluate(m.Now, 2); err != nil {
		t.Fatal(err)
	}
	before, since := c.Stats().BytesIn, len(m.Log)
	m.run()
	var answer []byte
	for _, e := range m.Log[since:] {
		if e.From == 4 && e.To == 1 {
			answer = e.Frame
		}
	}
	if answer == nil {
		t.Fatal("member 4 never answered the Ask")
	}
	if got := c.Stats().BytesIn - before; got != uint64(len(answer)) {
		t.Errorf("BytesIn grew by %d, want the %d bytes of the out-of-band report", got, len(answer))
	}
	if seated, _, _ := c.Seats(2); seated != 1 {
		t.Errorf("seated = %d, want member 4's report", seated)
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
		m.inject(1, 2, protocol.Encode(nil, protocol.NewGUID(m.Src), 1, 0, forged))
	}
	if got := reg.Counter("gnet.nt_reports_refused").Load(); got != uint64(len(sources)) {
		t.Errorf("gnet.nt_reports_refused = %d, want %d", got, len(sources))
	}
	if seated, _, _ := m.Cores[1].Seats(2); seated != 1 {
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
	since := len(m.Log)
	stray := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(2, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(9, 0).IP, // no round about 9 anywhere
		Outgoing:  5,
	}
	const replyHops = 1 // a Neighbor_Traffic reply's header Hops
	m.inject(1, 2, protocol.Encode(nil, protocol.NewGUID(m.Src), 1, replyHops, stray))
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
	m.Drop = dropQueries
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
	m.Connect(1, 2)
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
	c := m.Cores[1]
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
	if seated, _, _ := m.Cores[1].Seats(2); seated != 1 {
		t.Fatalf("seated = %d, want the buddy's report", seated)
	}
	m.advance(window / 2)
	if nb := m.Cores[1].Neighbors(); len(nb) != 1 || nb[0] != 3 {
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
	since := len(m.Log)
	m.advance(window)
	for _, pair := range [][2]int32{{1, 3}, {3, 1}} {
		for _, b := range m.sent(pair[0], pair[1], since) {
			if _, ok := b.(protocol.NeighborTraffic); ok {
				t.Fatalf("Neighbor_Traffic %d -> %d after the round settled: %+v", pair[0], pair[1], b)
			}
		}
	}
}

// The conformance script: observer 1 judges suspect 2, whose buddy group
// is the observer and four members — two honest (3, 4), one that never
// answers (5) and one whose answer misses the deadline (6). Every member
// is also the observer's neighbor, so all requests ride direct links.
// Counts are queries in the closed window.
const (
	confObserver, confSuspect = 1, 2
	confSilent, confLate      = 5, 6
)

var (
	confEdges = [][2]int32{{2, 1}, {2, 3}, {2, 4}, {2, 5}, {2, 6}, {1, 3}, {1, 4}, {1, 5}, {1, 6}}
	// confSent[{u, v}] is what u sent v.
	confSent = map[[2]int32]float64{
		{2, 1}: 1000, {1, 2}: 5, // the flood, as the observer counted it
		{3, 2}: 30, {2, 3}: 20,
		{4, 2}: 10, {2, 4}: 40,
	}
)

// detectionRecord is what the two journals must agree on, record for
// record: everything a detection record says except when (T, Window)
// and where in the stream (Seq) it was said.
type detectionRecord struct {
	Type               string
	Node, Peer, Member int64
	K                  int
	G, S               float64
}

// detectionRecords masks a journal down to the observer's detection
// records. nt_defer is dropped: deferral exists only where a second
// deadline does, so the simulator can never write one.
func detectionRecords(events []journal.Event) []detectionRecord {
	var out []detectionRecord
	for _, e := range events {
		switch e.Type {
		case journal.TypeWarning, journal.TypeNTRequest, journal.TypeNTReport,
			journal.TypeNTTimeout, journal.TypeIndicator, journal.TypeCut:
			if e.Node == confObserver {
				out = append(out, detectionRecord{e.Type, e.Node, e.Peer, e.Member, e.K, e.G, e.S})
			}
		}
	}
	return out
}

// simConformance plays the script through Police.EvaluateMinute.
func simConformance(t *testing.T) []detectionRecord {
	t.Helper()
	b := topology.NewBuilder(7) // vertex 0 is unused: ids are the live nodes'
	for _, e := range confEdges {
		if err := b.AddEdge(topology.NodeID(e[0]), topology.NodeID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	ov := overlay.New(b.Build())
	p, err := police.New(ov, *testPolice())
	if err != nil {
		t.Fatal(err)
	}
	jr := journal.New(64)
	p.SetJournal(jr)
	for v := 0; v < ov.NumPeers(); v++ {
		p.NotifyJoin(police.PeerID(v), 0) // first list exchange
	}
	for uv, q := range confSent {
		if err := ov.AddTrafficBetween(police.PeerID(uv[0]), police.PeerID(uv[1]), q); err != nil {
			t.Fatal(err)
		}
	}
	ov.RollMinute()
	// How a simulated member fails to answer: it stonewalls, or it is
	// not there when asked — the simulator has no other kind of late.
	p.SetBad(confSilent, police.CheatSilent)
	ov.SetOnline(confLate, false)
	p.EvaluateMinute(60)
	return detectionRecords(jr.Events())
}

// liveConformance plays the script through node cores on an in-memory
// mesh, where 5 and 6 are scripted peers that say only what the test
// injects.
func liveConformance(t *testing.T) []detectionRecord {
	t.Helper()
	jr := journal.New(256)
	m := newMesh(t)
	m.Drop = dropQueries
	for _, id := range []int32{confObserver, confSuspect, 3, 4} {
		m.add(id, func(cfg *core.Config) {
			cfg.Police = testPolice()
			cfg.MinuteLength = time.Hour
			cfg.Journal = jr
		})
	}
	for _, e := range confEdges {
		m.Connect(e[0], e[1])
	}
	m.run()

	// The window, as each node counts it: what u sent v is an Out count at
	// u — a query u issues, which goes to all its neighbors but is counted
	// only in reports about the suspect — and an In count at v.
	for uv, q := range confSent {
		for i := 0; i < int(q); i++ {
			if c := m.Cores[uv[0]]; c != nil {
				c.SendRaw(m.Now, "q")
			}
		}
		if m.Cores[uv[1]] != nil {
			m.flood(uv[1], uv[0], int(q), 1)
		}
	}
	m.advance(time.Hour)     // the window closes: the round asks 3, 4, 5 and 6
	m.advance(time.Hour / 2) // the verdict
	verdict := detectionRecords(jr.Events())
	asked := false
	for _, b := range m.sent(confObserver, confLate, 0) {
		_, nt := b.(protocol.NeighborTraffic)
		asked = asked || nt
	}
	if !asked {
		t.Fatal("the late member was never asked")
	}

	// The late member answers now, reply-flagged. No round is waiting, so
	// the observer refuses the reply: it neither answers nor records it.
	since := len(m.Log)
	report := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(confLate, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(confSuspect, 0).IP,
		Outgoing:  math.MaxUint32,
	}
	m.inject(confObserver, confLate, protocol.Encode(nil, protocol.GUID{6}, 1, 1, report))
	m.run()
	if back := m.sent(confObserver, confLate, since); len(back) != 0 {
		t.Fatalf("the observer answered a late reply: %+v", back)
	}
	if after := detectionRecords(jr.Events()); !reflect.DeepEqual(after, verdict) {
		t.Errorf("a report after the verdict changed the record\n from %+v\n to   %+v", verdict, after)
	}
	return verdict
}

// TestSimLiveConformance is the first slice of sim ↔ live conformance
// (ROADMAP item 4): one scripted buddy group — two honest members, one
// silent, one late — driven through the simulator's synchronous driver
// and through node cores wired by an in-memory mesh, on the mesh's time.
// Both are transports of the one police.Round, so their journals must
// agree record for record.
func TestSimLiveConformance(t *testing.T) {
	sim, live := simConformance(t), liveConformance(t)
	if len(sim) != 8 { // warning, request, 2 reports, 2 timeouts, indicator, cut
		t.Errorf("simulator wrote %d detection records, want 8: %+v", len(sim), sim)
	}
	if !reflect.DeepEqual(sim, live) {
		t.Errorf("journals disagree\n sim  %+v\n live %+v", sim, live)
	}
}
