package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
	"ddpolice/internal/gnet/core/vnet"
	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
)

// mesh is a vnet.Mesh that fails the test on an error vnet returns.
type mesh struct {
	*vnet.Mesh
	t *testing.T
}

func newMesh(t *testing.T) mesh { return mesh{vnet.New(), t} }

func (m mesh) must(err error) {
	m.t.Helper()
	if err != nil {
		m.t.Fatal(err)
	}
}

func (m mesh) add(id int32, mutate func(*core.Config)) *core.Core {
	m.t.Helper()
	c, err := m.Add(id, mutate)
	m.must(err)
	return c
}

func (m mesh) sent(from, to int32, since int) []protocol.Body {
	m.t.Helper()
	out, err := m.Sent(from, to, since)
	m.must(err)
	return out
}

func (m mesh) build(g *topology.Graph, mutate func(int, *core.Config)) {
	m.t.Helper()
	m.must(m.Build(g, mutate))
}

// dialed returns the dials in the mesh's log since entry since.
func (m mesh) dialed(since int) (out []vnet.Logged) {
	for _, e := range m.Log[since:] {
		if e.Kind == "dial" {
			out = append(out, e)
		}
	}
	return out
}

func (m mesh) run()                                  { m.t.Helper(); m.must(m.Run()) }
func (m mesh) advance(d time.Duration)               { m.t.Helper(); m.must(m.Advance(d)) }
func (m mesh) inject(to, from int32, frame []byte)   { m.t.Helper(); m.must(m.Inject(to, from, frame)) }
func (m mesh) flood(to, from int32, n int, ttl byte) { m.t.Helper(); m.must(m.Flood(to, from, n, ttl)) }

// frame hands frame to core to as read from link from: an out-of-band
// link, say, which Inject's neighbor links are not.
func (m mesh) frame(to int32, from core.Link, frame []byte) {
	m.t.Helper()
	h, err := protocol.DecodeHeader(frame)
	m.must(err)
	m.Cores[to].Frame(m.Now, from, h, frame)
}

// dropQueries keeps the flood off the mesh: the tests that use it count
// queries by injecting them, so a relayed copy would count twice.
func dropQueries(_, _ int32, typ byte) bool {
	return protocol.IsQuery(typ)
}

// window is the monitoring window of the tests: long enough that
// nothing but the mesh's own clock could close one.
const window = time.Hour

// testPolice is the DD-POLICE configuration of the monitor tests: a
// 1000-query window is far past every threshold.
func testPolice() *police.Config {
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 50
	pcfg.CutThreshold = 5
	return &pcfg
}

// journalDetails returns the Detail strings of every event of the given
// type, in order.
func journalDetails(jr *journal.Journal, typ string) []string {
	var out []string
	for _, e := range jr.Events() {
		if e.Type == typ {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestMeshClosedLinkEnd: once a core closes its end of a link, a Send on
// that end is core.Gone and logs nothing, a frame already in flight to
// that end vanishes, and the other end is told the link went down.
func TestMeshClosedLinkEnd(t *testing.T) {
	reg := telemetry.New()
	m := newMesh(t)
	a := m.add(1, func(cfg *core.Config) { cfg.Telemetry = reg })
	b := m.add(2, nil)
	m.Connect(1, 2)
	m.run()
	if err := b.Issue(m.Now, "in flight", make(chan protocol.QueryHit, 1)); err != nil {
		t.Fatal(err)
	}
	a.Shutdown(m.Now)
	since := len(m.Log)
	ping := protocol.Encode(nil, protocol.NewGUID(m.Src), 1, 0, protocol.Ping{})
	if got := m.Transport(1).Send(core.Link{ID: 2, Conn: vnet.LinkConn}, ping); got != core.Gone || len(m.Log) != since {
		t.Errorf("Send on a closed link end = %v, logging %+v; want core.Gone, logged nowhere", got, m.Log[since:])
	}
	m.run()
	if got, strays := a.Stats().QueriesReceived, reg.Counter("gnet.stray_frames").Load(); got != 0 || strays != 0 {
		t.Errorf("the closed end received %d queries and %d stray frames, want none", got, strays)
	}
	if nb := b.Neighbors(); len(nb) != 0 {
		t.Errorf("the other end's neighbors %v after the close, want none", nb)
	}
}

// TestMeshStormIsAnError: a run still busy after vnet.MaxDeliveries
// deliveries returns vnet.ErrStorm instead of running on.
func TestMeshStormIsAnError(t *testing.T) {
	m := newMesh(t)
	m.add(1, func(cfg *core.Config) { cfg.CapacityPerMin = 1e12 })
	m.Connect(1, 2)
	m.Connect(1, 3) // 2 and 3 are scripted: 1 relays every query from 3 to 2
	m.run()
	m.flood(1, 3, vnet.MaxDeliveries+1, 2)
	if err := m.Run(); !errors.Is(err, vnet.ErrStorm) {
		t.Fatalf("Run after %d relays = %v, want vnet.ErrStorm", vnet.MaxDeliveries+1, err)
	}
}

// TestCoreIsDeterministic runs one scripted input sequence twice: two
// suspects flood the same observer past the warning threshold in two
// windows running, so the observer warns about both and opens two rounds
// at the first window close and cuts both at their verdicts; the flood
// spreads through a five-node overlay. The journals and the send logs must be
// byte-identical, and what a window close records about several peers
// must come in ascending peer id — map order used to decide it.
func TestCoreIsDeterministic(t *testing.T) {
	run := func() (journalBytes []byte, sends []vnet.Logged, jr *journal.Journal) {
		jr = journal.New(4096)
		m := newMesh(t)
		for id := int32(1); id <= 5; id++ {
			m.add(id, func(cfg *core.Config) {
				cfg.Police = testPolice()
				cfg.MinuteLength = window
				cfg.Journal = jr
			})
		}
		for _, e := range [][2]int32{{1, 4}, {1, 2}, {1, 5}, {1, 3}, {2, 3}} {
			m.Connect(e[0], e[1])
		}
		m.run()
		flood := func() {
			m.flood(1, 4, 600, 3)
			m.flood(1, 2, 600, 3)
			m.run()
		}
		flood()
		m.advance(window)     // two warnings, two rounds
		flood()               // lands before the verdicts
		m.advance(window / 2) // the verdicts cut both suspects
		m.advance(window / 2) // the second window closes
		var buf bytes.Buffer
		if err := jr.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), m.Log, jr
	}
	j1, log1, jr := run()
	j2, log2, _ := run()
	if !bytes.Equal(j1, j2) {
		t.Errorf("two runs of one input sequence wrote different journals:\n%s\n---\n%s", j1, j2)
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Errorf("two runs of one input sequence sent differently (%d vs %d entries)", len(log1), len(log2))
	}
	peers := map[string][]int64{}
	for _, e := range jr.Events() {
		if e.Node == 1 {
			peers[e.Type] = append(peers[e.Type], e.Peer)
		}
	}
	for _, typ := range []string{journal.TypeWarning, journal.TypeNTRequest, journal.TypeCut} {
		if got := peers[typ]; !slices.Equal(got, []int64{2, 4}) {
			t.Errorf("observer's %s records name %v, want [2 4]", typ, got)
		}
	}
}

// TestCrossedRedialsKeepOneLink: a transport fault drops a link at both
// ends at once. Were both ends to re-dial, each would keep the link it
// dialed and close the other's whenever the dials cross — over TCP the
// acceptor adopts a link half a round trip before its dialer does — and
// the pair would flap on every fault. Only the lower id re-dials, so one
// link survives and neither end journals a second drop.
func TestCrossedRedialsKeepOneLink(t *testing.T) {
	jr := journal.New(64)
	m := newMesh(t)
	for id := int32(1); id <= 2; id++ {
		m.add(id, func(cfg *core.Config) { cfg.Journal = jr })
	}
	m.Connect(1, 2)
	m.run()
	m.Cores[1].Down(m.Now, core.Link{ID: 2, Conn: vnet.LinkConn})
	m.Cores[2].Down(m.Now, core.Link{ID: 1, Conn: vnet.LinkConn})
	m.run()

	since := len(m.Log)
	m.advance(2 * core.ReconnectBase) // attempt 0 is due, jitter included
	dials := m.dialed(since)
	// Every dial connects, crossed: each acceptor adopts its link before
	// any dialer adopts its own.
	conn := func(i int) uint32 { return vnet.AskConn + 1 + uint32(i) }
	for i, d := range dials {
		m.Cores[d.To].Up(m.Now, core.Link{ID: d.From, Conn: conn(i)}, fmt.Sprintf("127.0.0.1:%d", 7000+d.From))
	}
	for i, d := range dials {
		m.Cores[d.From].Up(m.Now, core.Link{ID: d.To, Conn: conn(i)}, string(d.Frame))
	}
	m.run()
	for i := 0; i < core.ReconnectAttempts; i++ {
		m.advance(2 * core.ReconnectMax) // any later re-dial, left unanswered
	}

	if all := m.dialed(since); len(all) != 1 || all[0].From != 1 {
		t.Errorf("dials after the fault %+v, want one, by node 1", all)
	}
	if a, b := m.Cores[1].Neighbors(), m.Cores[2].Neighbors(); !slices.Equal(a, []int32{2}) || !slices.Equal(b, []int32{1}) {
		t.Errorf("neighbors %v and %v, want the link back at both ends", a, b)
	}
	if got := journalDetails(jr, journal.TypePeerDrop); !slices.Equal(got, []string{"transport", "transport"}) {
		t.Errorf("peer_drop records %v, want one transport drop per end", got)
	}
}

// sheddingTransport refuses every query-class frame, as a link whose
// send queue is full does.
type sheddingTransport struct{ core.Transport }

func (t sheddingTransport) Send(to core.Link, frame []byte) core.Sent {
	if protocol.IsQuery(protocol.FrameType(frame)) {
		return core.Shed
	}
	return t.Transport.Send(to, frame)
}

// TestShedRecordsCountEveryDroppedQuery saturates a node whose send queues
// refuse every relay: a window's shed record counts both of its losses,
// capacity drops and send-queue sheds, so the records sum to the Stats
// counters. The saturated node still answers control traffic on its
// protected reserve.
func TestShedRecordsCountEveryDroppedQuery(t *testing.T) {
	jr := journal.New(512)
	m := newMesh(t)
	a, err := core.New(core.Config{
		NodeID: 1, Seed: 2, CapacityPerMin: 600, MinuteLength: window, Journal: jr,
	}, sheddingTransport{m.Transport(1)})
	if err != nil {
		t.Fatal(err)
	}
	a.Tick(m.Now)
	m.Cores[1] = a
	m.Connect(1, 2) // 2 floods, 3 is the relay's only other neighbor
	m.Connect(1, 3)
	m.run()

	for i := 0; i < 3; i++ {
		m.flood(1, 2, 100, 2)
		m.advance(window)
	}
	st := a.Stats()
	if st.QueriesDropped == 0 || st.ShedQuery == 0 {
		t.Fatalf("capacity drops %d, send-queue sheds %d: want both", st.QueriesDropped, st.ShedQuery)
	}
	var shed float64
	for _, e := range jr.Events() {
		if e.Type == journal.TypeShed {
			shed += e.Value
		}
	}
	if want := float64(st.QueriesDropped + st.ShedQuery); shed != want {
		t.Errorf("shed records sum to %v, want QueriesDropped + ShedQuery = %v", shed, want)
	}

	m.flood(1, 2, 100, 1) // saturated again
	since := len(m.Log)
	m.inject(1, 2, protocol.Encode(nil, protocol.NewGUID(m.Src), 1, 0, protocol.Ping{}))
	if back := m.sent(1, 2, since); len(back) != 1 {
		t.Errorf("a saturated node answered a Ping with %v, want one Pong", back)
	}
}

// TestAnsweredQueriesAreForgotten: an issued query's waiter leaves the
// node with its first hit, so a long-running node does not keep one
// entry per query it ever asked — and a later hit for it reaches nobody.
func TestAnsweredQueriesAreForgotten(t *testing.T) {
	m := newMesh(t)
	a := m.add(1, nil)
	m.add(2, func(cfg *core.Config) { cfg.SharedObjects = []string{"ubuntu iso"} })
	m.Connect(1, 2)
	m.run()

	const answered = 20
	var hit chan protocol.QueryHit
	for i := 0; i < answered; i++ {
		hit = make(chan protocol.QueryHit, 1)
		if err := a.Issue(m.Now, "ubuntu iso", hit); err != nil {
			t.Fatal(err)
		}
		m.run()
		select {
		case <-hit:
		default:
			t.Fatalf("query %d: no QueryHit", i)
		}
	}
	// The last answer once more: the node counts it, and has no one to
	// hand it to.
	var last []byte
	for _, e := range m.Log {
		if e.From == 2 && e.Kind == "send" && protocol.FrameType(e.Frame) == protocol.TypeQueryHit {
			last = e.Frame
		}
	}
	received := a.Stats().HitsReceived
	m.inject(1, 2, slices.Clone(last))
	if got := a.Stats().HitsReceived; got != received+1 {
		t.Fatalf("HitsReceived %d -> %d, want the repeated hit counted", received, got)
	}
	if len(hit) != 0 {
		t.Fatal("an answered query's waiter got a second hit: the node still held it")
	}
}

// TestGUIDFloodKeepsInFlightRoutes puts relay 2 between issuer 1 and
// scripted holder 3, and floods 2 with fresh GUIDs while 1's query is in
// flight. The relay's GUID maps used to be cleared together once they
// held 2^17 GUIDs, and the query's reverse route with them: the holder's
// hit was lost. Now the flood only ages the query into the older of two
// generations, and its hit still reaches the issuer.
func TestGUIDFloodKeepsInFlightRoutes(t *testing.T) {
	m := newMesh(t)
	a := m.add(1, nil)
	m.add(2, nil)
	m.Connect(1, 2)
	m.Connect(2, 3)
	m.run()
	hit := make(chan protocol.QueryHit, 1)
	if err := a.Issue(m.Now, "ubuntu iso", hit); err != nil {
		t.Fatal(err)
	}
	m.run()
	var guid protocol.GUID
	if sent := m.sent(2, 3, 0); len(sent) != 1 {
		t.Fatalf("the relay sent the holder %v, want the query", sent)
	}
	for _, e := range m.Log {
		if e.From == 2 && e.To == 3 {
			copy(guid[:], e.Frame)
		}
	}
	m.flood(2, 3, 1<<17+1, 1) // one past the old bound; TTL 1, so nothing is relayed
	m.inject(2, 3, protocol.Encode(nil, protocol.NewGUID(m.Src), 7, 0, protocol.QueryHit{HitCount: 1, QueryGUID: guid}))
	m.run()
	if len(hit) != 1 {
		t.Fatal("the holder's hit did not reach the issuer: the flood erased the relay's reverse route")
	}
}

// TestGUIDExpiresAfterTwoQuietWindows relays one query through node 2,
// between scripted peers 1 and 3, and delivers the same frame again
// after one quiet window and after a second. The GUID table used to
// rotate only when a generation filled, so a quiet node kept a GUID for
// good and dropped the late copy as a duplicate forever. Now every
// window close rotates it: a GUID is remembered for at least one window
// and forgotten after two, and the late copy is relayed again.
func TestGUIDExpiresAfterTwoQuietWindows(t *testing.T) {
	const minute = time.Second
	m := newMesh(t)
	relay := m.add(2, func(cfg *core.Config) { cfg.MinuteLength = minute })
	m.Connect(1, 2)
	m.Connect(2, 3)
	m.run()
	guid := protocol.NewGUID(m.Src)
	deliver := func() (relayed int) {
		since := len(m.Log)
		m.inject(2, 1, protocol.Encode(nil, guid, 3, 0, protocol.Query{Keywords: "late"}))
		m.run()
		return len(m.sent(2, 3, since))
	}
	if got := deliver(); got != 1 {
		t.Fatalf("first copy: relayed %d, want 1", got)
	}
	m.advance(minute)
	if got := deliver(); got != 0 || relay.Stats().DupDropped != 1 {
		t.Fatalf("after one window: relayed %d, %d duplicates dropped; want 0 and 1", got, relay.Stats().DupDropped)
	}
	m.advance(minute)
	if got := deliver(); got != 1 || relay.Stats().DupDropped != 1 {
		t.Fatalf("after two windows: relayed %d, %d duplicates dropped; want 1 and 1 (the GUID forgotten)", got, relay.Stats().DupDropped)
	}
}

// TestOnlyNeighborLinksCarryTheFlood delivers frames on a link the core
// was never told is up: the out-of-band channel a buddy-group member
// opens, which the shell adopts without Up. Anything on it used to reach
// the core as if a neighbor had sent it, so a peer that never became a
// neighbor could flood through the node, and its list was held as the
// list of whatever Node-ID it claimed. Now such a link carries
// Neighbor_Traffic only: the rest is dropped and counted, nothing is
// relayed, and a request on it is still answered on it.
func TestOnlyNeighborLinksCarryTheFlood(t *testing.T) {
	reg := telemetry.New()
	m := newMesh(t)
	a := m.add(1, func(cfg *core.Config) {
		cfg.Police = testPolice()
		cfg.MinuteLength = window
		cfg.Telemetry = reg
	})
	m.Connect(1, 2) // 2 is scripted
	m.run()
	stranger := core.Link{ID: 9, Conn: vnet.AskConn}
	deliver := func(body protocol.Body) {
		frame := protocol.Encode(nil, protocol.NewGUID(m.Src), 3, 0, body)
		h, err := protocol.DecodeHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		a.Frame(m.Now, stranger, h, frame)
	}
	since := len(m.Log)
	strays := []protocol.Body{
		protocol.Query{Keywords: "junk"},
		protocol.QueryHit{HitCount: 1},
		protocol.NeighborList{Neighbors: []protocol.PeerAddr{protocol.AddrFromNodeID(2, 7002)}},
		protocol.Ping{},
	}
	for _, body := range strays {
		deliver(body)
	}
	m.run()
	if len(m.Log) != since {
		t.Fatalf("frames on a non-neighbor link made the node send %+v", m.Log[since:])
	}
	if st := a.Stats(); st.QueriesReceived != 0 || st.HitsReceived != 0 {
		t.Errorf("the core counted frames from a non-neighbor link: %+v", st)
	}
	if got := reg.Counter("gnet.stray_frames").Load(); got != uint64(len(strays)) {
		t.Errorf("gnet.stray_frames = %d, want %d", got, len(strays))
	}
	deliver(protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(9, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(2, 0).IP,
	})
	if back := m.sent(1, 9, since); len(back) != 1 {
		t.Errorf("a Neighbor_Traffic request on an out-of-band link was answered with %v, want one report", back)
	}
}

func TestQueryMissesUnsharedObject(t *testing.T) {
	m := newMesh(t)
	a := m.add(1, nil)
	m.add(2, func(cfg *core.Config) { cfg.SharedObjects = []string{"something else"} })
	m.Connect(1, 2)
	m.run()
	hit := make(chan protocol.QueryHit, 1)
	if err := a.Issue(m.Now, "ubuntu iso", hit); err != nil {
		t.Fatal(err)
	}
	m.run()
	if len(hit) != 0 || m.Cores[2].Stats().HitsSent != 0 {
		t.Fatal("hit for unshared object")
	}
}

func TestTTLBoundsPropagation(t *testing.T) {
	// Line 1-2-...-9 with protocol.DefaultTTL (7) from 1: 8 receives
	// (ttl 1) but must not forward to 9.
	m := newMesh(t)
	a := m.add(1, nil)
	for id := int32(2); id <= 8; id++ {
		m.add(id, nil)
		m.Connect(id-1, id)
	}
	d := m.add(9, func(cfg *core.Config) { cfg.SharedObjects = []string{"prize"} })
	m.Connect(8, 9)
	m.run()
	hit := make(chan protocol.QueryHit, 1)
	if err := a.Issue(m.Now, "prize", hit); err != nil {
		t.Fatal(err)
	}
	m.run()
	if len(hit) != 0 {
		t.Fatal("hit beyond TTL")
	}
	if got := m.Cores[8].Stats().QueriesReceived; got != 1 {
		t.Fatalf("8 received %d queries, want the one at TTL 1", got)
	}
	if got := d.Stats().QueriesReceived; got != 0 {
		t.Fatalf("9 received %d queries despite TTL 7", got)
	}
}
