package gnet

import (
	"context"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/overlay"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/topology"
)

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

func confPolice() police.Config {
	cfg := police.DefaultConfig()
	cfg.Q0 = 10
	cfg.WarnThreshold = 50
	cfg.CutThreshold = 5
	return cfg
}

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
	p, err := police.New(ov, confPolice())
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

// scriptedPeer is a neighbor played by the test: it handshakes as node
// id with each of nodes and then says only what the test writes. It
// returns its connections in the order of nodes.
func scriptedPeer(t *testing.T, id int32, nodes ...*Node) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, len(nodes))
	for i, n := range nodes {
		conn, err := dialHandshake(context.Background(), n.Addr(), "127.0.0.1:1", id, false, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, _, err := readPeerIdentity(conn); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	return conns
}

// liveConformance plays the script through real nodes over loopback TCP
// on the fake Clock.
func liveConformance(t *testing.T) []detectionRecord {
	t.Helper()
	clk := newFakeClock()
	jr := journal.New(256)
	pcfg := confPolice()
	nodes := map[int32]*Node{}
	for _, id := range []int32{confObserver, confSuspect, 3, 4} {
		nodes[id] = newTestNode(t, "n", id, func(cfg *Config) {
			cfg.Police = &pcfg
			cfg.MinuteLength = time.Hour // the window closes by hand
			cfg.Clock = clk
			cfg.Journal = jr
		})
	}
	for _, e := range confEdges {
		if from, to := nodes[e[0]], nodes[e[1]]; from != nil && to != nil {
			if err := from.Connect(to.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	observer := nodes[confObserver]
	scriptedPeer(t, confSilent, nodes[confSuspect], observer)
	late := scriptedPeer(t, confLate, nodes[confSuspect], observer)[1]
	waitFor(t, 2*time.Second, func() bool {
		n := 0
		runOnLoop(t, observer, func() { n = len(observer.monitor.lists[confSuspect].members) })
		return n == 5 && len(observer.Neighbors()) == 5
	}, "observer holds the suspect's five-member list")

	// The closed window, as each node counted it.
	for id, n := range nodes {
		runOnLoop(t, n, func() {
			out, in := n.monitor.prevOut, n.monitor.prevIn
			if id == confObserver {
				out, in = n.monitor.curOut, n.monitor.curIn // closeMinute below rolls these
			}
			for uv, q := range confSent {
				switch id {
				case uv[0]:
					out[uv[1]] = q
				case uv[1]:
					in[uv[0]] = q
				}
			}
		})
	}
	runOnLoop(t, observer, func() { observer.monitor.closeMinute() })
	waitFor(t, 2*time.Second, func() bool { return seatedReports(t, observer, confSuspect) == 2 },
		"both honest members' reports seated")
	clk.Advance(30 * time.Minute) // the verdict deadline
	waitFor(t, 2*time.Second, func() bool { return len(observer.Neighbors()) == 4 }, "suspect cut")
	verdict := detectionRecords(jr.Events())

	// The late member answers now, reply-flagged. No round is waiting, so
	// the observer refuses the reply: it neither answers nor records it.
	late.SetReadDeadline(time.Now().Add(2 * time.Second))
	sr := protocol.NewStreamReader(late, 4096)
	for { // the round's request, which the member never answered in time
		msg, err := sr.Next()
		if err != nil {
			t.Fatalf("late member never received the request: %v", err)
		}
		if _, ok := msg.Body.(protocol.NeighborTraffic); ok {
			break
		}
	}
	report := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(confLate, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(confSuspect, 0).IP,
		Outgoing:  math.MaxUint32,
	}
	if _, err := late.Write(protocol.Encode(nil, protocol.GUID{6}, 1, ntReplyHops, report)); err != nil {
		t.Fatal(err)
	}
	late.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	for {
		msg, err := sr.Next()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			break // the observer stayed silent
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.Body.(protocol.NeighborTraffic); ok {
			t.Fatal("the observer answered a late reply")
		}
	}
	if after := detectionRecords(jr.Events()); !reflect.DeepEqual(after, verdict) {
		t.Errorf("a report after the verdict changed the record\n from %+v\n to   %+v", verdict, after)
	}
	return verdict
}

// TestSimLiveConformance is the first slice of sim ↔ live conformance
// (ROADMAP item 4): one scripted buddy group — two honest members, one
// silent, one late — driven through the simulator's synchronous driver
// and through real nodes on the fake Clock. Both are transports of the
// one police.Round, so their journals must agree record for record.
func TestSimLiveConformance(t *testing.T) {
	sim, live := simConformance(t), liveConformance(t)
	if len(sim) != 8 { // warning, request, 2 reports, 2 timeouts, indicator, cut
		t.Errorf("simulator wrote %d detection records, want 8: %+v", len(sim), sim)
	}
	if !reflect.DeepEqual(sim, live) {
		t.Errorf("journals disagree\n sim  %+v\n live %+v", sim, live)
	}
}
