package gnet

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
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

// liveConformance plays the script through node cores on an in-memory
// mesh, where 5 and 6 are scripted peers that say only what the test
// injects.
func liveConformance(t *testing.T) []detectionRecord {
	t.Helper()
	jr := journal.New(256)
	pcfg := confPolice()
	m := newMesh(t)
	m.drop = dropQueries
	for _, id := range []int32{confObserver, confSuspect, 3, 4} {
		m.add(id, func(cfg *core.Config) {
			cfg.Police = &pcfg
			cfg.MinuteLength = time.Hour
			cfg.Journal = jr
		})
	}
	for _, e := range confEdges {
		m.connect(e[0], e[1])
	}
	m.run()

	// The window, as each node counts it: what u sent v is an Out count at
	// u — a query u issues, which goes to all its neighbors but is counted
	// only in reports about the suspect — and an In count at v.
	for uv, q := range confSent {
		for i := 0; i < int(q); i++ {
			if c := m.cores[uv[0]]; c != nil {
				c.SendRaw(m.now, "q")
			}
		}
		if m.cores[uv[1]] != nil {
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
	since := len(m.log)
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
