package gnet

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"ddpolice/internal/capacity"
	"ddpolice/internal/faults"
	"ddpolice/internal/gnet/core"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
)

// mesh wires cores by in-memory links: what a core sends is queued and
// delivered, in send order, when the test runs the mesh — no socket, no
// goroutine, no wall clock. Time is the mesh's now, which moves only when
// the test advances it. A link to an id with no core is a scripted peer:
// what is sent to it is only logged.
type mesh struct {
	t      *testing.T
	now    time.Time
	cores  map[int32]*core.Core
	queue  []delivery
	log    []logged            // every Send, Ask and Dial, in order
	closed map[end]bool        // link ends a core closed
	drop   func(f []byte) bool // frames to log but not deliver; nil delivers all
	src    *rng.Source         // GUIDs of the frames the test injects
}

// The core.Link.Conn of a neighbor link, and of the out-of-band channel
// Ask opens: a frame sent on one is a Neighbor_Traffic reply. A test may
// bring a second link between two cores up under another Conn.
const meshLink, meshAsk = 1, 2

// end is core from's end of its link to to.
type end struct {
	from, to int32
	conn     uint32
}

// logged is one thing a core asked of its transport.
type logged struct {
	from, to int32
	kind     string // send, ask or dial
	frame    []byte
}

type delivery struct {
	to    int32
	from  core.Link
	frame []byte // nil: from's link went down
	reply bool
}

func newMesh(t *testing.T) *mesh {
	return &mesh{
		t: t, now: time.Unix(1_700_000_000, 0),
		cores: map[int32]*core.Core{}, closed: map[end]bool{}, src: rng.New(99),
	}
}

// add starts the core of node id; mutate adjusts the testbed defaults.
func (m *mesh) add(id int32, mutate func(*core.Config)) *core.Core {
	m.t.Helper()
	cfg := core.Config{NodeID: id, CapacityPerMin: capacity.TestbedSaturationPerMin, Seed: uint64(id) + 1}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := core.New(cfg, meshTransport{m, id})
	if err != nil {
		m.t.Fatal(err)
	}
	c.Tick(m.now)
	m.cores[id] = c
	return c
}

// connect brings up the link between u and v on whichever ends have a core.
func (m *mesh) connect(u, v int32) {
	for _, e := range [][2]int32{{u, v}, {v, u}} {
		delete(m.closed, end{e[0], e[1], meshLink})
		if c := m.cores[e[0]]; c != nil {
			c.Up(m.now, core.Link{ID: e[1], Conn: meshLink}, fmt.Sprintf("127.0.0.1:%d", 7000+e[1]))
		}
	}
}

// run delivers until nothing is in flight.
func (m *mesh) run() {
	m.t.Helper()
	for n := 0; len(m.queue) > 0; n++ {
		if n > 100_000 {
			m.t.Fatal("the mesh never went quiet: a message storm")
		}
		d := m.queue[0]
		m.queue = m.queue[1:]
		c := m.cores[d.to]
		switch {
		case c == nil, d.frame != nil && d.from.Conn != meshAsk && m.closed[end{d.to, d.from.ID, d.from.Conn}]:
			// A scripted peer, or a link its receiver closed: the bytes vanish.
		case d.frame == nil:
			c.Down(m.now, d.from)
		case d.reply:
			msg, _, err := protocol.Decode(d.frame)
			if err != nil {
				m.t.Fatal(err)
			}
			c.Reply(m.now, d.from.ID, msg.Body.(protocol.NeighborTraffic))
		default:
			h, err := protocol.DecodeHeader(d.frame)
			if err != nil {
				m.t.Fatal(err)
			}
			c.Frame(m.now, d.from, h, d.frame)
		}
	}
}

// advance moves the mesh's time by d, ticks every core in id order and
// runs the mesh.
func (m *mesh) advance(d time.Duration) {
	m.t.Helper()
	m.now = m.now.Add(d)
	ids := make([]int32, 0, len(m.cores))
	for id := range m.cores {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		m.cores[id].Tick(m.now)
	}
	m.run()
}

// inject delivers frame to core to as if neighbor from had sent it.
func (m *mesh) inject(to, from int32, frame []byte) {
	m.t.Helper()
	h, err := protocol.DecodeHeader(frame)
	if err != nil {
		m.t.Fatal(err)
	}
	m.cores[to].Frame(m.now, core.Link{ID: from, Conn: meshLink}, h, frame)
}

// flood delivers n distinct queries with the given TTL from neighbor
// from to core to: what the monitor counts as n first copies in.
func (m *mesh) flood(to, from int32, n int, ttl byte) {
	m.t.Helper()
	for i := 0; i < n; i++ {
		m.inject(to, from, protocol.Encode(nil, protocol.NewGUID(m.src), ttl, 0, protocol.Query{Keywords: "junk"}))
	}
}

// sent returns the bodies of the frames core from sent to id to since
// log entry since.
func (m *mesh) sent(from, to int32, since int) []protocol.Body {
	m.t.Helper()
	var out []protocol.Body
	for _, e := range m.log[since:] {
		if e.from == from && e.to == to && e.kind != "dial" {
			msg, _, err := protocol.Decode(e.frame)
			if err != nil {
				m.t.Fatal(err)
			}
			out = append(out, msg.Body)
		}
	}
	return out
}

// meshTransport is core id's Transport in the mesh.
type meshTransport struct {
	m  *mesh
	id int32
}

func (t meshTransport) Send(to core.Link, frame []byte) core.Sent {
	m := t.m
	if m.closed[end{t.id, to.ID, to.Conn}] {
		return core.Gone
	}
	m.log = append(m.log, logged{t.id, to.ID, "send", slices.Clone(frame)})
	if m.drop == nil || !m.drop(frame) {
		m.queue = append(m.queue, delivery{
			to: to.ID, from: core.Link{ID: t.id, Conn: to.Conn},
			frame: slices.Clone(frame), reply: to.Conn == meshAsk,
		})
	}
	return core.Queued
}

func (t meshTransport) Close(l core.Link) {
	if e := (end{t.id, l.ID, l.Conn}); l.Conn != meshAsk && !t.m.closed[e] {
		t.m.closed[e] = true
		t.m.queue = append(t.m.queue, delivery{to: l.ID, from: core.Link{ID: t.id, Conn: l.Conn}})
	}
}

func (t meshTransport) Dial(id int32, addr string) {
	t.m.log = append(t.m.log, logged{t.id, id, "dial", []byte(addr)})
}

func (t meshTransport) Ask(member protocol.PeerAddr, frame []byte) {
	m := t.m
	m.log = append(m.log, logged{t.id, member.NodeID(), "ask", slices.Clone(frame)})
	m.queue = append(m.queue, delivery{
		to: member.NodeID(), from: core.Link{ID: t.id, Conn: meshAsk}, frame: slices.Clone(frame),
	})
}

// dropQueries keeps the flood off the mesh: the tests that use it count
// queries by injecting them, so a relayed copy would count twice.
func dropQueries(f []byte) bool { return classifyFrame(f) == faults.ClassQuery }

// TestCoreIsDeterministic runs one scripted input sequence twice: two
// suspects flood the same observer past the breaker's trip threshold in
// two windows running, so the observer warns about both and opens two
// rounds at the first window close, cuts both at their verdicts, and
// trips two breakers at the second close; the flood spreads through a
// five-node overlay. The journals and the send logs must be
// byte-identical, and what a window close records about several peers
// must come in ascending peer id — map order used to decide it.
func TestCoreIsDeterministic(t *testing.T) {
	run := func() (journalBytes []byte, sends []logged, jr *journal.Journal) {
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
			m.connect(e[0], e[1])
		}
		m.run()
		flood := func() {
			m.flood(1, 4, overload.TripThreshold+100, 3)
			m.flood(1, 2, overload.TripThreshold+100, 3)
			m.run()
		}
		flood()
		m.advance(window)     // strike one: two warnings, two rounds
		flood()               // lands before the verdicts
		m.advance(window / 2) // the verdicts cut both suspects
		m.advance(window / 2) // strike two (overload.TripWindows): both breakers trip
		var buf bytes.Buffer
		if err := jr.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), m.log, jr
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
	for _, typ := range []string{journal.TypeWarning, journal.TypeNTRequest, journal.TypeQuarantine, journal.TypeCut} {
		if got := peers[typ]; !slices.Equal(got, []int64{2, 4}) {
			t.Errorf("observer's %s records name %v, want [2 4]", typ, got)
		}
	}
}
