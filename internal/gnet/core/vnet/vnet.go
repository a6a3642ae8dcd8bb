// Package vnet wires live-node cores together by in-memory links on
// virtual time. What a core sends is queued and delivered, in send order,
// when the caller runs the mesh: no socket, no goroutine, no wall clock.
// Time is the mesh's Now, which moves only when the caller advances it. A
// link to an id with no core is a scripted peer: what is sent to it is
// only logged. Faults are injected here, not on a live node's sockets:
// Mesh.Drop loses or partitions frames, and a seeded source in its closure
// makes the loss replay exactly. Like the core it drives, vnet imports no
// net, os or sync and starts no goroutine (`make corepure`), so one input
// sequence gives one send log and one journal.
package vnet

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"ddpolice/internal/capacity"
	"ddpolice/internal/gnet/core"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// The core.Link.Conn of a neighbor link, and of the out-of-band channel
// Ask opens: the member hears the request from Link{asker, AskConn}, and
// the asker its answer, as a frame, from Link{member, AskConn}. A caller
// may bring a second link between two cores up under another Conn.
const LinkConn, AskConn = 1, 2

// MaxDeliveries bounds one Run: a mesh that still has frames in flight
// after delivering that many is in a message storm.
const MaxDeliveries = 100_000

// ErrStorm is Run's error when the mesh never goes quiet.
var ErrStorm = errors.New("vnet: the mesh never went quiet: a message storm")

// Mesh is a set of cores and the in-memory links between them.
type Mesh struct {
	Now   time.Time
	Cores map[int32]*core.Core
	Log   []Logged // every Send, Ask and Dial, in order
	// Drop, when set, picks the frames to log but not deliver, by sender,
	// receiver and header payload type: a Send's and an Ask's alike. A
	// test injects seeded loss or a partition through it.
	Drop func(from, to int32, typ byte) bool
	// Src draws the GUIDs of the frames Flood injects.
	Src *rng.Source

	queue  []delivery
	closed map[end]bool // link ends a core closed
}

// Logged is one thing a core asked of its transport.
type Logged struct {
	From, To int32
	Kind     string // send, ask or dial
	Frame    []byte // a dial's is the address dialed
}

// end is core from's end of its link to to.
type end struct {
	from, to int32
	conn     uint32
}

type delivery struct {
	to    int32
	from  core.Link
	frame []byte // nil: from's link went down
}

// New returns a mesh with no core, its clock at Unix second 1.7e9.
func New() *Mesh {
	return &Mesh{
		Now: time.Unix(1_700_000_000, 0), Cores: map[int32]*core.Core{},
		Src: rng.New(99), closed: map[end]bool{},
	}
}

// Add starts the core of node id on the testbed defaults (a dedicated
// peer's capacity, seed id+1); mutate, when set, adjusts them.
func (m *Mesh) Add(id int32, mutate func(*core.Config)) (*core.Core, error) {
	cfg := core.Config{NodeID: id, CapacityPerMin: capacity.TestbedSaturationPerMin, Seed: uint64(id) + 1}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := core.New(cfg, m.Transport(id))
	if err != nil {
		return nil, fmt.Errorf("vnet: node %d: %w", id, err)
	}
	c.Tick(m.Now)
	m.Cores[id] = c
	return c, nil
}

// Connect brings up the link between u and v on whichever ends have a core.
func (m *Mesh) Connect(u, v int32) {
	for _, e := range [][2]int32{{u, v}, {v, u}} {
		delete(m.closed, end{e[0], e[1], LinkConn})
		if c := m.Cores[e[0]]; c != nil {
			c.Up(m.Now, core.Link{ID: e[1], Conn: LinkConn}, fmt.Sprintf("127.0.0.1:%d", 7000+e[1]))
		}
	}
}

// Build starts one core per vertex of g, vertex i as node i+1 with seed
// i+1 (gnet.Harness's numbering, so both run the same cores over one
// graph), connects every edge and runs the mesh. mutate, when set, adjusts
// vertex i's config.
func (m *Mesh) Build(g *topology.Graph, mutate func(i int, cfg *core.Config)) error {
	for i := 0; i < g.NumNodes(); i++ {
		if _, err := m.Add(int32(i+1), func(cfg *core.Config) {
			cfg.Seed = uint64(i + 1)
			if mutate != nil {
				mutate(i, cfg)
			}
		}); err != nil {
			return err
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(topology.NodeID(u)) {
			if int(v) > u {
				m.Connect(int32(u+1), int32(v+1))
			}
		}
	}
	return m.Run()
}

// Run delivers until nothing is in flight. It fails with ErrStorm past
// MaxDeliveries, and on a frame that does not decode.
func (m *Mesh) Run() error {
	for n := 0; len(m.queue) > 0; n++ {
		if n >= MaxDeliveries {
			return ErrStorm
		}
		d := m.queue[0]
		m.queue = m.queue[1:]
		c := m.Cores[d.to]
		switch {
		case c == nil, d.frame != nil && d.from.Conn != AskConn && m.closed[end{d.to, d.from.ID, d.from.Conn}]:
			// A scripted peer, or a link its receiver closed: the bytes vanish.
		case d.frame == nil:
			c.Down(m.Now, d.from)
		default:
			h, err := protocol.DecodeHeader(d.frame)
			if err != nil {
				return fmt.Errorf("vnet: %d -> %d: %w", d.from.ID, d.to, err)
			}
			c.Frame(m.Now, d.from, h, d.frame)
		}
	}
	return nil
}

// Advance moves the mesh's time by d, ticks every core in id order and
// runs the mesh.
func (m *Mesh) Advance(d time.Duration) error {
	m.Now = m.Now.Add(d)
	ids := make([]int32, 0, len(m.Cores))
	for id := range m.Cores {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		m.Cores[id].Tick(m.Now)
	}
	return m.Run()
}

// Inject delivers frame to core to as if neighbor from had sent it.
func (m *Mesh) Inject(to, from int32, frame []byte) error {
	h, err := protocol.DecodeHeader(frame)
	if err != nil {
		return fmt.Errorf("vnet: inject %d -> %d: %w", from, to, err)
	}
	m.Cores[to].Frame(m.Now, core.Link{ID: from, Conn: LinkConn}, h, frame)
	return nil
}

// Flood delivers n distinct queries with the given TTL from neighbor
// from to core to: what the monitor counts as n first copies in.
func (m *Mesh) Flood(to, from int32, n int, ttl byte) error {
	for i := 0; i < n; i++ {
		if err := m.Inject(to, from, protocol.Encode(nil, protocol.NewGUID(m.Src), ttl, 0, protocol.Query{Keywords: "junk"})); err != nil {
			return err
		}
	}
	return nil
}

// Sent returns the bodies of the frames core from sent or asked to id to
// since log entry since.
func (m *Mesh) Sent(from, to int32, since int) ([]protocol.Body, error) {
	var out []protocol.Body
	for _, e := range m.Log[since:] {
		if e.From == from && e.To == to && e.Kind != "dial" {
			msg, _, err := protocol.Decode(e.Frame)
			if err != nil {
				return nil, fmt.Errorf("vnet: sent %d -> %d: %w", from, to, err)
			}
			out = append(out, msg.Body)
		}
	}
	return out, nil
}

// Transport returns core id's Transport in the mesh.
func (m *Mesh) Transport(id int32) core.Transport { return transport{m, id} }

type transport struct {
	m  *Mesh
	id int32
}

func (t transport) Send(to core.Link, frame []byte) core.Sent {
	m := t.m
	if m.closed[end{t.id, to.ID, to.Conn}] {
		return core.Gone
	}
	m.Log = append(m.Log, Logged{t.id, to.ID, "send", slices.Clone(frame)})
	if !m.dropped(t.id, to.ID, frame) {
		m.queue = append(m.queue, delivery{to: to.ID, from: core.Link{ID: t.id, Conn: to.Conn}, frame: slices.Clone(frame)})
	}
	return core.Queued
}

// dropped is Drop's verdict on frame from from to to.
func (m *Mesh) dropped(from, to int32, frame []byte) bool {
	return m.Drop != nil && m.Drop(from, to, protocol.FrameType(frame))
}

func (t transport) Close(l core.Link) {
	if e := (end{t.id, l.ID, l.Conn}); l.Conn != AskConn && !t.m.closed[e] {
		t.m.closed[e] = true
		t.m.queue = append(t.m.queue, delivery{to: l.ID, from: core.Link{ID: t.id, Conn: l.Conn}})
	}
}

func (t transport) Dial(id int32, addr string) {
	t.m.Log = append(t.m.Log, Logged{t.id, id, "dial", []byte(addr)})
}

func (t transport) Ask(member protocol.PeerAddr, frame []byte) {
	m := t.m
	m.Log = append(m.Log, Logged{t.id, member.NodeID(), "ask", slices.Clone(frame)})
	if !m.dropped(t.id, member.NodeID(), frame) {
		m.queue = append(m.queue, delivery{
			to: member.NodeID(), from: core.Link{ID: t.id, Conn: AskConn}, frame: slices.Clone(frame),
		})
	}
}
