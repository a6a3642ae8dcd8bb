package core

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
)

// Frame handles one frame read from link from, as StreamReader.NextFrame
// accepted it; the core owns its bytes and relays them as received. Query
// and QueryHit frames are parsed in place, others decoded. Control
// messages but Bye draw on the overload plane's protected reserve, which
// borrows idle query tokens and so sheds only when the node is dry. A
// link that is not a current neighbor's — an out-of-band channel, the
// request's or the answer's, or one already replaced — carries
// Neighbor_Traffic only; anything else on it is dropped and counted.
func (c *Core) Frame(now time.Time, from Link, h protocol.Header, frame []byte) {
	c.at(now)
	c.count.BytesIn += uint64(len(frame))
	if i, ok := c.peer(from.ID); (!ok || c.peers[i].link != from) && h.Type != protocol.TypeNeighborTraffic {
		c.tel.stray.Inc()
		return
	}
	switch h.Type {
	case protocol.TypeQuery:
		c.query(from, h, frame)
		return
	case protocol.TypeQueryHit:
		c.queryHit(from, h, frame)
		return
	}
	msg, _, _ := protocol.Decode(frame) // NextFrame accepted it, so Decode cannot fail
	switch body := msg.Body.(type) {
	case protocol.Ping:
		if c.admitControl() {
			pong := protocol.Pong{Addr: protocol.AddrFromNodeID(0, 0), FileCount: uint32(len(c.shared))}
			c.send(from, protocol.Encode(nil, h.GUID, 1, 0, pong))
		}
	case protocol.Bye:
		c.drop(from, dropOrderly)
	case protocol.NeighborList:
		if c.mon != nil && c.admitControl() {
			c.onNeighborList(from.ID, body)
		}
	case protocol.NeighborTraffic:
		if c.mon != nil && c.admitControl() {
			c.onNeighborTraffic(from, h, body)
		}
	}
}

func (c *Core) admitControl() bool {
	if c.ovl.cproc.TryProcessControl() {
		return true
	}
	c.shedControl()
	return false
}

// query implements the §2.3 peer behaviour: count the arrival, dedup by
// GUID, consume a processing token ("first look up its local sharing
// storage index, and then forward the query"), answer if the local index
// matches, and rebroadcast to every other neighbor in id order. A
// duplicate is dropped on its header alone; only a first copy's payload
// is parsed, and the rebroadcast is the received frame itself.
func (c *Core) query(from Link, h protocol.Header, frame []byte) {
	c.count.QueriesReceived++
	if e, gen := c.guids.find(h.GUID); gen != nil {
		c.count.DupDropped++
		if c.mon != nil {
			// The sender evidently had this query already: if we had
			// counted a forward of it to them, cancel that count so the
			// monitors implement the paper's no-duplication accounting
			// (duplicate copies exist on the wire but are never counted
			// by Out_query/In_query; Fig 2).
			if i := slices.Index(e.fwd, from.ID); i >= 0 {
				c.uncountOut(from.ID)
				e.fwd = slices.Delete(e.fwd, i, i+1)
				gen[h.GUID] = e
			}
		}
		return
	}
	_, keywords, _ := protocol.ParseQuery(frame[protocol.HeaderSize:]) // cannot fail either
	if c.mon != nil {
		c.mon.curIn[from.ID]++ // first copies only (no-dup accounting)
	}
	c.guids.add(h.GUID, guidEntry{from: from})

	depth := int(h.Hops) + 1
	if !c.ovl.cproc.TryProcessQuery() {
		c.count.QueriesDropped++
		c.ovl.winShed++
		c.floodRecord(journal.TypeCongestionDrop, h.GUID, from.ID, depth)
		return
	}
	c.count.QueriesProcessed++
	c.floodRecord(journal.TypeHop, h.GUID, from.ID, depth)

	if c.shared[string(keywords)] {
		hit := protocol.QueryHit{HitCount: 1, QueryGUID: h.GUID}
		if c.send(from, protocol.Encode(nil, protocol.NewGUID(c.src), protocol.DefaultTTL, 0, hit)) {
			c.count.HitsSent++
			c.floodRecord(journal.TypeDelivery, h.GUID, from.ID, depth)
		}
	}
	if h.TTL <= 1 {
		return
	}
	protocol.NextHop(frame)
	var fwd []int32
	if c.mon != nil {
		fwd = make([]int32, 0, len(c.peers))
	}
	for _, p := range c.peers {
		if p.link == from || !c.send(p.link, frame) {
			continue
		}
		c.count.QueriesForwarded++
		if c.mon != nil {
			c.mon.curOut[p.link.ID]++
			fwd = append(fwd, p.link.ID)
		}
	}
	if len(fwd) > 0 {
		c.guids.cur[h.GUID] = guidEntry{from: from, fwd: fwd} // where add put it
	}
}

// queryHit routes a hit backwards along the query's reverse path,
// relaying the received frame; the first hit addressed to one of our own
// queries goes to its waiter, and later ones are discarded.
func (c *Core) queryHit(from Link, h protocol.Header, frame []byte) {
	c.count.HitsReceived++
	qh, _ := protocol.ParseQueryHit(frame[protocol.HeaderSize:]) // cannot fail either
	e, gen := c.guids.find(qh.QueryGUID)
	switch {
	case e.hit != nil:
		e.hit <- qh // buffered for this one send
		e.hit = nil
		gen[qh.QueryGUID] = e
	case gen != nil && e.from != (Link{}) && e.from != from && h.TTL > 1:
		protocol.NextHop(frame)
		c.send(e.from, frame)
	}
}

// guidGeneration is how many GUIDs one generation of a guidTable holds.
const guidGeneration = 1 << 17

// guidTable remembers the GUIDs this node has seen, in two generations of
// up to guidGeneration each. The generations rotate — the current one
// becomes the older one and the older one is dropped — when the current
// one fills and at every window close (Core.Tick), so a GUID is kept
// for at least one window and at most two, however quiet the node. A
// flood of new GUIDs therefore evicts only what came before the last
// guidGeneration of them, never the whole table, so queries in flight
// keep their reverse routes.
type guidTable struct {
	cur, old map[protocol.GUID]guidEntry
}

// guidEntry is what the node knows about one GUID.
type guidEntry struct {
	from Link                     // the link the first copy came on; zero for the node's own query
	fwd  []int32                  // neighbors it was forwarded to, with DD-POLICE on
	hit  chan<- protocol.QueryHit // the waiter of the node's own query, until its first hit
}

func newGUIDTable() guidTable {
	return guidTable{cur: make(map[protocol.GUID]guidEntry), old: make(map[protocol.GUID]guidEntry)}
}

// find returns g's entry and the generation that holds it: nil if neither
// does. An updated entry is stored back into that generation.
func (t *guidTable) find(g protocol.GUID) (guidEntry, map[protocol.GUID]guidEntry) {
	if e, ok := t.cur[g]; ok {
		return e, t.cur
	}
	if e, ok := t.old[g]; ok {
		return e, t.old
	}
	return guidEntry{}, nil
}

// add records a GUID that neither generation holds, in the current one.
func (t *guidTable) add(g protocol.GUID, e guidEntry) {
	if len(t.cur) >= guidGeneration {
		t.rotate()
	}
	t.cur[g] = e
}

// rotate drops the older generation and starts a new current one.
func (t *guidTable) rotate() {
	clear(t.old) // keeps its buckets for the next generation
	t.cur, t.old = t.old, t.cur
}

// Issue floods a query; the first hit is sent on hit, which must have
// room for it, and the waiter forgotten. It fails if no neighbor took it.
func (c *Core) Issue(now time.Time, keywords string, hit chan<- protocol.QueryHit) error {
	c.at(now)
	guid, sent := c.flood(keywords)
	if sent == 0 {
		return errNoNeighbors
	}
	c.guids.cur[guid] = guidEntry{hit: hit} // where flood's add put it
	return nil
}

// SendRaw floods a query nobody waits on: the DDoS-agent prototype's.
func (c *Core) SendRaw(now time.Time, keywords string) {
	c.at(now)
	c.flood(keywords)
}

// flood sends a new query to every neighbor in id order: its GUID, and
// how many took it.
func (c *Core) flood(keywords string) (protocol.GUID, int) {
	guid := protocol.NewGUID(c.src)
	c.guids.add(guid, guidEntry{})
	c.floodRecord(journal.TypeQueryIssue, guid, 0, 0)
	wire := protocol.Encode(nil, guid, protocol.DefaultTTL, 0, protocol.Query{Keywords: keywords})
	sent := 0
	for _, p := range c.peers {
		if c.send(p.link, wire) {
			sent++
			if c.mon != nil {
				c.mon.curOut[p.link.ID]++
			}
		}
	}
	return guid, sent
}

// floodRecord journals one record of query guid's flood if this node's
// sample keeps the query. The query ID is the GUID's first 8 bytes; the
// decision rehashes it, so every node at one rate decides alike from the
// header alone. The ID is written as 16 lowercase hex digits, encoded on
// the stack so that a kept record allocates only its Detail string.
func (c *Core) floodRecord(typ string, guid protocol.GUID, from int32, depth int) {
	if c.floodKeep == 0 || c.cfg.Journal == nil {
		return
	}
	id := binary.LittleEndian.Uint64(guid[0:8])
	if c.floodKeep != math.MaxUint64 && rng.SubSeed(id, 0x7ace) >= c.floodKeep {
		return
	}
	var raw [8]byte
	var text [16]byte
	binary.BigEndian.PutUint64(raw[:], id)
	hex.Encode(text[:], raw[:])
	c.journal(journal.Event{Type: typ, Peer: int64(from), Depth: depth, Detail: string(text[:])})
}
