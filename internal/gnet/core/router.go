package core

import (
	"encoding/binary"
	"time"

	"ddpolice/internal/protocol"
	"ddpolice/internal/trace"
)

// Frame handles one frame read from link from, as StreamReader.NextFrame
// accepted it; the core owns its bytes and relays them as received. Query
// and QueryHit frames are parsed in place, others decoded. Control
// messages but Bye draw on the overload plane's protected reserve, which
// borrows idle query tokens and so sheds only when the node is dry.
func (c *Core) Frame(now time.Time, from Link, h protocol.Header, frame []byte) {
	c.at(now)
	c.count.BytesIn += uint64(len(frame))
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
	if _, dup := c.seen[h.GUID]; dup {
		c.count.DupDropped++
		if c.mon != nil {
			// The sender evidently had this query already: if we had
			// counted a forward of it to them, cancel that count so the
			// monitors implement the paper's no-duplication accounting
			// (duplicate copies exist on the wire but are never counted
			// by Out_query/In_query; Fig 2).
			fwd := c.forwarded[h.GUID]
			for i, id := range fwd {
				if id == from.ID {
					c.uncountOut(id)
					c.forwarded[h.GUID] = append(fwd[:i], fwd[i+1:]...)
					break
				}
			}
		}
		return
	}
	_, keywords, traceID, _ := protocol.ParseQuery(frame[protocol.HeaderSize:]) // cannot fail either
	if c.mon != nil {
		c.mon.curIn[from.ID]++ // first copies only (no-dup accounting)
	}
	c.remember(h.GUID)
	c.guidRoute[h.GUID] = from

	// Quarantine circuit breaker: the offer is counted (above — the
	// monitor and the breaker both judge offered load), but a
	// quarantined or probing peer only gets its per-window trickle.
	depth := int(h.Hops) + 1
	if !c.ovl.admitQuery(from.ID) {
		c.tel.quarantineDrops.Inc()
		c.ovl.winShed++
		c.count.QuarantineDropped++
		c.traceSpan(traceID, trace.Span{Kind: trace.KindShed, Peer: int64(from.ID), Depth: depth, Detail: "quarantine"})
		return
	}
	if !c.ovl.cproc.TryProcessQuery() {
		c.count.QueriesDropped++
		// A capacity drop is the saturation signal itself: it feeds the
		// degraded-mode detector alongside the overload plane's sheds.
		c.ovl.winShed++
		c.traceSpan(traceID, trace.Span{Kind: trace.KindCongestion, Peer: int64(from.ID), Depth: depth})
		return
	}
	c.ovl.winHandled++
	c.count.QueriesProcessed++
	c.traceSpan(traceID, trace.Span{Kind: trace.KindHop, Peer: int64(from.ID), Depth: depth})

	if c.shared[string(keywords)] {
		hit := protocol.QueryHit{HitCount: 1, QueryGUID: h.GUID}
		if c.send(from, protocol.Encode(nil, protocol.NewGUID(c.src), c.cfg.TTL, 0, hit)) {
			c.count.HitsSent++
			c.traceSpan(traceID, trace.Span{Kind: trace.KindDelivery, Peer: int64(from.ID), Depth: depth})
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
		c.forwarded[h.GUID] = fwd
	}
}

// queryHit routes a hit backwards along the query's reverse path,
// relaying the received frame; the first hit addressed to one of our own
// queries goes to its waiter, and later ones are discarded.
func (c *Core) queryHit(from Link, h protocol.Header, frame []byte) {
	c.count.HitsReceived++
	qh, _ := protocol.ParseQueryHit(frame[protocol.HeaderSize:]) // cannot fail either
	if ch, mine := c.hits[qh.QueryGUID]; mine {
		delete(c.hits, qh.QueryGUID)
		ch <- qh // buffered for this one send
		return
	}
	if back, ok := c.guidRoute[qh.QueryGUID]; ok && back != from && h.TTL > 1 {
		protocol.NextHop(frame)
		c.send(back, frame)
	}
}

// remember records a GUID in the dedup set, reset wholesale past 2^17: a
// coarse, allocation-friendly LRU stand-in.
func (c *Core) remember(g protocol.GUID) {
	if len(c.seen) > 1<<17 {
		c.seen = make(map[protocol.GUID]struct{})
		c.guidRoute = make(map[protocol.GUID]Link)
		c.forwarded = make(map[protocol.GUID][]int32)
		c.hits = make(map[protocol.GUID]chan<- protocol.QueryHit)
	}
	c.seen[g] = struct{}{}
}

// Issue floods a query; the first hit is sent on hit, which must have
// room for it, and the waiter forgotten. It fails if no neighbor took it.
func (c *Core) Issue(now time.Time, keywords string, hit chan<- protocol.QueryHit) error {
	c.at(now)
	guid, sent := c.flood(keywords)
	if sent == 0 {
		return errNoNeighbors
	}
	c.hits[guid] = hit
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
	c.remember(guid)
	wire := protocol.Encode(nil, guid, c.cfg.TTL, 0, c.tracedQuery(guid, keywords))
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

// tracedQuery builds a local search's Query body. When the trace ID, which
// derives from the seeded GUID, is head-sampled in, it rides the wire
// extension and the origin records the root span; otherwise the body is
// the untraced encoding, byte for byte.
func (c *Core) tracedQuery(guid protocol.GUID, keywords string) protocol.Query {
	q := protocol.Query{Keywords: keywords}
	if c.cfg.Tracer == nil {
		return q
	}
	tid := binary.LittleEndian.Uint64(guid[0:8])
	if tid == 0 || !c.cfg.Tracer.Sampled(tid) {
		return q
	}
	q.TraceID = tid
	c.traceSpan(tid, trace.Span{Kind: trace.KindQueryIssue})
	return q
}

// traceSpan records s as a standalone span of trace id, stamped with the
// node and the time: a query's spans come from many nodes, which share no
// span ordinals, so the trace ID groups them and timestamps order them.
func (c *Core) traceSpan(id uint64, s trace.Span) {
	if c.cfg.Tracer == nil || id == 0 {
		return
	}
	s.Node, s.T = int64(c.cfg.NodeID), c.stamp()
	c.cfg.Tracer.Record(id, s)
}
