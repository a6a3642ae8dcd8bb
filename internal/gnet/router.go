package gnet

import (
	"cmp"
	"fmt"
	"time"

	"ddpolice/internal/protocol"
	"ddpolice/internal/trace"
)

// runLoop owns all node state: it processes inbound messages, control
// closures, token refills and monitor windows in a single goroutine
// (share memory by communicating).
func (n *Node) runLoop() {
	defer n.wg.Done()
	defer close(n.closed)
	defer func() {
		for _, pc := range n.peers {
			pc.close()
		}
	}()

	refill := time.NewTicker(100 * time.Millisecond)
	defer refill.Stop()
	// One window ticker closes the monitor's minute, then the overload
	// plane's breaker/detector window.
	window := time.NewTicker(n.cfg.MinuteLength)
	defer window.Stop()
	last := time.Now()
	for {
		select {
		case <-n.done:
			return
		case fn := <-n.ctl:
			fn()
		case now := <-refill.C:
			n.ovl.cproc.Tick(now.Sub(last).Seconds())
			last = now
		case <-window.C:
			if n.monitor != nil {
				n.monitor.closeMinute()
			}
			n.closeOverloadWindow()
		case in := <-n.inboxCtl:
			n.handle(in)
		case in := <-n.inbox:
			// Strict priority inbound too: drain any control messages
			// that arrived while this query was queued.
			n.drainCtlInbox()
			n.handle(in)
		}
	}
}

// drainCtlInbox handles every currently-queued control message
// (run-loop goroutine only: as inboxCtl's one receiver it never blocks).
func (n *Node) drainCtlInbox() {
	for len(n.inboxCtl) > 0 {
		n.handle(<-n.inboxCtl)
	}
}

// handle dispatches one inbound frame on its header's type (run-loop
// goroutine only). Query and QueryHit frames stay bytes: their handlers
// parse what they need in place. Every other frame is decoded.
// Processing-heavy control messages (Ping, neighbor lists, NT) draw
// from the overload plane's protected control reserve —
// which borrows idle query tokens and so only ever sheds when the node
// is completely dry. Bye is exempt: it is terminal and dropping it
// would leak the link's bookkeeping.
func (n *Node) handle(in inboundFrame) {
	switch in.h.Type {
	case protocol.TypeQuery:
		n.handleQuery(in.from, in.h, in.frame)
		return
	case protocol.TypeQueryHit:
		n.handleQueryHit(in.from, in.h, in.frame)
		return
	}
	// The stream reader accepted the frame, so Decode cannot fail.
	msg, _, _ := protocol.Decode(in.frame)
	switch body := msg.Body.(type) {
	case protocol.Ping:
		if !n.admitControl() {
			return
		}
		pong := protocol.Pong{Addr: protocol.AddrFromNodeID(0, 0), FileCount: uint32(len(n.shared))}
		in.from.send(protocol.Encode(nil, in.h.GUID, 1, 0, pong))
	case protocol.Pong:
		// Liveness only.
	case protocol.Bye:
		n.dropPeer(in.from, dropOrderly)
	case protocol.NeighborList:
		if n.monitor != nil {
			if !n.admitControl() {
				return
			}
			n.monitor.onNeighborList(in.from.id, body)
		}
	case protocol.NeighborTraffic:
		if n.monitor != nil {
			if !n.admitControl() {
				return
			}
			n.monitor.onNeighborTraffic(in.from, in.h, body)
		}
	}
}

// admitControl meters one inbound control message against the
// protected reserve.
func (n *Node) admitControl() bool {
	if n.ovl.cproc.TryProcessControl() {
		return true
	}
	n.shedControl()
	return false
}

// handleQuery implements the §2.3 peer behaviour: count the arrival,
// dedup by GUID, consume a processing token ("first look up its local
// sharing storage index, and then forward the query"), answer if the
// local index matches, and rebroadcast to every other neighbor. A
// duplicate is dropped on its header alone; only a first copy's payload
// is parsed, and the rebroadcast is the received frame itself.
func (n *Node) handleQuery(from *peerConn, h protocol.Header, frame []byte) {
	n.count.QueriesReceived.Add(1)
	if _, dup := n.seen[h.GUID]; dup {
		n.count.DupDropped.Add(1)
		if n.monitor != nil {
			// The sender evidently had this query already: if we had
			// counted a forward of it to them, cancel that count so the
			// monitors implement the paper's no-duplication accounting
			// (duplicate copies exist on the wire but are never counted
			// by Out_query/In_query; Fig 2).
			if fwd, ok := n.forwarded[h.GUID]; ok {
				for i, id := range fwd {
					if id == from.id {
						n.monitor.uncountOut(id)
						n.forwarded[h.GUID] = append(fwd[:i], fwd[i+1:]...)
						break
					}
				}
			}
		}
		return
	}
	if n.monitor != nil {
		n.monitor.countIn(from.id) // first copy only (no-dup accounting)
	}
	n.rememberGUID(h.GUID)
	n.guidRoute[h.GUID] = from
	// The stream reader accepted the frame, so ParseQuery cannot fail.
	_, keywords, traceID, _ := protocol.ParseQuery(frame[protocol.HeaderSize:])

	// Quarantine circuit breaker: the offer is counted (above — the
	// monitor and the breaker both judge offered load), but a
	// quarantined or probing peer only gets its per-window trickle.
	if !n.ovl.admitQuery(from.id) {
		n.tel.quarantineDrops.Inc()
		n.ovl.winShed.Add(1)
		n.count.QuarantineDropped.Add(1)
		n.traceSpan(traceID, trace.Span{
			Kind: trace.KindShed, Peer: int64(from.id),
			Depth: int(h.Hops) + 1, Detail: "quarantine",
		})
		return
	}

	if !n.ovl.cproc.TryProcessQuery() {
		n.count.QueriesDropped.Add(1)
		// A capacity drop is the saturation signal itself: it feeds the
		// degraded-mode detector alongside the overload plane's sheds.
		n.ovl.winShed.Add(1)
		n.traceSpan(traceID, trace.Span{
			Kind: trace.KindCongestion, Peer: int64(from.id),
			Depth: int(h.Hops) + 1,
		})
		return
	}
	n.ovl.winHandled.Add(1)
	n.count.QueriesProcessed.Add(1)
	n.traceSpan(traceID, trace.Span{
		Kind: trace.KindHop, Peer: int64(from.id), Depth: int(h.Hops) + 1,
	})

	if n.shared[string(keywords)] {
		hit := protocol.QueryHit{HitCount: 1, QueryGUID: h.GUID}
		if from.send(protocol.Encode(nil, protocol.NewGUID(n.src), n.cfg.TTL, 0, hit)) {
			n.count.HitsSent.Add(1)
			n.traceSpan(traceID, trace.Span{
				Kind: trace.KindDelivery, Peer: int64(from.id),
				Depth: int(h.Hops) + 1,
			})
		}
	}
	if h.TTL <= 1 {
		return
	}
	protocol.NextHop(frame)
	var fwd []int32
	if n.monitor != nil {
		fwd = make([]int32, 0, len(n.peers))
	}
	for id, pc := range n.peers {
		if pc == from {
			continue
		}
		if pc.send(frame) {
			n.count.QueriesForwarded.Add(1)
			if n.monitor != nil {
				n.monitor.countOut(id)
				fwd = append(fwd, id)
			}
		}
	}
	if len(fwd) > 0 {
		n.forwarded[h.GUID] = fwd
	}
}

// tracedQuery builds the Query body for a locally issued search. With
// a tracer attached and the GUID-derived trace ID head-sampled in, the
// ID rides the wire extension (propagated by every forwarding hop) and
// the origin records the root query_issue span; otherwise the body is
// the legacy untraced encoding, byte for byte.
func (n *Node) tracedQuery(guid protocol.GUID, keywords string) protocol.Query {
	q := protocol.Query{Keywords: keywords}
	if n.cfg.Tracer == nil {
		return q
	}
	tid := guidTraceID(guid)
	if tid == 0 || !n.cfg.Tracer.Sampled(tid) {
		return q
	}
	q.TraceID = tid
	n.traceSpan(tid, trace.Span{Kind: trace.KindQueryIssue})
	return q
}

// handleQueryHit routes a hit backwards along the query's reverse path,
// relaying the received frame; the first hit addressed to one of our own
// queries completes the local waiter, and later ones are discarded.
func (n *Node) handleQueryHit(from *peerConn, h protocol.Header, frame []byte) {
	n.count.HitsReceived.Add(1)
	// The stream reader accepted the frame, so ParseQueryHit cannot fail.
	qh, _ := protocol.ParseQueryHit(frame[protocol.HeaderSize:])
	if ch, mine := n.hits[qh.QueryGUID]; mine {
		delete(n.hits, qh.QueryGUID)
		ch <- qh // buffered for this one send
		return
	}
	if back, ok := n.guidRoute[qh.QueryGUID]; ok && back != from && h.TTL > 1 {
		protocol.NextHop(frame)
		back.send(frame)
	}
}

// rememberGUID records a GUID in the dedup set, bounding its size.
func (n *Node) rememberGUID(g protocol.GUID) {
	if len(n.seen) > 1<<17 {
		// Reset wholesale: a coarse but allocation-friendly LRU stand-in
		// (GUID reuse across resets is astronomically unlikely).
		n.seen = make(map[protocol.GUID]struct{})
		n.guidRoute = make(map[protocol.GUID]*peerConn)
		n.forwarded = make(map[protocol.GUID][]int32)
		n.hits = make(map[protocol.GUID]chan protocol.QueryHit)
	}
	n.seen[g] = struct{}{}
}

// IssueQuery floods a query from this node and returns a channel that
// yields the first QueryHit (buffered; never blocks the router). The
// node forgets the query's waiter once that hit is delivered, or when
// the GUID maps are reset.
func (n *Node) IssueQuery(keywords string) (<-chan protocol.QueryHit, error) {
	res := make(chan protocol.QueryHit, 1)
	errCh := make(chan error, 1)
	sendErr, err := ctlCall(n, errCh, 0, func() {
		guid := protocol.NewGUID(n.src)
		n.rememberGUID(guid)
		wire := protocol.Encode(nil, guid, n.cfg.TTL, 0, n.tracedQuery(guid, keywords))
		sent := 0
		for id, pc := range n.peers {
			if pc.send(wire) {
				sent++
				if n.monitor != nil {
					n.monitor.countOut(id)
				}
			}
		}
		if sent == 0 {
			errCh <- errNoNeighbors
			return
		}
		// No hit can arrive before this closure returns: the run loop
		// handles frames only between control calls.
		n.hits[guid] = res
		errCh <- nil
	})
	if err = cmp.Or(err, sendErr); err != nil {
		return nil, err
	}
	return res, nil
}

// SendRawQuery floods a pre-addressed query at full rate without
// waiting for hits; the DDoS-agent prototype uses it to replay traces.
func (n *Node) SendRawQuery(keywords string) {
	select {
	case n.ctl <- func() {
		guid := protocol.NewGUID(n.src)
		n.rememberGUID(guid)
		wire := protocol.Encode(nil, guid, n.cfg.TTL, 0, n.tracedQuery(guid, keywords))
		for id, pc := range n.peers {
			if pc.send(wire) {
				if n.monitor != nil {
					n.monitor.countOut(id)
				}
			}
		}
	}:
	case <-n.closed:
	}
}

var (
	errNoNeighbors = errorString("gnet: no neighbors")
	errClosed      = errorString("gnet: node closed")
	errStalled     = errorString("gnet: run loop stalled")
)

type errorString string

func (e errorString) Error() string { return string(e) }

// Disconnect sends an orderly Bye to neighbor id and drops the link.
func (n *Node) Disconnect(id int32, code uint16, reason string) error {
	errCh := make(chan error, 1)
	dropErr, err := ctlCall(n, errCh, 0, func() {
		pc, ok := n.peers[id]
		if !ok {
			errCh <- fmt.Errorf("gnet: no neighbor %d", id)
			return
		}
		pc.send(protocol.Encode(nil, protocol.NewGUID(n.src), 1, 0,
			protocol.Bye{Code: code, Reason: reason}))
		n.dropPeer(pc, dropOrderly)
		errCh <- nil
	})
	return cmp.Or(err, dropErr)
}
