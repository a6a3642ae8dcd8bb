package gnet

import (
	"cmp"
	"errors"
	"time"

	"ddpolice/internal/protocol"
)

// runLoop owns the core and the link table. It reads the wall clock once
// per wake-up, hands that time to the frame, closure or deadline it runs,
// and keeps one timer at the core's next deadline. When the node closes,
// the core says Bye to every neighbor before the links close, so the
// neighbors drop it as orderly and do not re-dial.
func (n *Node) runLoop() {
	defer n.wg.Done()
	defer close(n.closed)
	defer func() {
		n.core.Shutdown(time.Now())
		n.final = n.core.Stats()
		for _, pc := range n.links {
			pc.close()
		}
	}()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var armed time.Time
	for {
		var fn func(time.Time)
		var in inboundFrame
		select {
		case <-n.done:
			return
		case fn = <-n.ctl:
		case <-timer.C:
		case in = <-n.inboxCtl:
		case in = <-n.inbox:
		}
		now := time.Now()
		switch {
		case fn != nil:
			fn(now)
		case in.from != nil:
			if in.frame != nil && protocol.IsQuery(in.h.Type) {
				// Strict priority inbound too: control frames that arrived
				// while this query was queued go first.
				for len(n.inboxCtl) > 0 {
					n.handle(now, <-n.inboxCtl)
				}
			}
			n.handle(now, in)
		}
		n.core.Tick(now)
		if next := n.core.Next(); !next.Equal(armed) {
			armed = next
			timer.Reset(next.Sub(now))
		}
	}
}

// handle passes a frame to the core, or retires a connection whose read
// loop ended — unless the link was closed already, by the core.
func (n *Node) handle(now time.Time, in inboundFrame) {
	switch {
	case in.from.closed:
	case in.frame != nil:
		n.core.Frame(now, in.from.link, in.h, in.frame)
	default:
		delete(n.links, in.from.link.Conn)
		in.from.close()
		n.core.Down(now, in.from.link)
	}
}

// post hands fn to the run loop: false if the node closed first.
func (n *Node) post(fn func(now time.Time)) bool {
	select {
	case n.ctl <- fn:
		return true
	case <-n.closed:
		return false
	}
}

var (
	errClosed  = errors.New("gnet: node closed")
	errStalled = errors.New("gnet: run loop stalled")
)

// ctlCall runs fn on the run loop and returns its result. It gives up
// when the node closes and, with a positive stall, when either half of
// the trip takes longer.
func ctlCall[T any](n *Node, stall time.Duration, fn func(now time.Time) T) (T, error) {
	var zero T
	res := make(chan T, 1) // a run loop that gets to fn after the caller gave up does not block
	after := func() <-chan time.Time {
		if stall <= 0 {
			return nil
		}
		return time.After(stall)
	}
	select {
	case n.ctl <- func(now time.Time) { res <- fn(now) }:
	case <-n.closed:
		return zero, errClosed
	case <-after():
		return zero, errStalled
	}
	select {
	case v := <-res:
		return v, nil
	case <-n.closed:
		return zero, errClosed
	case <-after():
		return zero, errStalled
	}
}

// Stats returns a snapshot of the node's counters; after Close, the
// counters the node ended with.
func (n *Node) Stats() Stats {
	st, err := ctlCall(n, 0, func(time.Time) Stats { return n.core.Stats() })
	if err != nil {
		st = n.final // written before closed was closed
	}
	st.BytesOut = n.bytesOut.Load()
	return st
}

// Neighbors returns the overlay ids of current neighbors, ascending.
func (n *Node) Neighbors() []int32 {
	out, _ := ctlCall(n, 0, func(time.Time) []int32 { return n.core.Neighbors() })
	return out
}

// IssueQuery floods a query from this node and returns a channel that
// yields the first QueryHit (buffered; never blocks the router). The
// node forgets the query's waiter once that hit is delivered, or when
// 2^17 newer GUIDs have pushed the query out of its GUID table.
func (n *Node) IssueQuery(keywords string) (<-chan protocol.QueryHit, error) {
	hit := make(chan protocol.QueryHit, 1)
	issueErr, err := ctlCall(n, 0, func(now time.Time) error { return n.core.Issue(now, keywords, hit) })
	if err = cmp.Or(err, issueErr); err != nil {
		return nil, err
	}
	return hit, nil
}

// SendRawQuery floods a pre-addressed query at full rate without
// waiting for hits; the DDoS-agent prototype uses it to replay traces.
func (n *Node) SendRawQuery(keywords string) {
	n.post(func(now time.Time) { n.core.SendRaw(now, keywords) })
}
