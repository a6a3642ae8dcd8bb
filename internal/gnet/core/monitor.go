package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
)

// monitor is the live driver of DD-POLICE: per-neighbor Out_query/In_query
// windows, the held neighbor lists, and the rounds in flight. What a
// round decides and records is police.Round's (DESIGN.md §19); the list
// exchange, the requests, the verdict deadline and the cut are the core's.
type monitor struct {
	cfg police.Config

	curOut, curIn   map[int32]float64 // this window, by neighbor id
	prevOut, prevIn map[int32]float64 // last closed window
	lists           map[int32]heldList
	lastNT          map[int32]time.Time
	windows         int
	pending         map[int32]*pending // by suspect id, from the request to the verdict
}

type pending struct {
	*police.Round
	due time.Time
}

// heldList is the list a neighbor advertised, a set, and when it arrived.
type heldList struct {
	members []protocol.PeerAddr
	ids     []police.PeerID // of members, in order
	at      time.Time
	pinned  bool // by Prime: the neighbor's own list must not replace it
}

// ntReplyHops is a Neighbor_Traffic reply's header Hops, a request's
// being 0: Table 1's body has no request/reply flag.
const ntReplyHops = 1

var errNoMonitor = errors.New("gnet: police monitor not enabled")

func newMonitor(cfg police.Config) *monitor {
	return &monitor{
		cfg:     cfg,
		curOut:  make(map[int32]float64),
		curIn:   make(map[int32]float64),
		prevOut: make(map[int32]float64),
		prevIn:  make(map[int32]float64),
		lists:   make(map[int32]heldList),
		lastNT:  make(map[int32]time.Time),
		pending: make(map[int32]*pending),
	}
}

// uncountOut cancels a forward that turned out to be a duplicate at the
// receiver (no-dup accounting), in the current window or else the last.
func (c *Core) uncountOut(id int32) {
	m := c.mon
	if m.curOut[id] > 0 {
		m.curOut[id]--
	} else if m.prevOut[id] > 0 {
		m.prevOut[id]--
	}
}

// onNeighborUp sends our list to the new neighbor (a joining peer "creates
// its BG membership after its first neighbor list exchanging operation")
// and to everyone, so its presence propagates.
func (c *Core) onNeighborUp(id int32) {
	if i, ok := c.peer(id); ok {
		c.send(c.peers[i].link, c.listFrame())
	}
	c.broadcastList()
}

func (c *Core) onNeighborDown(id int32) {
	m := c.mon
	for _, w := range []map[int32]float64{m.curOut, m.curIn, m.prevOut, m.prevIn} {
		delete(w, id)
	}
	delete(m.lists, id)
	if m.cfg.EventDriven {
		c.broadcastList()
	}
}

func (c *Core) onNeighborList(id int32, nl protocol.NeighborList) {
	if !c.mon.lists[id].pinned {
		c.holdList(id, nl.Neighbors, false)
	}
}

// holdList stores the list neighbor id advertised, stamped with its
// receipt time. A list is a set: no peer is asked, or seated, twice.
func (c *Core) holdList(id int32, members []protocol.PeerAddr, pinned bool) {
	held := heldList{at: c.now, pinned: pinned}
	for _, a := range members {
		if mid := police.PeerID(a.NodeID()); !slices.Contains(held.ids, mid) {
			held.members, held.ids = append(held.members, a), append(held.ids, mid)
		}
	}
	c.mon.lists[id] = held
}

// listFrame renders the neighbor set as a NeighborList — identity and TCP
// port for out-of-band dialing — in ascending id order, the simulator's,
// so both ask a buddy group in the same order.
func (c *Core) listFrame() []byte {
	var nl protocol.NeighborList
	for _, p := range c.peers {
		port, _ := strconv.ParseUint(p.addr[strings.LastIndexByte(p.addr, ':')+1:], 10, 16)
		nl.Neighbors = append(nl.Neighbors, protocol.AddrFromNodeID(p.link.ID, uint16(port)))
	}
	return protocol.Encode(nil, protocol.NewGUID(c.src), 1, 0, nl)
}

func (c *Core) broadcastList() {
	wire := c.listFrame()
	for _, p := range c.peers {
		c.send(p.link, wire)
	}
}

// closeMinute rolls the window, exchanges lists when the period is up, and
// evaluates the suspicious neighbors in ascending id order.
func (c *Core) closeMinute() {
	m := c.mon
	m.prevOut, m.curOut = m.curOut, make(map[int32]float64)
	m.prevIn, m.curIn = m.curIn, make(map[int32]float64)
	m.windows++

	period := max(int(m.cfg.ExchangePeriod/60), 1)
	if m.cfg.EventDriven || m.windows%period == 0 {
		c.broadcastList()
	}

	r := c.newRound()
	for _, id := range sortedIDs(m.prevIn) {
		if !r.Warn(police.PeerID(c.cfg.NodeID), police.PeerID(id), c.stamp(), m.windows, m.prevIn[id]) {
			continue
		}
		// Never asked before: the zero time, ages ago.
		if c.open(id, r, c.protocolSeconds(c.now.Sub(m.lastNT[id]))) {
			r = c.newRound() // that one is the suspect's pending round now
		}
	}
}

func (c *Core) newRound() *police.Round {
	return police.NewRound(c.mon.cfg, c.cfg.Journal)
}

// protocolSeconds converts a span of the node's time to protocol seconds,
// in which a window lasts 60 whatever MinuteLength is: ReportRateLimit and
// StaleAfter are defined against one-minute windows.
func (c *Core) protocolSeconds(d time.Duration) float64 {
	return d.Seconds() * 60 / c.cfg.MinuteLength.Seconds()
}

// open puts the closed window to the round r has begun. If it opens, r is
// the suspect's pending round: its members are asked, directly or out of
// band, and the verdict is due half a window later.
func (c *Core) open(suspect int32, r *police.Round, sinceRound float64) bool {
	m := c.mon
	held, ok := m.lists[suspect]
	own := police.Report{Out: m.prevOut[suspect], In: m.prevIn[suspect]}
	if !r.Open(own, held.ids, ok, c.protocolSeconds(c.now.Sub(held.at)), sinceRound) {
		return false // rate-limited, or no buddy-group view yet: defer (paper step 1 is a prerequisite)
	}
	m.lastNT[suspect] = c.now
	due := c.now.Add(c.cfg.MinuteLength / 2)
	m.pending[suspect] = &pending{Round: r, due: due} // supersedes a round still awaiting its verdict
	c.arm(due)
	nt := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(c.cfg.NodeID, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(suspect, 0).IP,
		Timestamp: uint32(c.now.Unix()),
		Outgoing:  uint32(own.Out),
		Incoming:  uint32(own.In),
	}
	wire := protocol.Encode(nil, protocol.NewGUID(c.src), 1, 0, nt)
	for _, member := range held.members {
		if !slices.Contains(r.Asked(), police.PeerID(member.NodeID())) {
			continue
		}
		if i, direct := c.peer(member.NodeID()); direct {
			c.send(c.peers[i].link, wire)
		} else {
			c.tr.Ask(member, wire)
		}
	}
	return true
}

// onNeighborTraffic handles a Table 1 message. While our round about its
// suspect is pending it is a report for it, whatever its header says.
// Otherwise a request (Hops 0) gets our report back, reply-flagged (the
// 50-second rule suppresses redundant rounds, not answers), and a reply
// is refused and counted: answering it would bounce the frame between two
// monitors without end.
func (c *Core) onNeighborTraffic(from Link, h protocol.Header, nt protocol.NeighborTraffic) {
	m := c.mon
	suspect := protocol.PeerAddr{IP: nt.SuspectIP}.NodeID()
	if _, waiting := m.pending[suspect]; waiting {
		c.seat(from.ID, nt)
		return
	}
	if h.Hops != 0 {
		c.tel.ntRefused.Inc()
		return
	}
	// Window phases differ across nodes: report the heavier of the last
	// closed window and the current one, the one that holds a flood.
	reply := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(c.cfg.NodeID, 0).IP,
		SuspectIP: nt.SuspectIP,
		Timestamp: uint32(c.now.Unix()),
		Outgoing:  uint32(max(m.prevOut[suspect], m.curOut[suspect])),
		Incoming:  uint32(max(m.prevIn[suspect], m.curIn[suspect])),
	}
	c.send(from, protocol.Encode(nil, protocol.NewGUID(c.src), 1, ntReplyHops, reply))
}

// seat offers nt to the pending round about its suspect. The report must
// name as its source the peer whose link carried it — a neighbor's, or
// the out-of-band link of the member Ask reached — and the round then
// seats it or refuses it.
func (c *Core) seat(sender int32, nt protocol.NeighborTraffic) {
	p, ok := c.mon.pending[protocol.PeerAddr{IP: nt.SuspectIP}.NodeID()]
	if !ok {
		return
	}
	now := c.stamp()
	rep := police.Report{Out: float64(nt.Outgoing), In: float64(nt.Incoming)}
	if (protocol.PeerAddr{IP: nt.SourceIP}).NodeID() != sender || !p.Report(now, police.PeerID(sender), rep) {
		c.tel.ntRefused.Inc()
		return
	}
	c.tel.ntLatency.ObserveDuration(time.Duration((now - p.Began()) * float64(time.Second)))
}

// finishEvaluation passes the deadline to the round and carries out what
// it decides: one more half-window (every asked member still silent), or
// the verdict.
func (c *Core) finishEvaluation(suspect int32) {
	m := c.mon
	p, ok := m.pending[suspect]
	if !ok {
		return
	}
	i, connected := c.peer(suspect)
	if !connected { // the suspect left: nothing to judge or cut
		delete(m.pending, suspect)
		return
	}
	v, done := p.Deadline(c.stamp(), false) // a deadline can always be set again
	if !done {
		c.tel.evalDeferred.Inc()
		p.due = c.now.Add(c.cfg.MinuteLength / 2)
		c.arm(p.due)
		return
	}
	delete(m.pending, suspect)
	if p.Silent() > 0 {
		c.tel.evalTimeoutZero.Inc()
	}
	if !v.Cut {
		return
	}
	nb := c.peers[i]
	reason := fmt.Sprintf("DD-POLICE: g=%.1f s=%.1f > CT=%.1f", v.G, v.S, m.cfg.CutThreshold)
	c.bye(nb.link, protocol.ByeCodeDDoSSuspect, reason)
	c.count.Disconnects = append(c.count.Disconnects, Disconnect{
		Peer: nb.addr, Code: protocol.ByeCodeDDoSSuspect, Reason: reason,
		General: v.G, Single: v.S,
	})
	p.RecordCut(c.stamp(), v)
	c.drop(nb.link, dropCut)
}

// Prime, Evaluate, Seats and Verdict drive one round by hand, for gnet's
// benchmark hooks. Prime installs a pinned buddy-group view of suspect
// (members with no port: neighbors are asked over their links) and its
// counts in the last closed window.
func (c *Core) Prime(now time.Time, suspect int32, members []int32, in, out float64) error {
	c.at(now)
	if c.mon == nil {
		return errNoMonitor
	}
	addrs := make([]protocol.PeerAddr, len(members))
	for i, id := range members {
		addrs[i] = protocol.AddrFromNodeID(id, 0)
	}
	c.holdList(suspect, addrs, true)
	c.mon.prevIn[suspect], c.mon.prevOut[suspect] = in, out
	return nil
}

// Evaluate opens a round about suspect, ungated and not rate-limited.
func (c *Core) Evaluate(now time.Time, suspect int32) error {
	c.at(now)
	if c.mon == nil {
		return errNoMonitor
	}
	r := c.newRound()
	r.Begin(police.PeerID(c.cfg.NodeID), police.PeerID(suspect), c.stamp(), c.mon.windows)
	c.open(suspect, r, math.Inf(1))
	return nil
}

// Seats reports the pending round about suspect, if any: reports seated
// and members silent.
func (c *Core) Seats(suspect int32) (seated, silent int, ok bool) {
	var p *pending
	if c.mon != nil {
		p, ok = c.mon.pending[suspect]
	}
	if ok {
		seated, silent = len(p.Asked())-p.Silent(), p.Silent()
	}
	return seated, silent, ok
}

// Verdict passes the pending round about suspect its deadline now.
func (c *Core) Verdict(now time.Time, suspect int32) {
	c.at(now)
	if c.mon != nil {
		c.finishEvaluation(suspect)
	}
}
