package gnet

import (
	"cmp"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"time"

	"ddpolice/internal/faults"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
)

// monitor is the live driver of DD-POLICE: per-neighbor
// Out_query/In_query windows, periodic neighbor-list exchange, and the
// transport of bad-peer recognition — Neighbor_Traffic requests over
// direct links and transient connections, the half-window verdict timer,
// Bye and disconnection. What a round decides and records is
// police.Round's (DESIGN.md §19). Run-loop goroutine only unless noted.
type monitor struct {
	n   *Node
	cfg police.Config

	curOut, curIn   map[int32]float64 // this window, by neighbor id
	prevOut, prevIn map[int32]float64 // last closed window
	lists           map[int32]heldList
	lastNT          map[int32]time.Time
	windows         int
	pending         map[int32]*police.Round // by suspect id, from the request to the verdict
}

// heldList is the neighbor list a neighbor advertised, a set, and when
// it arrived on the node's Clock (what StaleAfter is measured from).
type heldList struct {
	members []protocol.PeerAddr
	ids     []police.PeerID // of members, in order
	at      time.Time
	pinned  bool // by BenchPrimeSuspect: the neighbor's own list, maybe still in flight, must not replace it
}

// transient-dial retry schedule: each member exchange gets
// transientMaxAttempts tries, backing off transientBaseBackoff·2^k with
// up to 100% uniform jitter between them. The totals stay well inside
// the half-window verdict deadline at the default minute length and the
// shortened test windows alike.
const (
	transientMaxAttempts = 3
	transientBaseBackoff = 25 * time.Millisecond
)

func newMonitor(n *Node, cfg police.Config) *monitor {
	return &monitor{
		n:       n,
		cfg:     cfg,
		curOut:  make(map[int32]float64),
		curIn:   make(map[int32]float64),
		prevOut: make(map[int32]float64),
		prevIn:  make(map[int32]float64),
		lists:   make(map[int32]heldList),
		lastNT:  make(map[int32]time.Time),
		pending: make(map[int32]*police.Round),
	}
}

func (m *monitor) countIn(id int32)  { m.curIn[id]++ }
func (m *monitor) countOut(id int32) { m.curOut[id]++ }

// uncountOut retroactively cancels a forward that turned out to be a
// duplicate at the receiver (no-dup accounting). The counted window may
// already have rolled; prefer the current window, fall back to prev.
func (m *monitor) uncountOut(id int32) {
	if m.curOut[id] > 0 {
		m.curOut[id]--
		return
	}
	if m.prevOut[id] > 0 {
		m.prevOut[id]--
	}
}

// onNeighborUp sends our neighbor list to the new neighbor (a joining
// peer "creates its BG membership after its first neighbor list
// exchanging operation").
func (m *monitor) onNeighborUp(id int32) {
	m.sendListTo(id)
	// And ask everyone else to refresh too, so the new peer's presence
	// propagates (event-driven flavor kept cheap: we just resend ours).
	m.broadcastList()
}

func (m *monitor) onNeighborDown(id int32) {
	delete(m.curOut, id)
	delete(m.curIn, id)
	delete(m.prevOut, id)
	delete(m.prevIn, id)
	delete(m.lists, id)
	if m.cfg.EventDriven {
		m.broadcastList()
	}
}

func (m *monitor) onNeighborList(id int32, nl protocol.NeighborList) {
	if !m.lists[id].pinned {
		m.holdList(id, nl.Neighbors, false)
	}
}

// holdList stores members as the list neighbor id advertised, stamped
// with its receipt time. A list is a set: a repeated member is dropped,
// so no peer is asked, or seated, twice.
func (m *monitor) holdList(id int32, members []protocol.PeerAddr, pinned bool) {
	held := heldList{at: m.n.cfg.Clock.Now(), pinned: pinned}
	for _, a := range members {
		if mid := police.PeerID(a.NodeID()); !slices.Contains(held.ids, mid) {
			held.members, held.ids = append(held.members, a), append(held.ids, mid)
		}
	}
	m.lists[id] = held
}

// ownList renders this node's neighbor set as wire entries carrying the
// overlay identity and the TCP port for out-of-band dialing, in ascending
// id order: the simulator's, so both ask a buddy group in the same order.
func (m *monitor) ownList() protocol.NeighborList {
	var nl protocol.NeighborList
	for id, pc := range m.n.peers {
		port := uint16(0)
		if _, p, err := net.SplitHostPort(pc.addr); err == nil {
			if v, err := strconv.Atoi(p); err == nil {
				port = uint16(v)
			}
		}
		nl.Neighbors = append(nl.Neighbors, protocol.AddrFromNodeID(id, port))
	}
	slices.SortFunc(nl.Neighbors, func(a, b protocol.PeerAddr) int { return cmp.Compare(a.NodeID(), b.NodeID()) })
	return nl
}

func (m *monitor) sendListTo(id int32) {
	if pc, ok := m.n.peers[id]; ok {
		pc.send(protocol.Encode(nil, protocol.NewGUID(m.n.src), 1, 0, m.ownList()))
	}
}

func (m *monitor) broadcastList() {
	wire := protocol.Encode(nil, protocol.NewGUID(m.n.src), 1, 0, m.ownList())
	for _, pc := range m.n.peers {
		pc.send(wire)
	}
}

// closeMinute rolls the monitoring window and starts evaluations for
// suspicious neighbors.
func (m *monitor) closeMinute() {
	m.prevOut, m.curOut = m.curOut, make(map[int32]float64)
	m.prevIn, m.curIn = m.curIn, make(map[int32]float64)
	m.windows++

	// Periodic neighbor-list exchange.
	period := int(m.cfg.ExchangePeriod / 60)
	if period < 1 {
		period = 1
	}
	if m.cfg.EventDriven || m.windows%period == 0 {
		m.broadcastList()
	}

	r := m.newRound()
	for id, in := range m.prevIn {
		if !r.Warn(police.PeerID(m.n.cfg.NodeID), police.PeerID(id), m.n.stamp(), m.windows, in) {
			continue
		}
		// Never asked before: the zero time, ages ago.
		if m.open(id, r, m.protocolSeconds(m.n.cfg.Clock.Since(m.lastNT[id]))) {
			r = m.newRound() // that one is the suspect's pending round now
		}
	}
}

// newRound returns a round wired to the node's thresholds and journal.
func (m *monitor) newRound() *police.Round {
	return police.NewRound(m.cfg, m.n.cfg.Journal)
}

// protocolSeconds converts a span of the node's Clock to the protocol's
// seconds, in which a window lasts 60: ReportRateLimit and StaleAfter are
// defined against one-minute windows, whatever MinuteLength is.
func (m *monitor) protocolSeconds(d time.Duration) float64 {
	return d.Seconds() * 60 / m.n.cfg.MinuteLength.Seconds()
}

// startEvaluation opens an ungated round about suspect (the benchmark hook's entry).
func (m *monitor) startEvaluation(suspect int32) {
	r := m.newRound()
	r.Begin(police.PeerID(m.n.cfg.NodeID), police.PeerID(suspect), m.n.stamp(), m.windows)
	m.open(suspect, r, math.Inf(1))
}

// open puts the closed window to the round r has begun. If it opens, r
// becomes the suspect's pending round (open reports true): the members
// it names are asked and the verdict is scheduled.
func (m *monitor) open(suspect int32, r *police.Round, sinceRound float64) bool {
	now := m.n.cfg.Clock.Now()
	held, ok := m.lists[suspect]
	own := police.Report{Out: m.prevOut[suspect], In: m.prevIn[suspect]}
	if !r.Open(own, held.ids, ok, m.protocolSeconds(now.Sub(held.at)), sinceRound) {
		return false // rate-limited, or no buddy-group view yet: defer (paper step 1 is a prerequisite)
	}
	m.lastNT[suspect] = now
	m.pending[suspect] = r // supersedes a round still awaiting its verdict
	nt := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(m.n.cfg.NodeID, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(suspect, 0).IP,
		Timestamp: uint32(now.Unix()),
		Outgoing:  uint32(own.Out),
		Incoming:  uint32(own.In),
	}
	wire := protocol.Encode(nil, protocol.NewGUID(m.n.src), 1, 0, nt)
	for _, member := range held.members {
		mid := member.NodeID()
		if !slices.Contains(r.Asked(), police.PeerID(mid)) {
			continue
		}
		if pc, direct := m.n.peers[mid]; direct {
			pc.send(wire)
			continue
		}
		// Out-of-band: transient dial to the member's advertised port,
		// bounded by the node-wide semaphore. A rejected member simply
		// stays missing — §3.3's timeout-as-zero absorbs it — instead of
		// growing the goroutine count without limit.
		select {
		case m.n.transientSem <- struct{}{}:
			m.n.wg.Add(1)
			go m.transientNT(member, wire, m.n.src.Split())
		default:
			m.n.tel.transientRejected.Inc()
		}
	}
	m.armVerdict(suspect)
	return true
}

// armVerdict schedules finishEvaluation half a window out.
func (m *monitor) armVerdict(suspect int32) {
	m.n.cfg.Clock.AfterFunc(m.n.cfg.MinuteLength/2, func() {
		select {
		case m.n.ctl <- func() { m.finishEvaluation(suspect) }:
		case <-m.n.closed:
		}
	})
}

// transientNT runs off the run loop on a wg-tracked goroutine holding
// one transientSem slot: up to transientMaxAttempts dial-and-exchange
// tries with exponential backoff + jitter between them. src is this
// goroutine's private stream, split off the run-loop source by the
// caller (rng.Source is not concurrency-safe).
func (m *monitor) transientNT(member protocol.PeerAddr, wire []byte, src *rng.Source) {
	n := m.n
	defer n.wg.Done()
	defer func() { <-n.transientSem }()
	backoff := transientBaseBackoff
	for attempt := 0; attempt < transientMaxAttempts; attempt++ {
		if attempt > 0 {
			n.tel.transientRetries.Inc()
			delay := backoff + time.Duration(src.Float64()*float64(backoff))
			backoff *= 2
			select {
			case <-time.After(delay):
			case <-n.done:
				return
			}
		}
		if m.transientAttempt(member, wire) {
			return
		}
		n.tel.transientErr.Inc()
	}
}

// transientAttempt is one dial-handshake-exchange round; it reports
// whether a Neighbor_Traffic reply made it back to the run loop. Each
// attempt is individually deadlined to half a monitoring window — the
// verdict fires then, so a slower reply could never count anyway.
func (m *monitor) transientAttempt(member protocol.PeerAddr, wire []byte) bool {
	host, _, err := net.SplitHostPort(m.n.Addr())
	if err != nil {
		return false
	}
	addr := net.JoinHostPort(host, fmt.Sprint(member.Port))
	conn, _, _, err := m.n.dialPeer(addr, true)
	if err != nil {
		return false
	}
	defer conn.Close()
	// The out-of-band channel fails like any other: wrap it in the same
	// fault plane the neighbor links live under.
	conn = faults.Wrap(conn, m.n.cfg.Faults, m.n.cfg.NodeID, member.NodeID(), classifyFrame)
	conn.SetDeadline(time.Now().Add(m.n.cfg.MinuteLength / 2))
	if _, err := conn.Write(wire); err != nil {
		return false
	}
	// Read one reply message.
	sr := protocol.NewStreamReader(conn, 4096)
	msg, err := sr.Next()
	if err != nil {
		return false
	}
	nt, ok := msg.Body.(protocol.NeighborTraffic)
	if !ok {
		return false
	}
	m.n.tel.transientOK.Inc()
	select {
	case m.n.ctl <- func() { m.seat(member.NodeID(), nt) }:
	case <-m.n.closed:
	}
	return true
}

// ntReplyHops is the header Hops of a Neighbor_Traffic reply; a request
// carries 0. Table 1's body has no request/reply flag, and the header
// byte is the one a one-hop control frame leaves free.
const ntReplyHops = 1

// onNeighborTraffic handles an incoming Table 1 message. While we have a
// pending evaluation for the suspect, an incoming NT is (or doubles as) a
// report for our own round and is only seated, whatever its header says.
// Otherwise a request (Hops 0) is someone else's round and gets our
// report back, reply-flagged (the paper's 50-second rule suppresses
// redundant *broadcast rounds*, not answers; a member that stonewalled
// would be indistinguishable from a cheater). A reply with no round
// waiting — late, or for a round that was never ours — is refused and
// counted: answering it would bounce the frame between two monitors
// without end.
func (m *monitor) onNeighborTraffic(from *peerConn, h protocol.Header, nt protocol.NeighborTraffic) {
	suspect := protocol.PeerAddr{IP: nt.SuspectIP}.NodeID()
	if _, waiting := m.pending[suspect]; waiting {
		m.seat(from.id, nt)
		return
	}
	if h.Hops != 0 {
		m.n.tel.ntRefused.Inc()
		return
	}
	// Because window phases differ across nodes, report the heavier of
	// the last closed window and the current partial one — during a
	// sustained flood this is the window that actually contains it.
	reply := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(m.n.cfg.NodeID, 0).IP,
		SuspectIP: nt.SuspectIP,
		Timestamp: uint32(m.n.cfg.Clock.Now().Unix()),
		Outgoing:  uint32(max(m.prevOut[suspect], m.curOut[suspect])),
		Incoming:  uint32(max(m.prevIn[suspect], m.curIn[suspect])),
	}
	from.send(protocol.Encode(nil, protocol.NewGUID(m.n.src), 1, ntReplyHops, reply))
}

// seat offers nt to the pending round about its suspect. sender is who
// demonstrably sent it — the neighbor whose link carried it, or the
// member a transient dial reached — and the report must name that peer
// as its source; the round then seats it or refuses it.
func (m *monitor) seat(sender int32, nt protocol.NeighborTraffic) {
	r, ok := m.pending[protocol.PeerAddr{IP: nt.SuspectIP}.NodeID()]
	if !ok {
		return
	}
	now := m.n.stamp()
	rep := police.Report{Out: float64(nt.Outgoing), In: float64(nt.Incoming)}
	if (protocol.PeerAddr{IP: nt.SourceIP}).NodeID() != sender || !r.Report(now, police.PeerID(sender), rep) {
		m.n.tel.ntRefused.Inc()
		return
	}
	m.n.tel.ntLatency.ObserveDuration(time.Duration((now - r.Began()) * float64(time.Second)))
}

// finishEvaluation passes the verdict deadline to the round and carries
// out what it decides: one more half-window (every asked buddy still
// silent: dead ports, partitions, dial retries in flight), or the verdict.
func (m *monitor) finishEvaluation(suspect int32) {
	r, ok := m.pending[suspect]
	if !ok {
		return
	}
	pc, connected := m.n.peers[suspect]
	if !connected {
		// The suspect left before the deadline: nothing to judge or cut.
		delete(m.pending, suspect)
		return
	}
	// The timer can always be armed again, so no deadline is final.
	v, done := r.Deadline(m.n.stamp(), false)
	if !done {
		m.n.tel.evalDeferred.Inc()
		m.armVerdict(suspect)
		return
	}
	delete(m.pending, suspect)
	if r.Silent() > 0 {
		m.n.tel.evalTimeoutZero.Inc()
	}
	if !v.Cut {
		return
	}
	reason := fmt.Sprintf("DD-POLICE: g=%.1f s=%.1f > CT=%.1f", v.G, v.S, m.cfg.CutThreshold)
	pc.send(protocol.Encode(nil, protocol.NewGUID(m.n.src), 1, 0,
		protocol.Bye{Code: protocol.ByeCodeDDoSSuspect, Reason: reason}))
	m.n.statsMu.Lock()
	m.n.disconnects = append(m.n.disconnects, Disconnect{
		Peer: pc.addr, Code: protocol.ByeCodeDDoSSuspect, Reason: reason,
		General: v.G, Single: v.S,
	})
	m.n.statsMu.Unlock()
	r.RecordCut(m.n.stamp(), v)
	m.n.dropPeer(pc, dropCut)
}
