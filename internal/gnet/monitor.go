package gnet

import (
	"fmt"
	"net"
	"strconv"
	"time"

	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/trace"
)

// monitor is the live DD-POLICE implementation: per-neighbor
// Out_query/In_query windows, periodic neighbor-list exchange,
// Neighbor_Traffic collection over transient connections, indicator
// evaluation and disconnection. All methods run on the node's run-loop
// goroutine unless noted.
type monitor struct {
	n   *Node
	cfg police.Config

	curOut, curIn   map[int32]float64 // this window, by neighbor id
	prevOut, prevIn map[int32]float64 // last closed window
	lists           map[int32][]protocol.PeerAddr
	lastNT          map[int32]time.Time
	windows         int
	// benchPinned marks neighbors whose entry in lists was installed by
	// BenchPrimeSuspect. The neighbor's own list may still be in flight
	// when the view is primed and must not replace it. Nil outside
	// benchmarks.
	benchPinned map[int32]struct{}

	// pending evaluations: suspect id -> collected reports.
	pending map[int32]*evaluation
}

type evaluation struct {
	suspect int32
	// own is the observer's report about the suspect, snapshotted from
	// the window that triggered the evaluation. The verdict fires half
	// a window later and may land after closeMinute has rolled the
	// windows; recomputing from prevOut/prevIn at that point would
	// compare the members' flood-window reports against the observer's
	// quiet new window and miss sustained floods.
	own     police.Report
	reports []police.Report
	// sources dedups reports per evaluation: a member reachable both
	// directly and over a transient dial (or an unsolicited third
	// party) must count once, not inflate k and skew g(j,t).
	sources map[[4]byte]struct{}
	missing int
	// started is when the NT round began; report arrivals observe
	// their latency against it.
	started time.Time
	// deferred marks that the verdict already got its one extra
	// half-window because every asked buddy was still silent.
	deferred bool
	// traceID keys this evaluation's causal spans; 0 when untraced.
	// Snapshotted at the warning so spans landing after the window
	// rolls still join the trace that opened them.
	traceID uint64
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
		lists:   make(map[int32][]protocol.PeerAddr),
		lastNT:  make(map[int32]time.Time),
		pending: make(map[int32]*evaluation),
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
	delete(m.benchPinned, id)
	if m.cfg.EventDriven {
		m.broadcastList()
	}
}

func (m *monitor) onNeighborList(id int32, nl protocol.NeighborList) {
	if _, pinned := m.benchPinned[id]; pinned {
		return
	}
	cp := make([]protocol.PeerAddr, len(nl.Neighbors))
	copy(cp, nl.Neighbors)
	m.lists[id] = cp
}

// ownList renders this node's neighbor set as wire entries carrying the
// overlay identity and the TCP port for out-of-band dialing.
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

	// The paper's 50-second suppression is defined against one-minute
	// windows; scale it with the configured window length so shortened
	// test windows keep the same windows-per-round ratio.
	rateLimit := time.Duration(m.cfg.ReportRateLimit / 60 * float64(m.n.cfg.MinuteLength))
	for id, in := range m.prevIn {
		if in <= m.cfg.WarnThreshold {
			continue
		}
		m.n.journalEvent(journal.Event{
			Type: journal.TypeWarning, Peer: int64(id),
			Value: in, Window: m.windows,
		})
		tid := uint64(0)
		if m.n.cfg.Tracer != nil {
			// The node id seeds the derivation on the live path (each
			// node draws its own GUIDs the same way), so two nodes
			// evaluating the same suspect get distinct traces.
			tid = trace.DetectionID(uint64(uint32(m.n.cfg.NodeID)),
				uint64(uint32(m.n.cfg.NodeID)), uint64(uint32(id)), uint64(m.windows))
			m.n.traceSpan(tid, trace.Span{
				Kind: trace.KindWarning, Peer: int64(id), Value: in,
			})
		}
		if last, ok := m.lastNT[id]; ok && m.n.cfg.Clock.Since(last) < rateLimit {
			continue
		}
		m.lastNT[id] = m.n.cfg.Clock.Now()
		m.startEvaluation(id, tid)
	}
}

// startEvaluation sends Neighbor_Traffic requests to the suspect's
// buddy group and schedules the verdict after half a window.
func (m *monitor) startEvaluation(suspect int32, traceID uint64) {
	members, ok := m.lists[suspect]
	if !ok {
		return // no buddy-group view yet: defer (paper step 1 is a prerequisite)
	}
	ev := &evaluation{
		suspect: suspect,
		own:     police.Report{Out: m.prevOut[suspect], In: m.prevIn[suspect]},
		sources: make(map[[4]byte]struct{}),
		started: m.n.cfg.Clock.Now(),
		traceID: traceID,
	}
	m.pending[suspect] = ev
	nt := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(m.n.cfg.NodeID, 0).IP,
		SuspectIP: protocol.AddrFromNodeID(suspect, 0).IP,
		Timestamp: uint32(m.n.cfg.Clock.Now().Unix()),
		Outgoing:  uint32(m.prevOut[suspect]),
		Incoming:  uint32(m.prevIn[suspect]),
	}
	wire := protocol.Encode(nil, protocol.NewGUID(m.n.src), 1, 0, nt)
	asked := 0
	for _, member := range members {
		mid := member.NodeID()
		if mid == m.n.cfg.NodeID || mid == suspect {
			continue
		}
		asked++
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
	ev.missing = asked // members count down as reports arrive
	m.n.journalEvent(journal.Event{
		Type: journal.TypeNTRequest, Peer: int64(suspect),
		K: asked, Window: m.windows,
	})
	m.n.traceSpan(ev.traceID, trace.Span{
		Kind: trace.KindNTRequest, Peer: int64(suspect), Value: float64(asked),
	})
	m.armVerdict(suspect)
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
	case m.n.ctl <- func() { m.recordReport(nt) }:
	case <-m.n.closed:
	}
	return true
}

// onNeighborTraffic handles an incoming Table 1 message. The wire
// format carries no request/reply flag, so solicitation state decides:
// while we have a pending evaluation for the suspect, an incoming NT
// is (or doubles as) a reply to our own round and is only recorded —
// answering it would bounce NT messages between two monitors forever,
// an echo storm the event journal made plainly visible. Unsolicited
// messages are someone else's request and get our report back (the
// paper's 50-second rule suppresses redundant *broadcast rounds*, not
// answers; a member that stonewalled would be indistinguishable from a
// cheater).
func (m *monitor) onNeighborTraffic(from *peerConn, nt protocol.NeighborTraffic) {
	suspect := protocol.PeerAddr{IP: nt.SuspectIP}.NodeID()
	if _, waiting := m.pending[suspect]; waiting {
		m.recordReport(nt)
		return
	}
	// Because window phases differ across nodes, report the heavier of
	// the last closed window and the current partial one — during a
	// sustained flood this is the window that actually contains it.
	reply := protocol.NeighborTraffic{
		SourceIP:  protocol.AddrFromNodeID(m.n.cfg.NodeID, 0).IP,
		SuspectIP: nt.SuspectIP,
		Timestamp: uint32(m.n.cfg.Clock.Now().Unix()),
		Outgoing:  uint32(maxf(m.prevOut[suspect], m.curOut[suspect])),
		Incoming:  uint32(maxf(m.prevIn[suspect], m.curIn[suspect])),
	}
	from.send(protocol.Encode(nil, protocol.NewGUID(m.n.src), 1, 0, reply))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (m *monitor) recordReport(nt protocol.NeighborTraffic) {
	suspect := protocol.PeerAddr{IP: nt.SuspectIP}.NodeID()
	ev, ok := m.pending[suspect]
	if !ok {
		return
	}
	if _, dup := ev.sources[nt.SourceIP]; dup {
		return // one vote per buddy-group member, whatever the channel
	}
	ev.sources[nt.SourceIP] = struct{}{}
	ev.reports = append(ev.reports, police.Report{
		Out: float64(nt.Outgoing),
		In:  float64(nt.Incoming),
	})
	if ev.missing > 0 {
		ev.missing--
	}
	m.n.tel.ntLatency.ObserveDuration(m.n.cfg.Clock.Since(ev.started))
	m.n.journalEvent(journal.Event{
		Type: journal.TypeNTReport, Peer: int64(suspect),
		Member: int64(protocol.PeerAddr{IP: nt.SourceIP}.NodeID()),
		Window: m.windows,
	})
	m.n.traceSpan(ev.traceID, trace.Span{
		Kind: trace.KindNTReport,
		Peer: int64(protocol.PeerAddr{IP: nt.SourceIP}.NodeID()),
		Dur:  m.n.cfg.Clock.Since(ev.started).Seconds(),
	})
}

// finishEvaluation computes the indicators and cuts the suspect if
// either exceeds CT.
func (m *monitor) finishEvaluation(suspect int32) {
	ev, ok := m.pending[suspect]
	if !ok {
		return
	}
	// Graceful degradation under quorum loss: if we asked buddies and
	// every one of them is still silent (dead ports, partitions, dial
	// retries still in flight), give the group one extra half-window
	// before judging alone. One deferral only — after that the paper's
	// §3.3 timeout-as-zero applies and the verdict proceeds on whatever
	// arrived.
	if !ev.deferred && ev.missing > 0 && len(ev.reports) == 0 {
		ev.deferred = true
		m.n.tel.evalDeferred.Inc()
		m.n.journalEvent(journal.Event{
			Type: journal.TypeNTDefer, Peer: int64(suspect), Value: float64(ev.missing),
		})
		m.n.traceSpan(ev.traceID, trace.Span{
			Kind: trace.KindNTDefer, Peer: int64(suspect), Value: float64(ev.missing),
		})
		m.armVerdict(suspect)
		return
	}
	delete(m.pending, suspect)
	pc, connected := m.n.peers[suspect]
	if !connected {
		return
	}
	if ev.missing > 0 {
		// §3.3 timeout-as-zero: the verdict proceeds scoring each
		// still-silent member as a zero report. Journaled distinctly
		// from the deferral above — post-run the two used to be
		// indistinguishable.
		m.n.tel.evalTimeoutZero.Inc()
		m.n.journalEvent(journal.Event{
			Type: journal.TypeNTTimeout, Peer: int64(suspect), Value: float64(ev.missing),
		})
		m.n.traceSpan(ev.traceID, trace.Span{
			Kind: trace.KindNTTimeout, Peer: int64(suspect), Value: float64(ev.missing),
		})
	}
	g, s, k := police.ComputeIndicators(m.cfg.Q0, ev.own, ev.reports, ev.missing)
	m.n.journalEvent(journal.Event{
		Type: journal.TypeIndicator, Peer: int64(suspect),
		G: g, S: s, K: k, Window: m.windows,
	})
	m.n.traceSpan(ev.traceID, trace.Span{
		Kind: trace.KindIndicator, Peer: int64(suspect),
		Value: max(g, s), Detail: "g_s_max", Depth: k,
	})
	if g <= m.cfg.CutThreshold && s <= m.cfg.CutThreshold {
		return
	}
	reason := fmt.Sprintf("DD-POLICE: g=%.1f s=%.1f > CT=%.1f", g, s, m.cfg.CutThreshold)
	pc.send(protocol.Encode(nil, protocol.NewGUID(m.n.src), 1, 0,
		protocol.Bye{Code: protocol.ByeCodeDDoSSuspect, Reason: reason}))
	m.n.statsMu.Lock()
	m.n.stats.Disconnects = append(m.n.stats.Disconnects, Disconnect{
		Peer: pc.addr, Code: protocol.ByeCodeDDoSSuspect, Reason: reason,
		General: g, Single: s,
	})
	m.n.statsMu.Unlock()
	m.n.journalEvent(journal.Event{
		Type: journal.TypeCut, Peer: int64(suspect), G: g, S: s, Window: m.windows,
	})
	m.n.traceSpan(ev.traceID, trace.Span{
		Kind: trace.KindCut, Peer: int64(suspect), Value: max(g, s),
		Dur: m.n.cfg.Clock.Since(ev.started).Seconds(),
	})
	m.n.dropPeer(pc, dropCut)
}
