// Package core is a live node's protocol without its sockets: forwarding,
// duplicate suppression, hit routing, the DD-POLICE monitor, the overload
// plane, cut-versus-crash provenance and the reconnect policy. Its inputs
// carry the time — Frame, Tick, Up, Down, Reply and the local calls — and
// it acts only through the Transport its shell implements. It starts no
// goroutine, imports no net, os or sync and reads no clock (`make lint`),
// so the same inputs give the same sends and journal on a live node as in
// a test. One goroutine, the shell's run loop, drives it (DESIGN.md §14).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/trace"
)

// Link is one connection: the remote's overlay identity and the shell's
// number for the connection (0 only in a failed Dial's Down).
type Link struct {
	ID   int32
	Conn uint32
}

// Sent is what became of a frame handed to Transport.Send.
type Sent uint8

const (
	Queued Sent = iota // on the link's send queue
	Shed               // refused by the link's full or shedding queue
	Gone               // no such link: it has closed
)

// Transport is what a core asks of its shell, from inside its inputs. No
// method may block or call into the core.
type Transport interface {
	// Send queues frame, which may be shared and must not be modified.
	Send(to Link, frame []byte) Sent
	// Close ends l once its queued control frames (a Bye) are written.
	Close(l Link)
	// Dial connects to neighbor id: Up on success, Down(Link{ID: id}) not.
	Dial(id int32, addr string)
	// Ask sends member a Neighbor_Traffic request out of band: Reply answers.
	Ask(member protocol.PeerAddr, frame []byte)
}

// Config is the part of a node's configuration the protocol decides
// with; gnet.Config documents each field.
type Config struct {
	NodeID         int32
	CapacityPerMin float64
	Burst          float64
	TTL            byte
	SharedObjects  []string
	Police         *police.Config
	Seed           uint64
	MinuteLength   time.Duration
	Telemetry      *telemetry.Registry
	Journal        *journal.Journal
	Tracer         *trace.Tracer
	Overload       overload.Config
	Reconnect      *ReconnectConfig
}

// ReconnectConfig bounds the reconnect supervisor's retry schedule.
type ReconnectConfig struct {
	// MaxAttempts is the number of re-dials before giving a neighbor up.
	MaxAttempts int
	// BaseDelay is the first backoff step; attempt k waits
	// BaseDelay·2^k plus up to 50% uniform jitter, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// DialTimeout bounds each re-dial attempt (and each transient
	// Neighbor_Traffic dial when set): the shell's.
	DialTimeout time.Duration
}

// Stats is a snapshot of a node's counters.
type Stats struct {
	QueriesReceived  uint64
	QueriesProcessed uint64
	QueriesDropped   uint64 // capacity drops (the Fig 6 numerator)
	QueriesForwarded uint64 // copies a send queue accepted
	DupDropped       uint64
	HitsSent         uint64
	HitsReceived     uint64
	BytesIn          uint64
	BytesOut         uint64 // written by the shell's write pumps; the core leaves it zero
	Disconnects      []Disconnect

	// Overload-plane counters.
	ShedQuery         uint64 // query-class messages shed (send watermark / full queue)
	ShedControl       uint64 // control-class messages shed (last resort)
	QuarantineDropped uint64 // inbound queries throttled by a peer's breaker
	Degraded          bool   // node currently in degraded mode
}

// Disconnect records a DD-POLICE cut performed by this node.
type Disconnect struct {
	Peer    string
	Code    uint16
	Reason  string
	General float64
	Single  float64
}

// Core is one node's protocol state. It is not safe for concurrent use.
type Core struct {
	cfg    Config
	tr     Transport
	src    *rng.Source
	shared map[string]bool
	now    time.Time // of the input being handled
	count  Stats
	tel    instruments

	peers     []neighbor // ascending id
	guidRoute map[protocol.GUID]Link
	seen      map[protocol.GUID]struct{}
	forwarded map[protocol.GUID][]int32 // neighbors each query was forwarded to
	hits      map[protocol.GUID]chan<- protocol.QueryHit

	cut     map[int32]bool    // neighbors this node cut: never re-dialed or re-admitted
	redials map[int32]*redial // lost neighbors being re-dialed

	mon *monitor // nil: DD-POLICE off
	ovl overloadState

	// The deadlines; next, the earliest, may be early but never late.
	lastRefill, refillAt, windowAt, next time.Time
}

type neighbor struct {
	link Link
	addr string // its advertised listen address
}

type redial struct {
	addr    string
	attempt int
	at      time.Time // zero while the dial is in flight
}

// instruments are the core's telemetry; all nil without a registry, and
// recording through nil is a no-op.
type instruments struct {
	sendStalls, shedQuery, shedControl, quarantineDrops *telemetry.Counter
	reconnectAttempts, reconnectOK, reconnectGiveups    *telemetry.Counter
	evalDeferred, evalTimeoutZero, ntRefused            *telemetry.Counter
	quarantinedPeers, degraded, reconnectBackoff        *telemetry.Gauge
	ntLatency                                           *telemetry.Histogram
}

// refillPeriod is how often the processing budget accrues tokens.
const refillPeriod = 100 * time.Millisecond

var errNoNeighbors = errors.New("gnet: no neighbors")

// New returns a node's core. Police fields a live node has no mechanism
// for are refused by name.
func New(cfg Config, tr Transport) (*Core, error) {
	if cfg.CapacityPerMin <= 0 {
		return nil, fmt.Errorf("gnet: capacity %v", cfg.CapacityPerMin)
	}
	if cfg.TTL == 0 {
		cfg.TTL = protocol.DefaultTTL
	}
	if cfg.MinuteLength == 0 {
		cfg.MinuteLength = time.Minute
	}
	c := &Core{
		cfg: cfg, tr: tr, src: rng.New(cfg.Seed),
		shared:    make(map[string]bool),
		guidRoute: make(map[protocol.GUID]Link),
		seen:      make(map[protocol.GUID]struct{}),
		forwarded: make(map[protocol.GUID][]int32),
		hits:      make(map[protocol.GUID]chan<- protocol.QueryHit),
		cut:       make(map[int32]bool),
		redials:   make(map[int32]*redial),
	}
	if err := c.ovl.init(cfg); err != nil {
		return nil, err
	}
	if pc := cfg.Police; pc != nil {
		err := pc.Validate()
		switch {
		case err != nil:
		case pc.Radius != 1:
			err = fmt.Errorf("gnet: Police.Radius = %d: a live node exchanges direct lists only (supported: 1)", pc.Radius)
		case pc.VerifyLists:
			err = errors.New("gnet: Police.VerifyLists: a live node cannot confirm list claims with the claimed peers")
		}
		if err != nil {
			return nil, err
		}
		c.mon = newMonitor(*pc)
	}
	for _, obj := range cfg.SharedObjects {
		c.shared[obj] = true
	}
	reg := cfg.Telemetry
	c.tel = instruments{
		sendStalls:        reg.Counter("gnet.send_queue_stalls"),
		shedQuery:         reg.Counter("gnet.shed_query"),
		shedControl:       reg.Counter("gnet.shed_control"),
		quarantineDrops:   reg.Counter("gnet.quarantine_dropped"),
		reconnectAttempts: reg.Counter("gnet.reconnect_attempts"),
		reconnectOK:       reg.Counter("gnet.reconnect_successes"),
		reconnectGiveups:  reg.Counter("gnet.reconnect_giveups"),
		evalDeferred:      reg.Counter("gnet.evaluations_deferred"),
		evalTimeoutZero:   reg.Counter("gnet.evaluations_timeout_zero"),
		ntRefused:         reg.Counter("gnet.nt_reports_refused"),
		quarantinedPeers:  reg.Gauge("gnet.quarantined_peers"),
		degraded:          reg.Gauge("gnet.degraded"),
		reconnectBackoff:  reg.Gauge("gnet.reconnect_backoff_max_ms"),
		ntLatency:         reg.Histogram("gnet.nt_report_latency_ms"),
	}
	return c, nil
}

// at takes the time of an input; the first starts the refill and window clocks.
func (c *Core) at(now time.Time) {
	if c.lastRefill.IsZero() {
		c.lastRefill, c.refillAt, c.windowAt = now, now.Add(refillPeriod), now.Add(c.cfg.MinuteLength)
	}
	c.now = now
}

// arm makes sure Next is no later than a new deadline t.
func (c *Core) arm(t time.Time) {
	if t.Before(c.next) {
		c.next = t
	}
}

// Next returns the earliest deadline: the shell calls Tick then or earlier.
func (c *Core) Next() time.Time { return c.next }

// Tick runs every deadline that has passed by now, in a fixed order: the
// processing-token refill; the window close (the monitor's minute, then
// the overload plane's window); the verdicts due, by suspect id; the
// re-dials due, by peer id.
func (c *Core) Tick(now time.Time) {
	c.at(now)
	if now.Before(c.next) {
		return
	}
	if !now.Before(c.refillAt) {
		c.ovl.cproc.Tick(now.Sub(c.lastRefill).Seconds())
		c.lastRefill, c.refillAt = now, now.Add(refillPeriod)
	}
	if !now.Before(c.windowAt) {
		c.windowAt = now.Add(c.cfg.MinuteLength)
		if c.mon != nil {
			c.closeMinute()
		}
		c.closeOverloadWindow()
	}
	c.next = c.refillAt
	c.arm(c.windowAt)
	if c.mon != nil {
		for _, id := range sortedIDs(c.mon.pending) {
			if p := c.mon.pending[id]; now.Before(p.due) {
				c.arm(p.due)
			} else {
				c.finishEvaluation(id) // re-arms a deferral itself
			}
		}
	}
	for _, id := range sortedIDs(c.redials) {
		switch r := c.redials[id]; {
		case r.at.IsZero(): // dialing
		case now.Before(r.at):
			c.arm(r.at)
		default:
			c.tryReconnect(id)
		}
	}
}

// sortedIDs returns m's keys ascending: what reaches the wire or the
// journal from a map does so in id order.
func sortedIDs[V any](m map[int32]V) []int32 {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// peer finds neighbor id in peers: its index, or where it would go.
func (c *Core) peer(id int32) (int, bool) {
	return slices.BinarySearchFunc(c.peers, id, func(n neighbor, id int32) int { return cmp.Compare(n.link.ID, id) })
}

// Up reports a neighbor link, its remote listening at addr. A neighbor this
// node cut stays cut; a second link to a neighbor replaces the first.
func (c *Core) Up(now time.Time, l Link, addr string) {
	c.at(now)
	if c.cut[l.ID] {
		c.tr.Close(l)
		return
	}
	if r, ok := c.redials[l.ID]; ok {
		delete(c.redials, l.ID)
		if r.at.IsZero() {
			c.tel.reconnectOK.Inc()
			c.journal(journal.Event{Type: journal.TypeReconnect, Peer: int64(l.ID), Detail: "ok", Value: float64(r.attempt + 1)})
		}
	}
	if i, ok := c.peer(l.ID); ok {
		old := c.peers[i].link
		c.peers[i] = neighbor{l, addr}
		c.tr.Close(old)
		c.forget(old)
	} else {
		c.peers = slices.Insert(c.peers, i, neighbor{l, addr})
	}
	if c.mon != nil {
		c.onNeighborUp(l.ID)
	}
}

// Down reports that link l failed, or with l.Conn 0 that a Dial failed.
func (c *Core) Down(now time.Time, l Link) {
	c.at(now)
	if l.Conn != 0 {
		c.drop(l, dropTransport)
	} else if r, ok := c.redials[l.ID]; ok && r.at.IsZero() {
		c.scheduleReconnect(l.ID, r.addr, r.attempt+1)
	}
}

// Why a neighbor link went away: the provenance the reconnect policy keys
// on, journaled with the drop. Only a transport fault is re-dialed: after
// an orderly Bye the peer chose to leave, and a DD-POLICE cut must stay
// cut or the defense would undo itself.
const (
	dropTransport = "transport" // read/write error, injected reset
	dropOrderly   = "orderly"   // peer sent Bye, or local Disconnect
	dropCut       = "cut"       // DD-POLICE verdict by this node
)

// drop ends link l. A neighbor's current link takes the neighbor with it;
// a stale one, already replaced, is only closed.
func (c *Core) drop(l Link, cause string) {
	if i, ok := c.peer(l.ID); ok && c.peers[i].link == l {
		addr := c.peers[i].addr
		c.peers = slices.Delete(c.peers, i, i+1)
		if c.mon != nil {
			c.onNeighborDown(l.ID)
		}
		c.journal(journal.Event{Type: journal.TypePeerDrop, Peer: int64(l.ID), Detail: cause})
		switch cause {
		case dropCut:
			c.cut[l.ID] = true
		case dropTransport:
			// Nor is a quarantined peer, which the breaker judged a flooder;
			// if it dials back it is admitted, breaker intact.
			if c.cfg.Reconnect != nil && !c.ovl.isQuarantined(l.ID) && c.redials[l.ID] == nil {
				c.scheduleReconnect(l.ID, addr, 0)
			}
		}
		c.forget(l)
	}
	c.tr.Close(l)
}

// forget drops the reverse routes through a link that went away.
func (c *Core) forget(l Link) {
	for guid, route := range c.guidRoute {
		if route == l {
			delete(c.guidRoute, guid)
		}
	}
}

// scheduleReconnect arms a lost neighbor's next re-dial: exponential
// backoff, capped at MaxDelay, plus up to 50% uniform jitter.
func (c *Core) scheduleReconnect(id int32, addr string, attempt int) {
	rc := c.cfg.Reconnect
	if attempt >= rc.MaxAttempts {
		c.tel.reconnectGiveups.Inc()
		c.journal(journal.Event{Type: journal.TypeReconnect, Peer: int64(id), Detail: "giveup", Value: float64(attempt)})
		delete(c.redials, id)
		return
	}
	delay := rc.BaseDelay << attempt
	if delay > rc.MaxDelay || delay <= 0 {
		delay = rc.MaxDelay
	}
	delay += time.Duration(c.src.Float64() * float64(delay) / 2)
	c.tel.reconnectBackoff.SetMax(int64(delay / time.Millisecond))
	c.redials[id] = &redial{addr: addr, attempt: attempt, at: c.now.Add(delay)}
	c.arm(c.now.Add(delay))
}

// tryReconnect re-dials a lost neighbor unless it is back, cut or
// quarantined since.
func (c *Core) tryReconnect(id int32) {
	r := c.redials[id]
	if _, back := c.peer(id); back || c.cut[id] || c.ovl.isQuarantined(id) {
		delete(c.redials, id)
		return
	}
	r.at = time.Time{}
	c.tel.reconnectAttempts.Inc()
	c.journal(journal.Event{Type: journal.TypeReconnect, Peer: int64(id), Detail: "attempt", Value: float64(r.attempt + 1)})
	c.tr.Dial(id, r.addr)
}

// send hands frame to the transport and counts a frame its queue shed,
// by class: a query shed also feeds the degraded-mode detector's window.
func (c *Core) send(to Link, frame []byte) bool {
	switch c.tr.Send(to, frame) {
	case Queued:
		return true
	case Shed:
		if t := frame[16]; t == protocol.TypeQuery || t == protocol.TypeQueryHit {
			c.tel.sendStalls.Inc()
			c.tel.shedQuery.Inc()
			c.count.ShedQuery++
			c.ovl.winShed++
		} else {
			c.shedControl()
		}
	}
	return false
}

// shedControl counts one control-class frame shed: the last resort.
func (c *Core) shedControl() {
	c.tel.sendStalls.Inc()
	c.tel.shedControl.Inc()
	c.count.ShedControl++
}

// stamp is the time on journal records and trace spans: Unix seconds.
func (c *Core) stamp() float64 { return float64(c.now.UnixNano()) / 1e9 }

// journal stamps the node and the time on e and records it.
func (c *Core) journal(e journal.Event) {
	if c.cfg.Journal == nil {
		return
	}
	e.Node, e.T = int64(c.cfg.NodeID), c.stamp()
	c.cfg.Journal.Record(e)
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats {
	st := c.count
	st.Disconnects = slices.Clone(c.count.Disconnects)
	st.Degraded = c.ovl.detector.Degraded()
	return st
}

// Neighbors returns the overlay ids of the current neighbors, ascending.
func (c *Core) Neighbors() []int32 {
	ids := make([]int32, len(c.peers))
	for i, p := range c.peers {
		ids[i] = p.link.ID
	}
	return ids
}

// Disconnect sends neighbor id an orderly Bye and drops the link.
func (c *Core) Disconnect(now time.Time, id int32, code uint16, reason string) error {
	c.at(now)
	i, ok := c.peer(id)
	if !ok {
		return fmt.Errorf("gnet: no neighbor %d", id)
	}
	l := c.peers[i].link
	c.send(l, protocol.Encode(nil, protocol.NewGUID(c.src), 1, 0, protocol.Bye{Code: code, Reason: reason}))
	c.drop(l, dropOrderly)
	return nil
}
