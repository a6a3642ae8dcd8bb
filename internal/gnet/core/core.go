// Package core is a live node's protocol without its sockets: forwarding,
// duplicate suppression, hit routing, the DD-POLICE monitor, the overload
// plane, cut-versus-crash provenance and the reconnect policy. Its inputs
// carry the time — Frame, Tick, Up, Down and the local calls — and
// it acts only through the Transport its shell implements. It starts no
// goroutine, imports no net, os or sync and reads no clock (`make lint`),
// so the same inputs give the same sends and journal on a live node as in
// a test. One goroutine, the shell's run loop, drives it (DESIGN.md §14).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
)

// Link is one connection: the remote's overlay identity and the shell's
// number for the connection (0 only in a failed Dial's Down). A member's
// answer to an Ask arrives on a link of the member's own, which Up never
// reported: it carries Neighbor_Traffic only.
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
	// Dial connects to neighbor id within the shell's fixed dial timeout:
	// Up on success, Down(Link{ID: id}) not.
	Dial(id int32, addr string)
	// Ask sends member a Neighbor_Traffic request out of band: the answer
	// arrives as a Frame on the member's out-of-band link.
	Ask(member protocol.PeerAddr, frame []byte)
}

// Config is what a node's protocol decides with; gnet.Config embeds it.
type Config struct {
	// NodeID is the node's overlay identity, carried in handshakes and
	// encoded as the synthetic 10.x.y.z address in Table 1 messages
	// (the paper identifies peers by IP; we virtualize that for
	// single-host deployments), so it must be below protocol.NodeIDs.
	NodeID int32
	// CapacityPerMin is the query-processing rate (paper: a dedicated
	// peer saturates at ~15,000/min; an in-the-wild peer at ~10,000).
	// The token bucket holds one second of it.
	CapacityPerMin float64
	// ControlReserveFrac of processing capacity is reserved for the
	// control plane (zero means 0.05); queries are admitted against the
	// remainder and can never starve it. The reserve a node needs grows
	// as its capacity shrinks.
	ControlReserveFrac float64
	// SharedObjects is the set of object keywords this node answers.
	SharedObjects []string
	// Police enables the DD-POLICE monitor with the given parameters;
	// nil disables it.
	Police *police.Config
	// Seed drives GUID generation.
	Seed uint64
	// MinuteLength shortens the monitoring window for tests; defaults
	// to one minute.
	MinuteLength time.Duration
	// Telemetry, when non-nil, receives the node's operational counters
	// under the "gnet." prefix; nodes sharing a registry aggregate.
	Telemetry *telemetry.Registry
	// Journal, when non-nil, receives the detection lifecycle, overload
	// transitions, peer-drop provenance and reconnect activity, stamped
	// with the input time in Unix seconds. Nodes may share one.
	Journal *journal.Journal
	// FloodSample is the share of queries, in [0, 1], whose flood this
	// node journals: its query_issue, hop, delivery and congestion_drop
	// records. Zero records none. The decision hashes the query's GUID, so
	// nodes at one rate keep the same queries, and a lower rate keeps a
	// subset of what a higher one keeps.
	FloodSample float64
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
	ShedQuery   uint64 // query-class messages shed (send watermark / full queue)
	ShedControl uint64 // control-class messages shed (last resort)
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

	peers []neighbor // ascending id
	guids guidTable

	cut     map[int32]bool    // neighbors this node cut: never re-dialed or re-admitted
	redials map[int32]*redial // lost neighbors being re-dialed

	mon *monitor // nil: DD-POLICE off
	ovl overloadState

	// floodKeep is FloodSample as a hash threshold: floodRecord keeps a
	// query whose rehashed ID falls below it, and every query at MaxUint64.
	floodKeep uint64

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
	sendStalls, shedQuery, shedControl               *telemetry.Counter
	reconnectAttempts, reconnectOK, reconnectGiveups *telemetry.Counter
	evalDeferred, evalTimeoutZero, ntRefused, stray  *telemetry.Counter
	reconnectBackoff                                 *telemetry.Gauge
	ntLatency                                        *telemetry.Histogram
}

// refillPeriod is how often the processing budget accrues tokens.
const refillPeriod = 100 * time.Millisecond

var errNoNeighbors = errors.New("gnet: no neighbors")

// New returns a node's core. A capacity or window it cannot run on, a
// node id the wire cannot carry, and police fields a live node has no
// mechanism for, are refused by name; the float checks fail NaN too.
func New(cfg Config, tr Transport) (*Core, error) {
	if !(cfg.CapacityPerMin > 0) {
		return nil, fmt.Errorf("gnet: CapacityPerMin = %v (want > 0)", cfg.CapacityPerMin)
	}
	if cfg.MinuteLength < 0 {
		return nil, fmt.Errorf("gnet: MinuteLength = %v (want >= 0; 0 means one minute)", cfg.MinuteLength)
	}
	if cfg.NodeID < 0 || cfg.NodeID >= protocol.NodeIDs {
		return nil, fmt.Errorf("gnet: NodeID %d outside [0, %d): a 10.x.y.z address cannot carry it", cfg.NodeID, protocol.NodeIDs)
	}
	if cfg.ControlReserveFrac == 0 {
		cfg.ControlReserveFrac = 0.05
	}
	if !(cfg.ControlReserveFrac > 0 && cfg.ControlReserveFrac < 1) {
		return nil, fmt.Errorf("gnet: ControlReserveFrac %v outside (0, 1)", cfg.ControlReserveFrac)
	}
	if !(cfg.FloodSample >= 0 && cfg.FloodSample <= 1) {
		return nil, fmt.Errorf("gnet: FloodSample %v outside [0, 1]", cfg.FloodSample)
	}
	if cfg.MinuteLength == 0 {
		cfg.MinuteLength = time.Minute
	}
	c := &Core{
		cfg: cfg, tr: tr, src: rng.New(cfg.Seed),
		shared:  make(map[string]bool),
		guids:   newGUIDTable(),
		cut:     make(map[int32]bool),
		redials: make(map[int32]*redial),
	}
	if cfg.FloodSample == 1 {
		c.floodKeep = math.MaxUint64
	} else {
		c.floodKeep = uint64(cfg.FloodSample * math.MaxUint64)
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
		reconnectAttempts: reg.Counter("gnet.reconnect_attempts"),
		reconnectOK:       reg.Counter("gnet.reconnect_successes"),
		reconnectGiveups:  reg.Counter("gnet.reconnect_giveups"),
		evalDeferred:      reg.Counter("gnet.evaluations_deferred"),
		evalTimeoutZero:   reg.Counter("gnet.evaluations_timeout_zero"),
		ntRefused:         reg.Counter("gnet.nt_reports_refused"),
		stray:             reg.Counter("gnet.stray_frames"),
		reconnectBackoff:  reg.Gauge("gnet.reconnect_backoff_max_ms"),
		ntLatency:         reg.Histogram("gnet.nt_report_latency_ms"),
	}
	return c, nil
}

// Config returns the configuration the core runs with, defaults filled in.
func (c *Core) Config() Config { return c.cfg }

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
// processing-token refill; the window close (the monitor's minute, the
// overload plane's window, then a GUID-table rotation); the verdicts due, by suspect id; the
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
		c.guids.rotate()
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
// on, journaled with the drop. Only a transport fault is re-dialed, by the
// lower id: after a Bye the peer chose to leave, and a DD-POLICE cut must
// stay cut or the defense would undo itself.
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
			// The higher id waits: two re-dials would close each other's link.
			if c.cfg.NodeID < l.ID && c.redials[l.ID] == nil {
				c.scheduleReconnect(l.ID, addr, 0)
			}
		}
	}
	c.tr.Close(l)
}

// The reconnect schedule, one for every node: attempt k waits
// ReconnectBase·2^k, capped at ReconnectMax, plus up to 50% uniform
// jitter; after ReconnectAttempts failed dials the neighbor is given up.
const (
	ReconnectBase     = 50 * time.Millisecond
	ReconnectMax      = 2 * time.Second
	ReconnectAttempts = 6
)

// scheduleReconnect arms a lost neighbor's next re-dial on the schedule.
func (c *Core) scheduleReconnect(id int32, addr string, attempt int) {
	if attempt >= ReconnectAttempts {
		c.tel.reconnectGiveups.Inc()
		c.journal(journal.Event{Type: journal.TypeReconnect, Peer: int64(id), Detail: "giveup", Value: float64(attempt)})
		delete(c.redials, id)
		return
	}
	delay := min(ReconnectBase<<attempt, ReconnectMax)
	delay += time.Duration(c.src.Float64() * float64(delay) / 2)
	c.tel.reconnectBackoff.SetMax(int64(delay / time.Millisecond))
	c.redials[id] = &redial{addr: addr, attempt: attempt, at: c.now.Add(delay)}
	c.arm(c.now.Add(delay))
}

// tryReconnect re-dials a lost neighbor unless it is back or cut since.
func (c *Core) tryReconnect(id int32) {
	r := c.redials[id]
	if _, back := c.peer(id); back || c.cut[id] {
		delete(c.redials, id)
		return
	}
	r.at = time.Time{}
	c.tel.reconnectAttempts.Inc()
	c.journal(journal.Event{Type: journal.TypeReconnect, Peer: int64(id), Detail: "attempt", Value: float64(r.attempt + 1)})
	c.tr.Dial(id, r.addr)
}

// send hands frame to the transport and counts a frame its queue shed,
// by class: a query shed also counts toward the window's shed record.
func (c *Core) send(to Link, frame []byte) bool {
	switch c.tr.Send(to, frame) {
	case Queued:
		return true
	case Shed:
		if protocol.IsQuery(protocol.FrameType(frame)) {
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

// stamp is the time on journal records: Unix seconds.
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

// Shutdown says an orderly Bye to every neighbor and closes its link: the
// node is going away, and a neighbor told so does not re-dial it. The
// core takes no input after it.
func (c *Core) Shutdown(now time.Time) {
	c.at(now)
	for _, p := range c.peers {
		c.bye(p.link, protocol.ByeCodeShutdown, "shutdown")
		c.tr.Close(p.link)
	}
	c.peers = nil
}

// bye queues an orderly Bye on link l.
func (c *Core) bye(l Link, code uint16, reason string) {
	c.send(l, protocol.Encode(nil, protocol.NewGUID(c.src), 1, 0, protocol.Bye{Code: code, Reason: reason}))
}
