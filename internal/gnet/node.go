// Package gnet implements a live Gnutella-lite node over TCP: the
// 0.6-style handshake, binary message framing (internal/protocol), a
// flooding query router with duplicate suppression and reverse-path
// QueryHit routing, a token-bucket processing model (the paper's §2.3
// testbed behaviour), and the DD-POLICE monitoring/defense extension.
//
// It reproduces the paper's real-machine experiments: the three-peer
// A -> B -> C pipeline behind Figures 5-6 (see examples/live_overlay and
// the Fig5/Fig6 benches) and the DDoS-agent prototype of Figure 4 (a
// node that replays a query trace at a configured rate).
package gnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ddpolice/internal/capacity"
	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/trace"
)

// handshake strings (Gnutella 0.6 flavor).
const (
	helloLine  = "GNUTELLA CONNECT/0.6"
	okLine     = "GNUTELLA/0.6 200 OK"
	headerTerm = "\r\n\r\n"
)

// maxTransientDials caps concurrent out-of-band Neighbor_Traffic dials
// per node: an evaluation storm (many suspects, large buddy groups)
// used to spawn one unbounded goroutine per member.
const maxTransientDials = 8

// Config parameterizes a Node.
type Config struct {
	// Name labels the node in logs and errors.
	Name string
	// NodeID is the node's overlay identity, carried in handshakes and
	// encoded as the synthetic 10.x.y.z address in Table 1 messages
	// (the paper identifies peers by IP; we virtualize that for
	// single-host deployments).
	NodeID int32
	// ListenAddr is the TCP listen address ("127.0.0.1:0" for tests).
	ListenAddr string
	// CapacityPerMin is the query-processing rate (paper: a dedicated
	// peer saturates at ~15,000/min; an in-the-wild peer at ~10,000).
	CapacityPerMin float64
	// Burst is the token bucket depth; defaults to one second of
	// capacity.
	Burst float64
	// TTL for queries this node issues.
	TTL byte
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
	// Clock supplies the monitor's detection-timing time source (rate
	// limiting, verdict deadlines, report latency, message timestamps);
	// nil means the real clock. Transport deadlines and dial backoff
	// always use the wall clock regardless. Tests inject a fake to
	// drive detection timing deterministically.
	Clock Clock
	// Telemetry, when non-nil, receives the node's operational
	// counters (under the "gnet." prefix): inbox depth high-water
	// mark, send-queue stalls, handshake failures, transient-dial
	// errors. Several nodes may share one registry; their counts
	// aggregate. Nil disables recording at no measurable cost.
	Telemetry *telemetry.Registry
	// Faults, when non-nil, wraps every post-handshake connection in
	// the fault-injection plane (internal/faults): seeded drop / delay
	// / duplicate / reset by message class plus partition sets. Several
	// nodes may share one plan so a whole harness fails from one
	// deterministic schedule. Nil costs one pointer check at adoption
	// time and nothing on the wire paths.
	Faults *faults.Plan
	// Journal, when non-nil, receives the node's detection-lifecycle
	// events (warning_crossed, nt_request/report/defer/timeout,
	// indicator, cut), overload transitions (shed, quarantine,
	// degraded), peer-drop provenance and reconnect-supervisor
	// activity, stamped with Unix seconds on Clock. Several nodes may share
	// one journal; events interleave by arrival. Nil disables recording
	// at a pointer check per site.
	Journal *journal.Journal
	// Tracer, when non-nil, receives causal span traces: per-query
	// hop/outcome spans keyed by the trace ID riding the Query wire
	// extension (see protocol.Query.TraceID). Detections and overload
	// transitions are Journal records, not spans. Several nodes may
	// share one tracer the way they share a Journal. Head sampling is
	// by trace-ID hash, so every node that sees a query agrees on
	// whether it is traced. Nil disables tracing at a pointer check
	// per site.
	Tracer *trace.Tracer
	// Overload tunes the overload-resilience plane every node runs:
	// per-peer send queues split by class (control vs. query) with
	// strict-priority draining and watermark shedding, a class-split
	// processing budget with a protected control reserve, per-peer
	// inbound quarantine circuit breakers, and degraded-mode
	// detection. Zero fields take overload.DefaultConfig's values.
	Overload overload.Config
	// Reconnect, when non-nil, enables the self-healing supervisor:
	// neighbors lost to transport faults (resets, read errors) are
	// re-dialed with exponential backoff + jitter. Neighbors this node
	// cut via DD-POLICE — or dropped after an orderly Bye — are never
	// re-dialed; dropPeer tracks that provenance. Nil keeps the
	// pre-fault behaviour: a lost neighbor stays lost.
	Reconnect *ReconnectConfig
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
	// Neighbor_Traffic dial when set).
	DialTimeout time.Duration
}

// DefaultConfig returns a node config matching the paper's testbed.
func DefaultConfig(name string) Config {
	return Config{
		Name:           name,
		ListenAddr:     "127.0.0.1:0",
		CapacityPerMin: capacity.TestbedSaturationPerMin,
		TTL:            protocol.DefaultTTL,
		Seed:           1,
	}
}

// Stats is a snapshot of a node's counters.
type Stats struct {
	QueriesReceived  uint64
	QueriesProcessed uint64
	QueriesDropped   uint64 // capacity drops (the Fig 6 numerator)
	QueriesForwarded uint64 // copies sent to neighbors
	DupDropped       uint64
	HitsSent         uint64
	HitsReceived     uint64
	BytesIn          uint64
	BytesOut         uint64
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

// Node is one live overlay peer. All state is owned by the run loop
// goroutine; external callers communicate through channels.
type Node struct {
	cfg      Config
	ln       net.Listener
	src      *rng.Source
	shared   map[string]bool
	inbox    chan inboundFrame
	ctl      chan func()
	done     chan struct{}
	closed   chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once

	// ctx is canceled by Close so in-flight dials (reconnects,
	// transient Neighbor_Traffic exchanges) abort instead of holding
	// wg.Wait hostage for a full dial timeout.
	ctx    context.Context
	cancel context.CancelFunc

	// transientSem bounds concurrent transient Neighbor_Traffic dials;
	// evaluations that would exceed it leave the member missing
	// (timeout-as-zero) and count gnet.transient_rejected.
	transientSem chan struct{}

	peers     map[int32]*peerConn // key: remote overlay identity
	guidRoute map[protocol.GUID]*peerConn
	seen      map[protocol.GUID]struct{}
	forwarded map[protocol.GUID][]int32 // neighbors we forwarded each query to
	hits      map[protocol.GUID]chan protocol.QueryHit

	// cutPeers records neighbors this node disconnected via DD-POLICE —
	// the supervisor must never re-dial them, whatever later transport
	// errors their dying connections produce. reconnecting tracks ids
	// with a backoff chain in flight so one loss starts one chain.
	// Both are run-loop-owned.
	cutPeers     map[int32]bool
	reconnecting map[int32]bool

	count       counters
	statsMu     sync.Mutex // guards disconnects
	disconnects []Disconnect

	tel nodeTelemetry

	monitor *monitor

	// ovl is the overload-resilience plane. inboxCtl is its
	// control-priority inbox: the run loop drains it before touching
	// queued query traffic, so NT reports and neighbor lists never wait
	// behind a flood backlog.
	ovl      *overloadState
	inboxCtl chan inboundFrame
}

// counters are the node's Stats counters. Each is one atomic, bumped by
// whichever goroutine sees the event (run loop, read loop, write pump),
// so no per-frame path takes a node-wide lock.
type counters struct {
	QueriesReceived, QueriesProcessed, QueriesDropped, QueriesForwarded atomic.Uint64
	DupDropped, HitsSent, HitsReceived, BytesIn, BytesOut               atomic.Uint64
	ShedQuery, ShedControl, QuarantineDropped                           atomic.Uint64
}

// nodeTelemetry holds the node's resolved telemetry instruments. All
// fields are nil when Config.Telemetry is nil; recording through them
// is then a nil-check no-op, so the hot paths below never branch on
// whether telemetry is enabled.
type nodeTelemetry struct {
	inboxHWM      *telemetry.Gauge   // deepest observed inbox backlog
	sendStalls    *telemetry.Counter // sends dropped on a full peer queue
	handshakeFail *telemetry.Counter // failed inbound/outbound handshakes
	transientErr  *telemetry.Counter // transient Neighbor_Traffic dials that died
	transientOK   *telemetry.Counter // transient dials that returned a report

	transientRejected *telemetry.Counter   // dials refused by the semaphore
	transientRetries  *telemetry.Counter   // transient dial retry attempts
	reconnectAttempts *telemetry.Counter   // supervisor re-dials started
	reconnectOK       *telemetry.Counter   // neighbors re-established
	reconnectGiveups  *telemetry.Counter   // backoff chains exhausted
	reconnectBackoff  *telemetry.Gauge     // longest scheduled backoff, ms
	evalDeferred      *telemetry.Counter   // verdicts deferred for quorum
	evalTimeoutZero   *telemetry.Counter   // verdicts that scored silent members as zero
	ntRefused         *telemetry.Counter   // NT reports refused: forged source, not asked, repeat, or a reply with no round pending
	ntLatency         *telemetry.Histogram // NT request→report round trip, ms

	// Per-class shedding split of the historical send_queue_stalls
	// aggregate (which keeps counting both for continuity).
	shedQuery        *telemetry.Counter // query-class messages shed under overload
	shedControl      *telemetry.Counter // control-class messages shed (last resort)
	quarantineDrops  *telemetry.Counter // inbound queries denied by a peer's breaker
	quarantinedPeers *telemetry.Gauge   // peers with an open breaker right now
	degraded         *telemetry.Gauge   // 1 while the node is in degraded mode
}

// inboundFrame is one received frame, validated by the stream reader
// but not decoded, plus its header and source connection. The handler
// owns the frame's bytes: a relay patches and forwards them as received.
type inboundFrame struct {
	from  *peerConn
	h     protocol.Header
	frame []byte
}

// peerConn is one neighbor link.
type peerConn struct {
	conn     net.Conn
	addr     string // remote advertised listen address (for dialing)
	id       int32  // remote overlay identity
	node     *Node
	closeOne sync.Once

	// The outbound queues, split by class: the write pump drains sendCtl
	// with strict priority, so NT and neighbor-list frames never wait
	// behind a backlog in sendQry. shedder applies watermark hysteresis
	// to the query queue.
	sendCtl chan []byte
	sendQry chan []byte
	shedder overload.Shedder

	// sendMu orders send against close: senders check sendClosed under
	// the mutex before touching the queues or the shedder, so closing the
	// queues can never race a send and the pump needs no recover band-aid.
	sendMu     sync.Mutex
	sendClosed bool
}

// NewNode starts a node listening on cfg.ListenAddr.
func NewNode(cfg Config) (*Node, error) {
	if cfg.CapacityPerMin <= 0 {
		return nil, fmt.Errorf("gnet: capacity %v", cfg.CapacityPerMin)
	}
	if cfg.TTL == 0 {
		cfg.TTL = protocol.DefaultTTL
	}
	if cfg.MinuteLength == 0 {
		cfg.MinuteLength = time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	ovl, err := newOverloadState(cfg.Overload, cfg.CapacityPerMin, cfg.Burst)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("gnet: listen: %w", err)
	}
	n := &Node{
		cfg:          cfg,
		ln:           ln,
		src:          rng.New(cfg.Seed),
		shared:       make(map[string]bool),
		inbox:        make(chan inboundFrame, 1024),
		inboxCtl:     make(chan inboundFrame, 256),
		ovl:          ovl,
		ctl:          make(chan func(), 64),
		done:         make(chan struct{}),
		closed:       make(chan struct{}),
		transientSem: make(chan struct{}, maxTransientDials),
		peers:        make(map[int32]*peerConn),
		guidRoute:    make(map[protocol.GUID]*peerConn),
		seen:         make(map[protocol.GUID]struct{}),
		forwarded:    make(map[protocol.GUID][]int32),
		hits:         make(map[protocol.GUID]chan protocol.QueryHit),
		cutPeers:     make(map[int32]bool),
		reconnecting: make(map[int32]bool),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	for _, obj := range cfg.SharedObjects {
		n.shared[obj] = true
	}
	n.tel = nodeTelemetry{
		inboxHWM:      cfg.Telemetry.Gauge("gnet.inbox_high_water"),
		sendStalls:    cfg.Telemetry.Counter("gnet.send_queue_stalls"),
		handshakeFail: cfg.Telemetry.Counter("gnet.handshake_failures"),
		transientErr:  cfg.Telemetry.Counter("gnet.transient_dial_errors"),
		transientOK:   cfg.Telemetry.Counter("gnet.transient_reports"),

		transientRejected: cfg.Telemetry.Counter("gnet.transient_rejected"),
		transientRetries:  cfg.Telemetry.Counter("gnet.transient_retries"),
		reconnectAttempts: cfg.Telemetry.Counter("gnet.reconnect_attempts"),
		reconnectOK:       cfg.Telemetry.Counter("gnet.reconnect_successes"),
		reconnectGiveups:  cfg.Telemetry.Counter("gnet.reconnect_giveups"),
		reconnectBackoff:  cfg.Telemetry.Gauge("gnet.reconnect_backoff_max_ms"),
		evalDeferred:      cfg.Telemetry.Counter("gnet.evaluations_deferred"),
		evalTimeoutZero:   cfg.Telemetry.Counter("gnet.evaluations_timeout_zero"),
		ntRefused:         cfg.Telemetry.Counter("gnet.nt_reports_refused"),
		ntLatency:         cfg.Telemetry.Histogram("gnet.nt_report_latency_ms"),

		shedQuery:        cfg.Telemetry.Counter("gnet.shed_query"),
		shedControl:      cfg.Telemetry.Counter("gnet.shed_control"),
		quarantineDrops:  cfg.Telemetry.Counter("gnet.quarantine_dropped"),
		quarantinedPeers: cfg.Telemetry.Gauge("gnet.quarantined_peers"),
		degraded:         cfg.Telemetry.Gauge("gnet.degraded"),
	}
	if cfg.Faults != nil && cfg.Telemetry != nil {
		cfg.Faults.AttachTelemetry(cfg.Telemetry)
	}
	if cfg.Police != nil {
		// What the live driver has no mechanism for is refused by name,
		// not accepted and ignored.
		err := cfg.Police.Validate()
		switch pc := cfg.Police; {
		case err != nil:
		case pc.Radius != 1:
			err = fmt.Errorf("gnet: Police.Radius = %d: a live node exchanges direct lists only (supported: 1)", pc.Radius)
		case pc.VerifyLists:
			err = errors.New("gnet: Police.VerifyLists: a live node cannot confirm list claims with the claimed peers")
		}
		if err != nil {
			ln.Close()
			return nil, err
		}
		n.monitor = newMonitor(n, *cfg.Police)
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.runLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Name returns the node's label.
func (n *Node) Name() string { return n.cfg.Name }

// Close shuts the node down and waits for its goroutines. Canceling
// ctx aborts in-flight reconnect and transient dials immediately, so
// Close never waits out a dial timeout.
func (n *Node) Close() {
	n.closeOne.Do(func() {
		close(n.done)
		n.cancel()
		n.ln.Close()
	})
	n.wg.Wait()
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	c := &n.count
	out := Stats{
		QueriesReceived:   c.QueriesReceived.Load(),
		QueriesProcessed:  c.QueriesProcessed.Load(),
		QueriesDropped:    c.QueriesDropped.Load(),
		QueriesForwarded:  c.QueriesForwarded.Load(),
		DupDropped:        c.DupDropped.Load(),
		HitsSent:          c.HitsSent.Load(),
		HitsReceived:      c.HitsReceived.Load(),
		BytesIn:           c.BytesIn.Load(),
		BytesOut:          c.BytesOut.Load(),
		ShedQuery:         c.ShedQuery.Load(),
		ShedControl:       c.ShedControl.Load(),
		QuarantineDropped: c.QuarantineDropped.Load(),
		Degraded:          n.ovl.degraded.Load(),
	}
	n.statsMu.Lock()
	out.Disconnects = append([]Disconnect(nil), n.disconnects...)
	n.statsMu.Unlock()
	return out
}

// ctlCall is the one control-loop round trip: it posts fn to the run loop
// and waits for the answer fn sends on res (buffered, so a run loop that
// reaches fn after the caller gave up does not block on it). It gives up
// when the node closes and, with a positive stall, when either half of
// the trip takes longer than that.
func ctlCall[T any](n *Node, res chan T, stall time.Duration, fn func()) (T, error) {
	var zero T
	after := func() <-chan time.Time {
		if stall <= 0 {
			return nil
		}
		return time.After(stall)
	}
	select {
	case n.ctl <- fn:
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

// Neighbors returns the overlay ids of current neighbors.
func (n *Node) Neighbors() []int32 {
	res := make(chan []int32, 1)
	out, _ := ctlCall(n, res, 0, func() {
		var out []int32
		for id := range n.peers {
			out = append(out, id)
		}
		res <- out
	})
	return out
}

// Connect dials and handshakes with a remote node's listen address,
// establishing a full neighbor relationship.
func (n *Node) Connect(addr string) error {
	conn, id, raddr, err := n.dialPeer(addr, false)
	if err != nil {
		n.tel.handshakeFail.Inc()
		return err
	}
	if raddr == "" {
		raddr = addr
	}
	n.adoptConn(conn, raddr, id, true)
	return nil
}

// dialTimeout is the per-attempt dial budget: Reconnect's if set,
// otherwise the historical 5 seconds.
func (n *Node) dialTimeout() time.Duration {
	if rc := n.cfg.Reconnect; rc != nil && rc.DialTimeout > 0 {
		return rc.DialTimeout
	}
	return 5 * time.Second
}

// dialPeer dials addr, handshakes, and reads the responder's identity.
// The whole exchange aborts when the node closes: the dial goes through
// n.ctx and the identity read's socket is closed by a context hook, so
// goroutines blocked here never outlive Close.
func (n *Node) dialPeer(addr string, transient bool) (conn net.Conn, id int32, raddr string, err error) {
	conn, err = dialHandshake(n.ctx, addr, n.Addr(), n.cfg.NodeID, transient, n.dialTimeout())
	if err != nil {
		return nil, 0, "", err
	}
	stop := context.AfterFunc(n.ctx, func() { conn.Close() })
	id, raddr, err = readPeerIdentity(conn)
	stop()
	if err != nil {
		conn.Close()
		return nil, 0, "", err
	}
	return conn, id, raddr, nil
}

// dialHandshake dials addr and performs the initiator handshake.
// transient connections are used for out-of-band Neighbor_Traffic
// exchanges and are not registered as neighbors on either side.
func dialHandshake(ctx context.Context, addr, listenAddr string, nodeID int32, transient bool, timeout time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gnet: dial %s: %w", addr, err)
	}
	deadline := time.Now().Add(timeout)
	conn.SetDeadline(deadline)
	kind := ""
	if transient {
		kind = "Transient: true\r\n"
	}
	if _, err := fmt.Fprintf(conn, "%s\r\nListen-Addr: %s\r\nNode-ID: %d\r\n%s\r\n",
		helloLine, listenAddr, nodeID, kind); err != nil {
		conn.Close()
		return nil, fmt.Errorf("gnet: handshake write: %w", err)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// readPeerIdentity reads the responder's handshake block.
func readPeerIdentity(conn net.Conn) (int32, string, error) {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetDeadline(time.Time{})
	resp, err := readHandshake(conn)
	if err != nil {
		return 0, "", err
	}
	if !strings.HasPrefix(resp, okLine) {
		return 0, "", fmt.Errorf("gnet: handshake rejected: %q", firstLine(resp))
	}
	id, err := parseNodeID(resp)
	return id, headerValue(resp, "Listen-Addr"), err
}

// parseNodeID reads a handshake block's Node-ID. A peer that omits or garbles
// it is refused: adopted as node 0 it would displace the real neighbor 0.
func parseNodeID(block string) (int32, error) {
	id, err := strconv.ParseInt(headerValue(block, "Node-ID"), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("gnet: handshake Node-ID: %w", err)
	}
	return int32(id), nil
}

// serverHandshake runs the acceptor side; it returns the remote's
// identity, advertised listen address, and whether the connection is a
// transient control channel.
func (n *Node) serverHandshake(conn net.Conn) (int32, string, bool, error) {
	deadline := time.Now().Add(5 * time.Second)
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	req, err := readHandshake(conn)
	if err != nil {
		return 0, "", false, err
	}
	if !strings.HasPrefix(req, helloLine) {
		return 0, "", false, fmt.Errorf("gnet: bad hello: %q", firstLine(req))
	}
	remote := headerValue(req, "Listen-Addr")
	if remote == "" {
		remote = conn.RemoteAddr().String()
	}
	id, err := parseNodeID(req)
	if err != nil {
		return 0, "", false, err
	}
	transient := headerValue(req, "Transient") == "true"
	if _, err := fmt.Fprintf(conn, "%s\r\nListen-Addr: %s\r\nNode-ID: %d%s",
		okLine, n.Addr(), n.cfg.NodeID, headerTerm); err != nil {
		return 0, "", false, fmt.Errorf("gnet: handshake reply: %w", err)
	}
	return id, remote, transient, nil
}

// readHandshake reads until the blank-line terminator.
func readHandshake(conn net.Conn) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 1)
	for sb.Len() < 4096 {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return "", fmt.Errorf("gnet: handshake read: %w", err)
		}
		sb.WriteByte(buf[0])
		if strings.HasSuffix(sb.String(), headerTerm) {
			return sb.String(), nil
		}
	}
	return "", errors.New("gnet: handshake too long")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\r'); i >= 0 {
		return s[:i]
	}
	return s
}

func headerValue(block, key string) string {
	for _, line := range strings.Split(block, "\r\n") {
		if rest, ok := strings.CutPrefix(line, key+": "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
			}
			continue
		}
		// Counted before it starts — this loop still holds its own count,
		// so the Add is ordered ahead of Close's Wait — and hung up on by
		// Close, which must not wait out a stalled dialer's deadline.
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			stop := context.AfterFunc(n.ctx, func() { conn.Close() })
			id, remote, transient, err := n.serverHandshake(conn)
			stop()
			if err != nil {
				n.tel.handshakeFail.Inc()
				conn.Close()
				return
			}
			n.adoptConn(conn, remote, id, !transient)
		}()
	}
}

// frameClass is the node's one query-or-control decision, keyed on the
// Gnutella payload type byte: Query/QueryHit are the flood, neighbor
// lists and Neighbor_Traffic the DD-POLICE control plane, and Ping,
// Pong, Bye and unknown types ClassOther. Fault plans match all three
// classes; the overload plane queues, admits and sheds everything that
// is not ClassQuery as control.
func frameClass(typ byte) faults.Class {
	switch typ {
	case protocol.TypeQuery, protocol.TypeQueryHit:
		return faults.ClassQuery
	case protocol.TypeNeighborList, protocol.TypeNeighborTraffic:
		return faults.ClassControl
	default:
		return faults.ClassOther
	}
}

// classifyFrame is frameClass of one outbound wire frame. Frames shorter
// than a header (handshake text never reaches the wrapped path) fall into
// ClassOther.
func classifyFrame(frame []byte) faults.Class {
	if len(frame) < protocol.HeaderSize {
		return faults.ClassOther
	}
	return frameClass(frame[16])
}

// adoptConn starts a handshaked connection's pumps; register=false
// keeps it off the neighbor table (transient control channel).
func (n *Node) adoptConn(conn net.Conn, addr string, id int32, register bool) {
	// A closing node adopts nothing: a transient connection skips the
	// run-loop gate below, and pumps started now would hold Close until
	// the remote end hangs up.
	select {
	case <-n.done:
		conn.Close()
		return
	default:
	}
	conn = faults.Wrap(conn, n.cfg.Faults, n.cfg.NodeID, id, classifyFrame)
	oc := n.ovl.cfg
	pc := &peerConn{
		conn: conn, addr: addr, id: id, node: n,
		sendCtl: make(chan []byte, oc.ControlQueueDepth),
		sendQry: make(chan []byte, oc.QueryQueueDepth),
		shedder: overload.NewShedder(oc.QueryQueueDepth, oc.HighWatermark, oc.LowWatermark),
	}
	if register {
		select {
		case n.ctl <- func() {
			// A peer this node cut via DD-POLICE stays cut: accepting its
			// re-dial (or our own stale reconnect racing the verdict)
			// would undo the defense one handshake later.
			if n.cutPeers[id] {
				pc.close()
				return
			}
			if old, dup := n.peers[id]; dup {
				old.close()
			}
			n.peers[id] = pc
			if n.monitor != nil {
				n.monitor.onNeighborUp(id)
			}
		}:
		case <-n.closed:
			conn.Close()
			return
		}
	}
	n.wg.Add(2)
	go pc.readLoop()
	go pc.writeLoop()
}

func (pc *peerConn) close() {
	pc.closeOne.Do(func() {
		pc.conn.Close()
		pc.sendMu.Lock()
		pc.sendClosed = true
		close(pc.sendCtl)
		close(pc.sendQry)
		pc.sendMu.Unlock()
	})
}

// shedQuery accounts one shed query-class frame: the per-class counter,
// the historical aggregate, the node stats, and the degraded-mode
// detector's window.
func (n *Node) shedQuery() {
	n.tel.sendStalls.Inc()
	n.tel.shedQuery.Inc()
	n.count.ShedQuery.Add(1)
	n.ovl.winShed.Add(1)
}

// shedControl accounts one shed control-class frame — the last resort.
func (n *Node) shedControl() {
	n.tel.sendStalls.Inc()
	n.tel.shedControl.Inc()
	n.count.ShedControl.Add(1)
}

// send enqueues wire bytes, dropping on backpressure (a slow neighbor
// must not stall the node; this is where a saturated peer's drops show
// up on the sender side). Sends to a closed link report failure instead
// of panicking: the closed flag is checked under the same mutex close()
// holds while closing the queues, so real panics in callers propagate
// rather than being swallowed by a blanket recover.
//
// The path is class-aware: control frames go to the dedicated sendCtl
// queue (shed only when that queue is itself full), query frames shed
// early once the query queue crosses the high watermark and keep
// shedding until it drains below the low one — backpressure costs the
// flood first. Every frame not queued is counted by class.
func (pc *peerConn) send(wire []byte) bool {
	pc.sendMu.Lock()
	defer pc.sendMu.Unlock()
	if pc.sendClosed {
		return false
	}
	if classifyFrame(wire) != faults.ClassQuery {
		select {
		case pc.sendCtl <- wire:
			return true
		default:
			pc.node.shedControl()
			return false
		}
	}
	if !pc.shedder.ShouldShed(len(pc.sendQry)) {
		select {
		case pc.sendQry <- wire:
			return true
		default:
		}
	}
	pc.node.shedQuery()
	return false
}

// writeLoop is the write pump: control frames drain with strict
// priority — a queued NT report goes on the wire before any backlog of
// query forwards. After a write error both queues keep draining until
// close, so senders never block on a dead link.
func (pc *peerConn) writeLoop() {
	defer pc.node.wg.Done()
	ctl, qry := pc.sendCtl, pc.sendQry
	failed := false
	write := func(wire []byte) {
		if failed {
			return
		}
		if _, err := pc.conn.Write(wire); err != nil {
			pc.conn.Close()
			failed = true
			return
		}
		pc.node.count.BytesOut.Add(uint64(len(wire)))
	}
	for ctl != nil || qry != nil {
		// The pump is ctl's only receiver, so a non-empty ctl never blocks.
		if len(ctl) > 0 {
			write(<-ctl)
			continue
		}
		select {
		case wire, ok := <-ctl:
			if !ok {
				ctl = nil
				continue
			}
			write(wire)
		case wire, ok := <-qry:
			if !ok {
				qry = nil
				continue
			}
			write(wire)
		}
	}
}

func (pc *peerConn) readLoop() {
	n := pc.node
	defer n.wg.Done()
	defer func() {
		// Close the link here, not only in dropPeer: the run loop may
		// already be gone (node closing), and the write pump's drain
		// blocks until the send queues close. dropPeer still runs for the
		// bookkeeping (neighbor table, monitor, reconnect provenance).
		pc.close()
		select {
		case n.ctl <- func() { n.dropPeer(pc, dropTransport) }:
		case <-n.closed:
		}
	}()
	sr := protocol.NewStreamReader(pc.conn, 64*1024)
	sr.Skip = true // survive peers speaking newer payload types
	for {
		h, frame, err := sr.NextFrame()
		if err != nil {
			return
		}
		n.count.BytesIn.Add(uint64(len(frame)))
		// Control messages bypass the query backlog through the priority
		// inbox, so a flooded node still sees NT reports and neighbor
		// lists promptly.
		dest := n.inboxCtl
		if frameClass(h.Type) == faults.ClassQuery {
			dest = n.inbox
		}
		select {
		case dest <- inboundFrame{from: pc, h: h, frame: frame}:
			n.tel.inboxHWM.SetMax(int64(len(n.inbox)))
		case <-n.done:
			return
		}
	}
}

// dropCause records why a neighbor link went away — the provenance the
// reconnect supervisor keys on. Only transport faults qualify for
// re-dialing: an orderly Bye means the peer chose to leave, and a
// DD-POLICE cut must stay cut or the defense would undo itself.
type dropCause uint8

const (
	dropTransport dropCause = iota // read/write error, injected reset
	dropOrderly                    // peer sent Bye, or local Disconnect
	dropCut                        // DD-POLICE verdict by this node
)

// String names the cause for journal provenance and logs.
func (c dropCause) String() string {
	switch c {
	case dropOrderly:
		return "orderly"
	case dropCut:
		return "cut"
	default:
		return "transport"
	}
}

// stamp is the node's time on journal records and trace spans: Unix seconds on Clock.
func (n *Node) stamp() float64 { return float64(n.cfg.Clock.Now().UnixNano()) / 1e9 }

// traceSpan stamps the node identity and time on s and records it as a
// standalone span of trace id; a nil-check no-op when the node has no
// tracer. A query's spans come from many nodes, which cannot coordinate
// span ordinals, so they carry no parent links: the trace ID groups them
// and timestamps order them.
func (n *Node) traceSpan(id uint64, s trace.Span) {
	if n.cfg.Tracer == nil || id == 0 {
		return
	}
	s.Node, s.T = int64(n.cfg.NodeID), n.stamp()
	n.cfg.Tracer.Record(id, s)
}

// guidTraceID derives the deterministic trace ID of a locally issued
// query from its GUID (itself drawn from the node's seeded source).
func guidTraceID(g protocol.GUID) uint64 {
	return binary.LittleEndian.Uint64(g[0:8])
}

// journalEvent stamps the node identity and time on e and records it
// into the configured journal; a nil-check no-op when the node has no
// journal.
func (n *Node) journalEvent(e journal.Event) {
	if n.cfg.Journal == nil {
		return
	}
	e.Node, e.T = int64(n.cfg.NodeID), n.stamp()
	n.cfg.Journal.Record(e)
}

// dropPeer removes a neighbor (run-loop goroutine only). The cause
// decides what happens next: dropCut marks the id permanently
// unredialable; dropTransport starts a reconnect chain when the
// supervisor is enabled. A stale pc (already replaced by a newer
// connection to the same id) only closes itself — in particular, the
// transport error a dying cut connection produces moments after the cut
// does not resurrect the neighbor.
func (n *Node) dropPeer(pc *peerConn, cause dropCause) {
	if cur, ok := n.peers[pc.id]; ok && cur == pc {
		delete(n.peers, pc.id)
		if n.monitor != nil {
			n.monitor.onNeighborDown(pc.id)
		}
		n.journalEvent(journal.Event{
			Type: journal.TypePeerDrop, Peer: int64(pc.id), Detail: cause.String(),
		})
		switch cause {
		case dropCut:
			n.cutPeers[pc.id] = true
		case dropTransport:
			// A quarantined peer that loses its link is not re-dialed:
			// the breaker judged it a flooder, and proactively restoring
			// its connection would hand it a fresh queue to fill. If it
			// dials back, the acceptor still admits it (control keeps
			// flowing) with the breaker — and its throttle — intact.
			if n.ovl.isQuarantined(pc.id) {
				break
			}
			if n.cfg.Reconnect != nil && !n.cutPeers[pc.id] && !n.reconnecting[pc.id] {
				n.scheduleReconnect(pc.id, pc.addr, 0)
			}
		}
	}
	pc.close()
	for guid, route := range n.guidRoute {
		if route == pc {
			delete(n.guidRoute, guid)
		}
	}
}

// scheduleReconnect arms the next re-dial of a lost neighbor (run-loop
// goroutine only): exponential backoff with up to 50% uniform jitter,
// capped at MaxDelay.
func (n *Node) scheduleReconnect(id int32, addr string, attempt int) {
	rc := n.cfg.Reconnect
	if attempt >= rc.MaxAttempts {
		n.tel.reconnectGiveups.Inc()
		n.journalEvent(journal.Event{
			Type: journal.TypeReconnect, Peer: int64(id),
			Detail: "giveup", Value: float64(attempt),
		})
		delete(n.reconnecting, id)
		return
	}
	n.reconnecting[id] = true
	delay := rc.BaseDelay << attempt
	if delay > rc.MaxDelay || delay <= 0 {
		delay = rc.MaxDelay
	}
	delay += time.Duration(n.src.Float64() * float64(delay) / 2)
	n.tel.reconnectBackoff.SetMax(int64(delay / time.Millisecond))
	time.AfterFunc(delay, func() {
		select {
		case n.ctl <- func() { n.tryReconnect(id, addr, attempt) }:
		case <-n.closed:
		}
	})
}

// tryReconnect runs one supervised re-dial (run-loop goroutine only).
// The dial itself happens on a tracked goroutine so the loop never
// blocks; success re-registers through the normal adoptConn path.
func (n *Node) tryReconnect(id int32, addr string, attempt int) {
	if _, have := n.peers[id]; have || n.cutPeers[id] {
		delete(n.reconnecting, id)
		return
	}
	// A backoff chain that was already in flight when the peer got
	// quarantined stops here rather than re-dialing a judged flooder.
	if n.ovl.isQuarantined(id) {
		delete(n.reconnecting, id)
		return
	}
	select {
	case <-n.done:
		return
	default:
	}
	n.tel.reconnectAttempts.Inc()
	n.journalEvent(journal.Event{
		Type: journal.TypeReconnect, Peer: int64(id),
		Detail: "attempt", Value: float64(attempt + 1),
	})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		conn, rid, raddr, err := n.dialPeer(addr, false)
		if err != nil {
			select {
			case n.ctl <- func() { n.scheduleReconnect(id, addr, attempt+1) }:
			case <-n.closed:
			}
			return
		}
		if raddr == "" {
			raddr = addr
		}
		n.adoptConn(conn, raddr, rid, true)
		n.tel.reconnectOK.Inc()
		n.journalEvent(journal.Event{
			Type: journal.TypeReconnect, Peer: int64(id),
			Detail: "ok", Value: float64(attempt + 1),
		})
		select {
		case n.ctl <- func() { delete(n.reconnecting, id) }:
		case <-n.closed:
		}
	}()
}
