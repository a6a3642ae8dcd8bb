// Package gnet implements a live Gnutella-lite node over TCP: the
// 0.6-style handshake, binary message framing (internal/protocol), a
// flooding query router with duplicate suppression and reverse-path
// QueryHit routing, a token-bucket processing model (the paper's §2.3
// testbed behaviour), and the DD-POLICE monitoring/defense extension.
//
// Every protocol decision is internal/gnet/core's. A Node is its shell:
// listener, handshakes, send queues and write pumps, read loops, dial and
// out-of-band goroutines, and the run loop that feeds the core.
//
// It reproduces the paper's real-machine experiments: the A -> B -> C
// pipeline behind Figures 5-6 (examples/live_overlay,
// TestFig5PipelineSaturation and the root package's Fig5And6) and the
// DDoS-agent prototype of Figure 4, which replays a query trace.
package gnet

import (
	"cmp"
	"context"
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
	"ddpolice/internal/gnet/core"
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

// closeGrace bounds how long a closing link may take to write its queued
// control frames — the Bye that tells the peer the drop was orderly.
const closeGrace = time.Second

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
	// Telemetry, when non-nil, receives the node's operational counters
	// under the "gnet." prefix; nodes sharing a registry aggregate.
	Telemetry *telemetry.Registry
	// Faults, when non-nil, wraps every post-handshake connection in the
	// fault-injection plane (internal/faults): seeded drop / delay /
	// duplicate / reset by message class plus partitions. Nodes may share
	// a plan so a harness fails from one schedule.
	Faults *faults.Plan
	// Journal, when non-nil, receives the detection lifecycle, overload
	// transitions, peer-drop provenance and reconnect activity, stamped
	// with the run loop's wall time in Unix seconds. Nodes may share one.
	Journal *journal.Journal
	// Tracer, when non-nil, receives per-query hop/outcome spans keyed by
	// the trace ID riding the Query wire extension (protocol.Query.TraceID).
	// Nodes may share one; head sampling is by trace-ID hash, so every node
	// that sees a query agrees on whether it is traced.
	Tracer *trace.Tracer
	// Overload tunes the overload-resilience plane every node runs:
	// class-split send queues and processing budget, quarantine breakers
	// and degraded-mode detection. Zero fields take overload.DefaultConfig's.
	Overload overload.Config
	// Reconnect, when non-nil, re-dials neighbors lost to transport faults
	// with exponential backoff and jitter — never one this node cut or one
	// that said Bye. Nil: a lost neighbor stays lost.
	Reconnect *ReconnectConfig
}

type (
	// ReconnectConfig bounds the reconnect supervisor's retry schedule.
	ReconnectConfig = core.ReconnectConfig
	// Stats is a snapshot of a node's counters.
	Stats = core.Stats
	// Disconnect records a DD-POLICE cut performed by this node.
	Disconnect = core.Disconnect
)

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

// Node is one live overlay peer. Its core and its table of links are
// owned by the run loop goroutine; callers reach them through ctl.
type Node struct {
	cfg      Config
	queues   overload.Config // cfg.Overload with defaults: the send queues' sizes
	ln       net.Listener
	core     *core.Core
	inbox    chan inboundFrame
	inboxCtl chan inboundFrame // control-priority inbox, drained before inbox
	ctl      chan func(now time.Time)
	done     chan struct{}
	closed   chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once

	// ctx is canceled by Close, so in-flight dials abort at once.
	ctx    context.Context
	cancel context.CancelFunc

	// transientSem bounds concurrent out-of-band dials; jitter spaces
	// their retries.
	transientSem chan struct{}
	jitter       *rng.Source

	links    map[uint32]*peerConn // every open connection, by core.Link.Conn
	lastConn uint32               // the last core.Link.Conn handed out
	bytesOut atomic.Uint64        // bytes the write pumps put on the wire
	final    Stats                // the core's counters when the run loop ended

	tel shellTelemetry
}

// shellTelemetry holds the shell's instruments; the core has its own.
type shellTelemetry struct {
	inboxHWM          *telemetry.Gauge   // deepest observed inbox backlog
	handshakeFail     *telemetry.Counter // failed inbound/outbound handshakes
	transientErr      *telemetry.Counter // transient Neighbor_Traffic dials that died
	transientOK       *telemetry.Counter // transient dials that returned a report
	transientRejected *telemetry.Counter // dials refused by the semaphore
	transientRetries  *telemetry.Counter // transient dial retry attempts
}

// inboundFrame is one received frame, validated but not decoded, with its
// header and connection. A nil frame says the read loop ended.
type inboundFrame struct {
	from  *peerConn
	h     protocol.Header
	frame []byte
}

// peerConn is one connection: a neighbor link, or an out-of-band
// Neighbor_Traffic channel a member opened to this node.
type peerConn struct {
	conn net.Conn
	link core.Link
	node *Node

	// The outbound queues by class, which only the run loop sends on and
	// closes; shedder puts watermark hysteresis on the query queue.
	sendCtl chan []byte
	sendQry chan []byte
	shedder overload.Shedder
	closed  bool // by close; run loop only
}

// NewNode starts a node listening on cfg.ListenAddr.
func NewNode(cfg Config) (*Node, error) {
	if cfg.MinuteLength == 0 {
		cfg.MinuteLength = time.Minute
	}
	n := &Node{
		cfg:    cfg,
		queues: cfg.Overload.WithDefaults(),
		// The buffers absorb bursts: a read loop blocks on a full inbox, a
		// poster on a full ctl, until the run loop catches up.
		inbox:        make(chan inboundFrame, 1024),
		inboxCtl:     make(chan inboundFrame, 256),
		ctl:          make(chan func(time.Time), 64),
		done:         make(chan struct{}),
		closed:       make(chan struct{}),
		transientSem: make(chan struct{}, maxTransientDials),
		jitter:       rng.New(rng.SubSeed(cfg.Seed, 1)),
		links:        make(map[uint32]*peerConn),
	}
	var err error
	n.core, err = core.New(core.Config{
		NodeID: cfg.NodeID, CapacityPerMin: cfg.CapacityPerMin, Burst: cfg.Burst,
		TTL: cfg.TTL, SharedObjects: cfg.SharedObjects, Police: cfg.Police,
		Seed: cfg.Seed, MinuteLength: cfg.MinuteLength, Telemetry: cfg.Telemetry,
		Journal: cfg.Journal, Tracer: cfg.Tracer, Overload: cfg.Overload,
		Reconnect: cfg.Reconnect,
	}, transport{n})
	if err != nil {
		return nil, err
	}
	if n.ln, err = net.Listen("tcp", cfg.ListenAddr); err != nil {
		return nil, fmt.Errorf("gnet: listen: %w", err)
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.tel = shellTelemetry{
		inboxHWM:          cfg.Telemetry.Gauge("gnet.inbox_high_water"),
		handshakeFail:     cfg.Telemetry.Counter("gnet.handshake_failures"),
		transientErr:      cfg.Telemetry.Counter("gnet.transient_dial_errors"),
		transientOK:       cfg.Telemetry.Counter("gnet.transient_reports"),
		transientRejected: cfg.Telemetry.Counter("gnet.transient_rejected"),
		transientRetries:  cfg.Telemetry.Counter("gnet.transient_retries"),
	}
	if cfg.Faults != nil && cfg.Telemetry != nil {
		cfg.Faults.AttachTelemetry(cfg.Telemetry)
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

// Connect dials and handshakes with a remote node's listen address,
// establishing a full neighbor relationship.
func (n *Node) Connect(addr string) error {
	conn, id, raddr, err := n.dialPeer(addr, false)
	if err != nil {
		n.tel.handshakeFail.Inc()
		return err
	}
	n.adoptConn(conn, cmp.Or(raddr, addr), id, true)
	return nil
}

// dialTimeout is the per-attempt dial budget: Reconnect's, or 5 seconds.
func (n *Node) dialTimeout() time.Duration {
	if rc := n.cfg.Reconnect; rc != nil && rc.DialTimeout > 0 {
		return rc.DialTimeout
	}
	return 5 * time.Second
}

// dialPeer dials addr, handshakes, and reads the responder's identity;
// the whole exchange aborts when the node closes.
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

// dialHandshake dials addr and performs the initiator handshake. A
// transient connection carries one out-of-band Neighbor_Traffic exchange.
func dialHandshake(ctx context.Context, addr, listenAddr string, nodeID int32, transient bool, timeout time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gnet: dial %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(timeout))
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

// serverHandshake runs the acceptor side: the remote's identity, listen
// address, and whether the connection is transient.
func (n *Node) serverHandshake(conn net.Conn) (int32, string, bool, error) {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
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
		// Counted while this loop holds its own count, so ahead of Close's
		// Wait, and hung up on by Close rather than waited out.
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

// frameClass classes a payload type: Query/QueryHit the flood, lists and
// Neighbor_Traffic the control plane, anything else ClassOther. Fault
// plans match all three; queues and inboxes take all but ClassQuery as
// control.
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

// classifyFrame is frameClass of one outbound frame.
func classifyFrame(frame []byte) faults.Class {
	if len(frame) < protocol.HeaderSize {
		return faults.ClassOther
	}
	return frameClass(frame[16])
}

// adoptConn hands a handshaked connection to the run loop, which numbers
// it, starts its pumps and — unless it is a transient control channel
// (register false) — tells the core the neighbor is up.
func (n *Node) adoptConn(conn net.Conn, addr string, id int32, register bool) {
	select {
	case <-n.done: // a closing node adopts nothing
		conn.Close()
		return
	default:
	}
	pc := &peerConn{
		conn:    faults.Wrap(conn, n.cfg.Faults, n.cfg.NodeID, id, classifyFrame),
		node:    n,
		sendCtl: make(chan []byte, n.queues.ControlQueueDepth),
		sendQry: make(chan []byte, n.queues.QueryQueueDepth),
		shedder: overload.NewShedder(n.queues.QueryQueueDepth, n.queues.HighWatermark, n.queues.LowWatermark),
	}
	if !n.post(func(now time.Time) {
		n.lastConn++
		pc.link = core.Link{ID: id, Conn: n.lastConn}
		n.links[pc.link.Conn] = pc
		n.wg.Add(2) // the run loop holds its own count: this Add precedes Close's Wait
		go pc.readLoop()
		go pc.writeLoop()
		if register {
			n.core.Up(now, pc.link, addr)
		}
	}) {
		conn.Close()
	}
}

// close ends the link (run loop only): the core hears no more of it, the
// write pump flushes the control queue and hangs up its side, and the
// read loop closes the connection when the peer hangs up too.
func (pc *peerConn) close() {
	if pc.closed {
		return
	}
	pc.closed = true
	pc.conn.SetWriteDeadline(time.Now().Add(closeGrace))
	close(pc.sendCtl)
	close(pc.sendQry)
}

// send enqueues wire bytes without blocking (run loop only), so a slow
// neighbor never stalls the node. A control frame is shed only when its
// queue is full; query frames shed from the high watermark until the
// queue drains below the low one — backpressure costs the flood first.
func (pc *peerConn) send(wire []byte) core.Sent {
	if classifyFrame(wire) != faults.ClassQuery {
		select {
		case pc.sendCtl <- wire:
			return core.Queued
		default:
			return core.Shed
		}
	}
	if !pc.shedder.ShouldShed(len(pc.sendQry)) {
		select {
		case pc.sendQry <- wire:
			return core.Queued
		default:
		}
	}
	return core.Shed
}

// writeLoop is the write pump: control frames drain with strict priority.
// Once the queues close it writes the control frames left (a Bye), drops
// the queries, and half-closes where it can: closing outright with input
// unread resets the connection, which can discard the Bye at the peer. A
// write error closes the connection.
func (pc *peerConn) writeLoop() {
	defer pc.node.wg.Done()
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
		pc.node.bytesOut.Add(uint64(len(wire)))
	}
	for {
		var wire []byte
		var open bool
		select {
		case wire, open = <-pc.sendCtl:
		default:
			select {
			case wire, open = <-pc.sendCtl:
			case wire, open = <-pc.sendQry:
			}
		}
		if open {
			write(wire)
			continue
		}
		for wire := range pc.sendCtl { // close shuts sendCtl first, so this ends
			write(wire)
		}
		if cw, ok := pc.conn.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		} else {
			pc.conn.Close()
		}
		pc.conn.SetReadDeadline(time.Now().Add(closeGrace))
		return
	}
}

// readLoop feeds the run loop the connection's frames — control frames
// through the priority inbox — and then a nil frame, behind the link's
// last control frame (a Bye).
func (pc *peerConn) readLoop() {
	n := pc.node
	defer n.wg.Done()
	defer pc.conn.Close()
	sr := protocol.NewStreamReader(pc.conn, 64*1024)
	sr.Skip = true // survive peers speaking newer payload types
	for {
		h, frame, err := sr.NextFrame()
		dest := n.inboxCtl
		if err != nil {
			frame = nil
		} else if frameClass(h.Type) == faults.ClassQuery {
			dest = n.inbox
		}
		select {
		case dest <- inboundFrame{from: pc, h: h, frame: frame}:
			n.tel.inboxHWM.SetMax(int64(len(n.inbox)))
		case <-n.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// transport is the core's Transport; its methods run on the run loop.
type transport struct{ n *Node }

func (t transport) Send(to core.Link, frame []byte) core.Sent {
	if pc := t.n.links[to.Conn]; pc != nil {
		return pc.send(frame)
	}
	return core.Gone
}

func (t transport) Close(l core.Link) {
	if pc := t.n.links[l.Conn]; pc != nil {
		delete(t.n.links, l.Conn)
		pc.close()
	}
}

func (t transport) Dial(id int32, addr string) {
	n := t.n
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		conn, rid, raddr, err := n.dialPeer(addr, false)
		if err != nil {
			n.post(func(now time.Time) { n.core.Down(now, core.Link{ID: id}) })
			return
		}
		n.adoptConn(conn, cmp.Or(raddr, addr), rid, true)
	}()
}

// Ask dials member out of band, within the semaphore; a member refused
// stays missing, which §3.3's timeout-as-zero absorbs.
func (t transport) Ask(member protocol.PeerAddr, frame []byte) {
	n := t.n
	select {
	case n.transientSem <- struct{}{}:
		n.wg.Add(1)
		go n.transientNT(member, frame, n.jitter.Split())
	default:
		n.tel.transientRejected.Inc()
	}
}

// Each out-of-band exchange gets transientMaxAttempts tries, backing off
// transientBaseBackoff·2^k plus up to 100% jitter: well inside the
// half-window verdict deadline, shortened test windows included.
const (
	transientMaxAttempts = 3
	transientBaseBackoff = 25 * time.Millisecond
)

// transientNT holds one transientSem slot for its tries; src is its own.
func (n *Node) transientNT(member protocol.PeerAddr, wire []byte, src *rng.Source) {
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
		if n.transientAttempt(member, wire) {
			return
		}
		n.tel.transientErr.Inc()
	}
}

// transientAttempt is one dial-and-exchange, deadlined to half a window
// (a later reply could not count); it reports whether a reply came back.
func (n *Node) transientAttempt(member protocol.PeerAddr, wire []byte) bool {
	host, _, err := net.SplitHostPort(n.Addr())
	if err != nil {
		return false
	}
	conn, _, _, err := n.dialPeer(net.JoinHostPort(host, strconv.Itoa(int(member.Port))), true)
	if err != nil {
		return false
	}
	defer conn.Close()
	conn = faults.Wrap(conn, n.cfg.Faults, n.cfg.NodeID, member.NodeID(), classifyFrame)
	conn.SetDeadline(time.Now().Add(n.cfg.MinuteLength / 2))
	if _, err := conn.Write(wire); err != nil {
		return false
	}
	msg, err := protocol.NewStreamReader(conn, 4096).Next()
	if err != nil {
		return false
	}
	nt, ok := msg.Body.(protocol.NeighborTraffic)
	if !ok {
		return false
	}
	n.tel.transientOK.Inc()
	n.post(func(now time.Time) { n.core.Reply(now, member.NodeID(), nt) })
	return true
}
