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
// pipeline behind Figures 5-6 (examples/live_overlay over TCP,
// core.TestFig5PipelineSaturation on virtual time, and the root
// package's Fig5And6) and the DDoS-agent prototype of Figure 4, which
// replays a query trace.
package gnet

import (
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
	"ddpolice/internal/gnet/core"
	"ddpolice/internal/overload"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
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

// handshakeTimeout bounds every dial and handshake, either side: a
// neighbor's, a re-dial's and an out-of-band Neighbor_Traffic exchange's.
const handshakeTimeout = 5 * time.Second

// closeGrace bounds how long a closing link may take to write its queued
// control frames — the Bye that tells the peer the drop was orderly.
const closeGrace = time.Second

// Each link's send queues hold queryQueueDepth query frames and
// controlQueueDepth control frames. Control traffic is sparse, so a
// shallow queue of its own keeps its worst-case latency small. Query
// sends shed from highWatermark of the depth until the queue drains to
// lowWatermark; the band keeps them from flapping at the boundary.
const (
	queryQueueDepth   = 256
	controlQueueDepth = 64
	highWatermark     = 0.75
	lowWatermark      = 0.5
)

// Config parameterizes a Node: the protocol's configuration, which
// core.Config documents, and the shell's own.
type Config struct {
	core.Config
	// Name labels the node in logs and errors.
	Name string
	// ListenAddr is the TCP listen address ("127.0.0.1:0" for tests).
	ListenAddr string
}

type (
	// Stats is a snapshot of a node's counters.
	Stats = core.Stats
	// Disconnect records a DD-POLICE cut performed by this node.
	Disconnect = core.Disconnect
)

// DefaultConfig returns a node config matching the paper's testbed.
func DefaultConfig(name string) Config {
	return Config{
		Config: core.Config{
			CapacityPerMin: capacity.TestbedSaturationPerMin,
			Seed:           1,
		},
		Name:       name,
		ListenAddr: "127.0.0.1:0",
	}
}

// Node is one live overlay peer. Its core and its table of links are
// owned by the run loop goroutine; callers reach them through ctl.
type Node struct {
	cfg      Config
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
	n := &Node{
		cfg: cfg,
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
	if n.core, err = core.New(cfg.Config, transport{n}); err != nil {
		return nil, err
	}
	n.cfg.Config = n.core.Config() // with the defaults core.New filled in: MinuteLength bounds transient asks
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
	n.adoptConn(conn, raddr, id, true)
	return nil
}

// dialPeer dials addr, handshakes, and reads the responder's identity;
// the whole exchange aborts when the node closes.
func (n *Node) dialPeer(addr string, transient bool) (conn net.Conn, id int32, raddr string, err error) {
	conn, err = dialHandshake(n.ctx, addr, n.Addr(), n.cfg.NodeID, transient, handshakeTimeout)
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
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	resp, err := readHandshake(conn)
	if err != nil {
		return 0, "", err
	}
	if !strings.HasPrefix(resp, okLine) {
		return 0, "", fmt.Errorf("gnet: handshake rejected: %q", firstLine(resp))
	}
	return parseIdentity(resp)
}

// parseIdentity reads a handshake block's Node-ID and Listen-Addr, and
// refuses a peer whose identity the wire cannot carry or whose address
// nobody can dial. A missing or garbled Node-ID, adopted as node 0, would
// displace the real neighbor 0; one at or past protocol.NodeIDs wraps to
// another node's 10.x.y.z address in every report and list. A
// Listen-Addr is advertised in neighbor lists and dialed for out-of-band
// reports and re-dials, so it must be host:port with a port in 1-65535.
func parseIdentity(block string) (int32, string, error) {
	raw := headerValue(block, "Node-ID")
	id, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || id < 0 || id >= protocol.NodeIDs {
		return 0, "", fmt.Errorf("gnet: handshake Node-ID %q: want an integer in [0, %d)", raw, protocol.NodeIDs)
	}
	addr := headerValue(block, "Listen-Addr")
	_, port, err := net.SplitHostPort(addr)
	if p, perr := strconv.ParseUint(port, 10, 16); err != nil || perr != nil || p == 0 {
		return 0, "", fmt.Errorf("gnet: handshake Listen-Addr %q: want host:port with a port in 1-65535", addr)
	}
	return int32(id), addr, nil
}

// serverHandshake runs the acceptor side: the remote's identity, listen
// address, and whether the connection is transient.
func (n *Node) serverHandshake(conn net.Conn) (int32, string, bool, error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	req, err := readHandshake(conn)
	if err != nil {
		return 0, "", false, err
	}
	if !strings.HasPrefix(req, helloLine) {
		return 0, "", false, fmt.Errorf("gnet: bad hello: %q", firstLine(req))
	}
	id, remote, err := parseIdentity(req)
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
		conn:    conn,
		node:    n,
		sendCtl: make(chan []byte, controlQueueDepth),
		sendQry: make(chan []byte, queryQueueDepth),
		shedder: overload.NewShedder(queryQueueDepth, highWatermark, lowWatermark),
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
	if !protocol.IsQuery(protocol.FrameType(wire)) {
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
		} else if protocol.IsQuery(h.Type) {
			dest = n.inbox
		}
		select {
		case dest <- inboundFrame{from: pc, h: h, frame: frame}:
			n.tel.inboxHWM.SetMax(int64(len(n.inbox)))
		case <-n.done:
			// Read on, discarding, until the peer hangs up or the close
			// grace runs out: closing with input unread resets the
			// connection and can discard the Bye at the peer.
			io.Copy(io.Discard, pc.conn)
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
		n.adoptConn(conn, raddr, rid, true)
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
	conn.SetDeadline(time.Now().Add(n.cfg.MinuteLength / 2))
	if _, err := conn.Write(wire); err != nil {
		return false
	}
	h, frame, err := protocol.NewStreamReader(conn, 4096).NextFrame()
	if err != nil || h.Type != protocol.TypeNeighborTraffic {
		return false
	}
	n.tel.transientOK.Inc()
	n.post(func(now time.Time) {
		n.lastConn++ // the member's out-of-band link: never registered, so nothing is sent on it
		n.core.Frame(now, core.Link{ID: member.NodeID(), Conn: n.lastConn}, h, frame)
	})
	return true
}
