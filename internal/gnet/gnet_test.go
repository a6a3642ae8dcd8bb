package gnet

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
)

func newTestNode(t *testing.T, name string, id int32, mutate func(*Config)) *Node {
	t.Helper()
	cfg := DefaultConfig(name)
	cfg.NodeID = id
	cfg.Seed = uint64(id) + 1
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// connect makes b a's neighbor over TCP.
func connect(t *testing.T, a, b *Node) {
	t.Helper()
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

// runOnLoop executes fn on n's run-loop goroutine, with the time the run
// loop woke at, and waits for it.
func runOnLoop(t *testing.T, n *Node, fn func(now time.Time)) {
	t.Helper()
	if err := n.runOnCtl(func(now time.Time) error { fn(now); return nil }); err != nil {
		t.Fatal(err)
	}
}

// testPolice is the DD-POLICE configuration of the shell tests: a
// 1000-query window is far past every threshold.
func testPolice() *police.Config {
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 50
	pcfg.CutThreshold = 5
	return &pcfg
}

func TestHandshakeAndNeighbors(t *testing.T) {
	a := newTestNode(t, "a", 1, nil)
	b := newTestNode(t, "b", 2, nil)
	connect(t, a, b)
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "a sees b")
	waitFor(t, 2*time.Second, func() bool { return len(b.Neighbors()) == 1 }, "b sees a")
	if got := a.Neighbors()[0]; got != 2 {
		t.Fatalf("a's neighbor id = %d", got)
	}
	if got := b.Neighbors()[0]; got != 1 {
		t.Fatalf("b's neighbor id = %d", got)
	}
}

// badNodeIDs are the Node-ID header lines a handshake must refuse:
// absent, not a number, past int32 — 2^32 used to truncate to 0 — and
// outside the 24 bits a 10.x.y.z address carries: 2^24 used to name
// node 0 in every report and list, and -1 node 2^24-1.
var badNodeIDs = []string{"", "Node-ID: zero\r\n", "Node-ID: 4294967296\r\n", "Node-ID: \r\n",
	"Node-ID: 16777216\r\n", "Node-ID: -1\r\n"}

// badListenAddrs are the Listen-Addr header lines a handshake must
// refuse: absent, not host:port, and no port to dial. "nonsense" used to
// be advertised in neighbor lists as port 0, so out-of-band asks to the
// peer failed and counted as zero.
var badListenAddrs = []string{"", "Listen-Addr: nonsense\r\n", "Listen-Addr: 127.0.0.1:\r\n",
	"Listen-Addr: 127.0.0.1:0\r\n", "Listen-Addr: 127.0.0.1:65536\r\n"}

// badIdentity is one refused handshake: its identity header lines and
// the header the refusal names.
type badIdentity struct{ headers, field string }

// badIdentities pairs every bad line with a good line of the other header.
func badIdentities() []badIdentity {
	var rows []badIdentity
	for _, id := range badNodeIDs {
		rows = append(rows, badIdentity{"Listen-Addr: 127.0.0.1:1\r\n" + id, "Node-ID"})
	}
	for _, addr := range badListenAddrs {
		rows = append(rows, badIdentity{addr + "Node-ID: 7\r\n", "Listen-Addr"})
	}
	return rows
}

// A dialer that omits or garbles Node-ID used to be adopted as node 0,
// and adoptConn closed the real neighbor 0 to make room for it. The
// acceptor must hang up without an OK, count the failure and keep its
// neighbor; so too for an identity the wire cannot carry or an address
// nobody can dial.
func TestAcceptorRejectsBadNodeID(t *testing.T) {
	reg := telemetry.New()
	hub := newTestNode(t, "hub", 5, func(cfg *Config) { cfg.Telemetry = reg })
	zero := newTestNode(t, "zero", 0, nil)
	connect(t, zero, hub)
	waitFor(t, 2*time.Second, func() bool { return len(hub.Neighbors()) == 1 }, "hub sees node 0")
	for i, bad := range badIdentities() {
		conn, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(helloLine + "\r\n" + bad.headers + "\r\n")); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if reply, _ := io.ReadAll(conn); strings.Contains(string(reply), okLine) {
			t.Errorf("hello with %q was answered %q", bad.headers, reply)
		}
		if got := reg.Counter("gnet.handshake_failures").Load(); got != uint64(i+1) {
			t.Errorf("after %q: gnet.handshake_failures = %d, want %d", bad.headers, got, i+1)
		}
	}
	// Every dialer was counted as refused, so none was adopted in node 0's place.
	if got := zero.Neighbors(); len(got) != 1 || got[0] != 5 {
		t.Errorf("node 0 lost the hub to an unidentified dialer: neighbors = %v", got)
	}
}

// The same rule on the dialing side: a responder whose OK carries no
// usable Node-ID or Listen-Addr is not a neighbor.
func TestDialerRejectsBadNodeID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	bads := badIdentities()
	go func() {
		for _, bad := range bads {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			readHandshake(conn)
			conn.Write([]byte(okLine + "\r\n" + bad.headers + "\r\n"))
			conn.Close()
		}
	}()
	reg := telemetry.New()
	a := newTestNode(t, "a", 1, func(cfg *Config) { cfg.Telemetry = reg })
	for i, bad := range bads {
		if err := a.Connect(ln.Addr().String()); err == nil || !strings.Contains(err.Error(), bad.field) {
			t.Errorf("Connect to a responder sending %q: err = %v, want a %s error", bad.headers, err, bad.field)
		}
		if got := reg.Counter("gnet.handshake_failures").Load(); got != uint64(i+1) {
			t.Errorf("after %q: gnet.handshake_failures = %d, want %d", bad.headers, got, i+1)
		}
	}
	if got := a.Neighbors(); len(got) != 0 {
		t.Errorf("adopted an unidentified responder: neighbors = %v", got)
	}
}

// TestRelayIsTheReceivedFrame puts a node between two pipe peers. A
// Query written by one peer must come out of the other, and the QueryHit
// answering it back out of the first, each byte for byte as written
// except TTL one lower and Hops one higher.
func TestRelayIsTheReceivedFrame(t *testing.T) {
	relay := newTestNode(t, "relay", 1, nil)
	asker, askerEnd := net.Pipe()
	answerer, answererEnd := net.Pipe()
	defer askerEnd.Close()
	defer answererEnd.Close()
	relay.adoptConn(asker, "pipe-2", 2, true)
	relay.adoptConn(answerer, "pipe-3", 3, true)
	waitFor(t, 2*time.Second, func() bool { return len(relay.Neighbors()) == 2 }, "pipe peers adopted")
	deadline := time.Now().Add(5 * time.Second)
	askerEnd.SetDeadline(deadline)
	answererEnd.SetDeadline(deadline)
	fromAsker := protocol.NewStreamReader(askerEnd, 0)
	fromAnswerer := protocol.NewStreamReader(answererEnd, 0)

	src := rng.New(7)
	qguid := protocol.NewGUID(src)
	query := protocol.Encode(nil, qguid, 5, 2, protocol.Query{MinSpeed: 0x1234, Keywords: "with a minimum speed"})
	expectRelay(t, "query", askerEnd, query, fromAnswerer)
	hit := protocol.QueryHit{Addr: protocol.AddrFromNodeID(3, 6346), HitCount: 2, QueryGUID: qguid}
	expectRelay(t, "hit", answererEnd, protocol.Encode(nil, protocol.NewGUID(src), 6, 1, hit), fromAsker)
}

// expectRelay writes frame into w and reads the next frame from r: it
// must be frame with TTL one lower and Hops one higher.
func expectRelay(t *testing.T, what string, w net.Conn, frame []byte, r *protocol.StreamReader) {
	t.Helper()
	if _, err := w.Write(frame); err != nil {
		t.Fatalf("%s: write: %v", what, err)
	}
	_, got, err := r.NextFrame()
	if err != nil {
		t.Fatalf("%s: read relayed frame: %v", what, err)
	}
	want := bytes.Clone(frame)
	want[17]--
	want[18]++
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: relayed\n got %x\nwant %x", what, got, want)
	}
}

func TestIssueQueryWithoutNeighbors(t *testing.T) {
	a := newTestNode(t, "a", 1, nil)
	if _, err := a.IssueQuery("x"); err == nil {
		t.Fatal("expected error with no neighbors")
	}
}

func TestNodeConfigValidation(t *testing.T) {
	cfg := DefaultConfig("x")
	cfg.CapacityPerMin = 0
	if _, err := NewNode(cfg); err == nil {
		t.Fatal("zero capacity accepted")
	}
	// A value the live node cannot honour is refused by name, not
	// accepted and ignored or wrapped into another.
	policed := func(set func(*police.Config)) func(*Config) {
		return func(cfg *Config) {
			pcfg := police.DefaultConfig()
			set(&pcfg)
			cfg.Police = &pcfg
		}
	}
	for _, tc := range []struct {
		field string // "": must be accepted
		set   func(*Config)
	}{
		{"", policed(func(*police.Config) {})}, // what ddnode, live_overlay and bench/live.go pass
		{"Q0", policed(func(c *police.Config) { c.Q0 = 0 })},
		{"Radius", policed(func(c *police.Config) { c.Radius = 2 })},
		{"VerifyLists", policed(func(c *police.Config) { c.VerifyLists = true })},
		{"", func(cfg *Config) { cfg.NodeID = protocol.NodeIDs - 1 }},
		{"NodeID", func(cfg *Config) { cfg.NodeID = protocol.NodeIDs }},
		{"NodeID", func(cfg *Config) { cfg.NodeID = -1 }},
		{"", func(cfg *Config) { cfg.ControlReserveFrac = 0.2 }},
		{"ControlReserveFrac", func(cfg *Config) { cfg.ControlReserveFrac = 1 }},
		{"ControlReserveFrac", func(cfg *Config) { cfg.ControlReserveFrac = -0.1 }},
		{"ControlReserveFrac", func(cfg *Config) { cfg.ControlReserveFrac = math.NaN() }},
		{"CapacityPerMin", func(cfg *Config) { cfg.CapacityPerMin = math.NaN() }},
		{"CapacityPerMin", func(cfg *Config) { cfg.CapacityPerMin = -1 }},
		{"MinuteLength", func(cfg *Config) { cfg.MinuteLength = -time.Second }},
		{"", func(cfg *Config) { cfg.FloodSample = 1 }},
		{"FloodSample", func(cfg *Config) { cfg.FloodSample = 1.5 }},
		{"FloodSample", func(cfg *Config) { cfg.FloodSample = -0.1 }},
		{"FloodSample", func(cfg *Config) { cfg.FloodSample = math.NaN() }},
	} {
		cfg := DefaultConfig("x")
		tc.set(&cfg)
		n, err := NewNode(cfg)
		switch {
		case err == nil:
			n.Close()
			if tc.field != "" {
				t.Errorf("%s: unsupported value accepted: %+v", tc.field, cfg)
			}
		case tc.field == "":
			t.Errorf("a supported config refused: %v", err)
		case !strings.Contains(err.Error(), tc.field):
			t.Errorf("%s: error does not name the field: %v", tc.field, err)
		}
	}
}

func TestCleanShutdownUnderTraffic(t *testing.T) {
	a := newTestNode(t, "a", 1, nil)
	b := newTestNode(t, "b", 2, nil)
	connect(t, a, b)
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "connected")
	for i := 0; i < 100; i++ {
		a.SendRawQuery("load")
	}
	// Cleanup (t.Cleanup) closes both nodes; the test passes if nothing
	// deadlocks or panics.
}

// TestDisconnectSendsByeAndDrops: the Bye that Disconnect and a
// DD-POLICE cut queue reaches the peer before the connection closes, so
// the peer journals the drop as orderly — a cut suspect running the
// reconnect supervisor does not take it for a crash and re-dial. The link
// used to close its socket before the write pump drained the control
// queue, and the peer journaled almost every such drop as transport.
func TestDisconnectSendsByeAndDrops(t *testing.T) {
	for i := 0; i < 40; i++ {
		cut := i%2 == 1
		jr := journal.New(64)
		mutate := func(cfg *Config) {
			cfg.Journal = jr
			cfg.Police = testPolice()
			cfg.MinuteLength = time.Hour
		}
		a := newTestNode(t, "a", 1, mutate)
		b := newTestNode(t, "b", 2, mutate)
		connect(t, a, b)
		waitFor(t, 2*time.Second, func() bool { return len(b.Neighbors()) == 1 && len(a.Neighbors()) == 1 }, "connected")
		if cut {
			// a's own 1000-query window judges b, with no one else to ask.
			if err := a.BenchPrimeSuspect(2, []int32{1}, 1000, 5); err != nil {
				t.Fatal(err)
			}
			if _, err := a.BenchNTRound(2, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			if d := a.Stats().Disconnects; len(d) != 1 || d[0].Code != protocol.ByeCodeDDoSSuspect {
				t.Fatalf("iteration %d: cuts %+v, want b cut", i, d)
			}
		} else if err := a.Disconnect(2, 200, "orderly shutdown"); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 0 && len(b.Neighbors()) == 0 }, "both ends dropped the link")
		for _, e := range jr.Events() {
			if e.Node == 2 && e.Type == journal.TypePeerDrop && e.Detail != "orderly" {
				t.Fatalf("iteration %d (cut %v): b journaled the drop as %q, want orderly: the Bye never arrived", i, cut, e.Detail)
			}
		}
		if i == 0 {
			if err := a.Disconnect(99, 200, "x"); err == nil {
				t.Fatal("disconnecting unknown neighbor succeeded")
			}
		}
		a.Close()
		b.Close()
	}
}

// TestCloseSaysBye: a node that shuts down tells its neighbors with a
// Bye before its sockets close, so they journal an orderly drop, not a
// transport fault. That such a drop is never re-dialed is the core's
// TestShutdownIsNeverRedialed.
func TestCloseSaysBye(t *testing.T) {
	jr := journal.New(64)
	a := newTestNode(t, "a", 1, func(cfg *Config) { cfg.Journal = jr })
	b := newTestNode(t, "b", 2, nil)
	connect(t, a, b)
	waitFor(t, 2*time.Second, func() bool { return len(b.Neighbors()) == 1 && len(a.Neighbors()) == 1 }, "connected")
	b.Close()
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 0 }, "a dropped b")
	if got := journalDetails(jr, journal.TypePeerDrop); !slices.Equal(got, []string{"orderly"}) {
		t.Errorf("a's peer_drop records %v, want one orderly drop", got)
	}
}

// TestTelemetryConcurrentTransientDials exercises the gnet telemetry
// hooks from every goroutine that records them — transient dial
// failures, handshake failures, inbox high-water, send stalls — while
// another goroutine snapshots the registry. Run under -race by the CI
// target.
func TestTelemetryConcurrentTransientDials(t *testing.T) {
	reg := telemetry.New()
	mutate := func(cfg *Config) {
		cfg.Police = testPolice()
		cfg.MinuteLength = time.Hour
		cfg.Telemetry = reg
	}
	observer := newTestNode(t, "observer", 1, mutate)
	suspect := newTestNode(t, "suspect", 2, mutate)
	connect(t, observer, suspect)
	waitFor(t, 2*time.Second, func() bool { return len(suspect.Neighbors()) == 1 }, "connected")

	// Members with no port to dial: every evaluation round spawns
	// concurrent transient dials that fail and must count.
	if err := observer.BenchPrimeSuspect(7, []int32{8, 9, 10, 11}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		runOnLoop(t, observer, func(now time.Time) { observer.core.Evaluate(now, 7) })
	}

	// Concurrent wire traffic driving inbox/send counters.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				suspect.SendRawQuery(fmt.Sprintf("load-%d-%d", w, i))
			}
		}(w)
	}
	// A failed outbound handshake must count too.
	if err := observer.Connect("127.0.0.1:1"); err == nil {
		t.Error("connect to a dead port succeeded")
	}
	wg.Wait()

	waitFor(t, 5*time.Second, func() bool {
		snap := reg.Snapshot()
		vals := map[string]uint64{}
		for _, c := range snap.Counters {
			vals[c.Name] = c.Value
		}
		return vals["gnet.transient_dial_errors"] >= rounds*4 &&
			vals["gnet.handshake_failures"] >= 1
	}, "telemetry counters converged")

	if hwm := reg.Gauge("gnet.inbox_high_water").Load(); hwm < 1 {
		t.Errorf("inbox high-water mark = %d, want >= 1 under load", hwm)
	}
}

// TestOutOfBandReportIsSeated runs the out-of-band exchange over TCP. The
// suspect's other neighbor is not the observer's, so the round dials it
// transiently, and its answer, handed to the core as a frame on a link of
// the member's own, is seated.
func TestOutOfBandReportIsSeated(t *testing.T) {
	reg := telemetry.New()
	mutate := func(cfg *Config) {
		cfg.Police = testPolice()
		cfg.MinuteLength = time.Hour
		cfg.Telemetry = reg
	}
	observer := newTestNode(t, "observer", 1, mutate)
	suspect := newTestNode(t, "suspect", 2, mutate)
	member := newTestNode(t, "member", 3, mutate)
	connect(t, observer, suspect)
	connect(t, member, suspect)
	seats := func() (seated, asked int) {
		runOnLoop(t, observer, func(time.Time) {
			var silent int
			seated, silent, _ = observer.core.Seats(2)
			asked = seated + silent
		})
		return seated, asked
	}
	// A round asks the member once the suspect's list naming it arrived.
	waitFor(t, 2*time.Second, func() bool {
		runOnLoop(t, observer, func(now time.Time) { observer.core.Evaluate(now, 2) })
		_, asked := seats()
		return asked == 1
	}, "a round asked the member")
	waitFor(t, 2*time.Second, func() bool { seated, _ := seats(); return seated == 1 }, "the member's report seated")
	if got := reg.Counter("gnet.transient_reports").Load(); got != 1 {
		t.Errorf("gnet.transient_reports = %d, want 1", got)
	}
	if got := reg.Counter("gnet.stray_frames").Load(); got != 0 {
		t.Errorf("gnet.stray_frames = %d, want 0", got)
	}
}
