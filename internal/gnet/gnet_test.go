package gnet

import (
	"bytes"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"ddpolice/internal/capacity"
	"ddpolice/internal/gnet/core"
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

func TestHandshakeAndNeighbors(t *testing.T) {
	a := newTestNode(t, "a", 1, nil)
	b := newTestNode(t, "b", 2, nil)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
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
// absent, not a number, and past int32 — 2^32 used to truncate to 0.
var badNodeIDs = []string{"", "Node-ID: zero\r\n", "Node-ID: 4294967296\r\n", "Node-ID: \r\n"}

// A dialer that omits or garbles Node-ID used to be adopted as node 0,
// and adoptConn closed the real neighbor 0 to make room for it. The
// acceptor must hang up without an OK, count the failure and keep its
// neighbor.
func TestAcceptorRejectsBadNodeID(t *testing.T) {
	reg := telemetry.New()
	hub := newTestNode(t, "hub", 5, func(cfg *Config) { cfg.Telemetry = reg })
	zero := newTestNode(t, "zero", 0, nil)
	if err := zero.Connect(hub.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(hub.Neighbors()) == 1 }, "hub sees node 0")
	for i, header := range badNodeIDs {
		conn, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(helloLine + "\r\nListen-Addr: 127.0.0.1:1\r\n" + header + "\r\n")); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if reply, _ := io.ReadAll(conn); strings.Contains(string(reply), okLine) {
			t.Errorf("hello with %q was answered %q", header, reply)
		}
		if got := counterValue(reg, "gnet.handshake_failures"); got != uint64(i+1) {
			t.Errorf("after %q: gnet.handshake_failures = %d, want %d", header, got, i+1)
		}
	}
	// Every dialer was counted as refused, so none was adopted in node 0's place.
	if got := zero.Neighbors(); len(got) != 1 || got[0] != 5 {
		t.Errorf("node 0 lost the hub to an unidentified dialer: neighbors = %v", got)
	}
}

// The same rule on the dialing side: a responder whose OK carries no
// usable Node-ID is not a neighbor.
func TestDialerRejectsBadNodeID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for _, header := range badNodeIDs {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			readHandshake(conn)
			conn.Write([]byte(okLine + "\r\nListen-Addr: " + ln.Addr().String() + "\r\n" + header + "\r\n"))
			conn.Close()
		}
	}()
	reg := telemetry.New()
	a := newTestNode(t, "a", 1, func(cfg *Config) { cfg.Telemetry = reg })
	for i, header := range badNodeIDs {
		if err := a.Connect(ln.Addr().String()); err == nil || !strings.Contains(err.Error(), "Node-ID") {
			t.Errorf("Connect to a responder sending %q: err = %v, want a Node-ID error", header, err)
		}
		if got := counterValue(reg, "gnet.handshake_failures"); got != uint64(i+1) {
			t.Errorf("after %q: gnet.handshake_failures = %d, want %d", header, got, i+1)
		}
	}
	if got := a.Neighbors(); len(got) != 0 {
		t.Errorf("adopted an unidentified responder: neighbors = %v", got)
	}
}

func TestQueryFloodAndHit(t *testing.T) {
	// a - b - c, with c sharing the object: a's query must traverse two
	// hops and the hit must route back along the reverse path.
	a := newTestNode(t, "a", 1, nil)
	b := newTestNode(t, "b", 2, nil)
	c := newTestNode(t, "c", 3, func(cfg *Config) {
		cfg.SharedObjects = []string{"ubuntu iso"}
	})
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(c.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(b.Neighbors()) == 2 }, "b fully connected")

	hits, err := a.IssueQuery("ubuntu iso")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case hit := <-hits:
		if hit.HitCount != 1 {
			t.Fatalf("hit count = %d", hit.HitCount)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no QueryHit within deadline")
	}
	if got := c.Stats().HitsSent; got != 1 {
		t.Fatalf("c sent %d hits", got)
	}
	if got := b.Stats().QueriesForwarded; got == 0 {
		t.Fatal("b forwarded nothing")
	}
}

// TestAnsweredQueriesAreForgotten: an issued query's waiter leaves the
// node with its first hit, so a long-running node does not keep one
// entry per query it ever asked — and a later hit for it reaches nobody.
func TestAnsweredQueriesAreForgotten(t *testing.T) {
	m := newMesh(t)
	a := m.add(1, nil)
	m.add(2, func(cfg *core.Config) { cfg.SharedObjects = []string{"ubuntu iso"} })
	m.connect(1, 2)
	m.run()

	const answered = 20
	var hit chan protocol.QueryHit
	for i := 0; i < answered; i++ {
		hit = make(chan protocol.QueryHit, 1)
		if err := a.Issue(m.now, "ubuntu iso", hit); err != nil {
			t.Fatal(err)
		}
		m.run()
		select {
		case <-hit:
		default:
			t.Fatalf("query %d: no QueryHit", i)
		}
	}
	// The last answer once more: the node counts it, and has no one to
	// hand it to.
	var last []byte
	for _, e := range m.log {
		if e.from == 2 && e.kind == "send" && e.frame[16] == protocol.TypeQueryHit {
			last = e.frame
		}
	}
	received := a.Stats().HitsReceived
	m.inject(1, 2, slices.Clone(last))
	if got := a.Stats().HitsReceived; got != received+1 {
		t.Fatalf("HitsReceived %d -> %d, want the repeated hit counted", received, got)
	}
	if len(hit) != 0 {
		t.Fatal("an answered query's waiter got a second hit: the node still held it")
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
	for _, q := range []protocol.Query{
		{MinSpeed: 0x1234, Keywords: "legacy with a minimum speed"},
		{Keywords: "traced", TraceID: 0x00DEADBEEFCAFE01},
	} {
		qguid := protocol.NewGUID(src)
		query := protocol.Encode(nil, qguid, 5, 2, q)
		expectRelay(t, "query "+q.Keywords, askerEnd, query, fromAnswerer)
		hit := protocol.QueryHit{Addr: protocol.AddrFromNodeID(3, 6346), HitCount: 2, QueryGUID: qguid}
		expectRelay(t, "hit for "+q.Keywords, answererEnd, protocol.Encode(nil, protocol.NewGUID(src), 6, 1, hit), fromAsker)
	}
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

func TestQueryMissesUnsharedObject(t *testing.T) {
	m := newMesh(t)
	a := m.add(1, nil)
	m.add(2, func(cfg *core.Config) { cfg.SharedObjects = []string{"something else"} })
	m.connect(1, 2)
	m.run()
	hit := make(chan protocol.QueryHit, 1)
	if err := a.Issue(m.now, "ubuntu iso", hit); err != nil {
		t.Fatal(err)
	}
	m.run()
	if len(hit) != 0 || m.cores[2].Stats().HitsSent != 0 {
		t.Fatal("hit for unshared object")
	}
}

func TestIssueQueryWithoutNeighbors(t *testing.T) {
	a := newTestNode(t, "a", 1, nil)
	if _, err := a.IssueQuery("x"); err == nil {
		t.Fatal("expected error with no neighbors")
	}
}

func TestTTLBoundsPropagation(t *testing.T) {
	// Line 1-2-3-4 with TTL 2 from 1: 3 receives (ttl 1) but must not
	// forward to 4.
	m := newMesh(t)
	a := m.add(1, func(cfg *core.Config) { cfg.TTL = 2 })
	m.add(2, nil)
	m.add(3, nil)
	d := m.add(4, func(cfg *core.Config) { cfg.SharedObjects = []string{"prize"} })
	m.connect(1, 2)
	m.connect(2, 3)
	m.connect(3, 4)
	m.run()
	hit := make(chan protocol.QueryHit, 1)
	if err := a.Issue(m.now, "prize", hit); err != nil {
		t.Fatal(err)
	}
	m.run()
	if len(hit) != 0 {
		t.Fatal("hit beyond TTL")
	}
	if got := m.cores[3].Stats().QueriesReceived; got != 1 {
		t.Fatalf("3 received %d queries, want the one at TTL 1", got)
	}
	if got := d.Stats().QueriesReceived; got != 0 {
		t.Fatalf("4 received %d queries despite TTL 2", got)
	}
}

// TestFig5PipelineSaturation reproduces the paper's A -> B -> C testbed
// at reduced rate: when A offers more than B's capacity, B processes at
// capacity and drops the excess (Figures 5 and 6).
func TestFig5PipelineSaturation(t *testing.T) {
	const capPerMin = 1200 // 20/s processing capacity at B
	a := newTestNode(t, "A", 1, nil)
	b := newTestNode(t, "B", 2, func(cfg *Config) {
		cfg.CapacityPerMin = capPerMin
		cfg.Burst = 5
	})
	c := newTestNode(t, "C", 3, nil)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(c.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(b.Neighbors()) == 2 }, "pipeline connected")

	// Offer ~3x B's capacity for two seconds.
	stop := time.After(2 * time.Second)
	ticker := time.NewTicker(time.Second / 60) // 60/s offered vs 20/s capacity
	defer ticker.Stop()
	offered := 0
offerLoop:
	for {
		select {
		case <-ticker.C:
			a.SendRawQuery("bogus query")
			offered++
		case <-stop:
			break offerLoop
		}
	}
	waitFor(t, 3*time.Second, func() bool {
		st := b.Stats()
		return st.QueriesProcessed+st.QueriesDropped >= uint64(offered)
	}, "B accounted for all offered queries")

	st := b.Stats()
	if st.QueriesDropped == 0 {
		t.Fatalf("B dropped nothing at 3x capacity (processed %d of %d)", st.QueriesProcessed, offered)
	}
	dropRate := float64(st.QueriesDropped) / float64(st.QueriesProcessed+st.QueriesDropped)
	if dropRate < 0.4 || dropRate > 0.9 {
		t.Errorf("drop rate = %.2f, want roughly 1 - capacity/offered (~0.67)", dropRate)
	}
	// C receives what B processed and forwarded, not what A offered.
	if got := c.Stats().QueriesReceived; got > st.QueriesProcessed {
		t.Errorf("C received %d, more than B processed (%d)", got, st.QueriesProcessed)
	}
}

// TestLiveDDPoliceDetection: a star of good peers around a hub; an
// attacker node floods bogus queries; the hub's DD-POLICE monitor must
// disconnect it within a few (shortened) minutes.
func TestLiveDDPoliceDetection(t *testing.T) {
	pcfg := police.DefaultConfig()
	pcfg.WarnThreshold = 50 // scaled down with the attack rate
	pcfg.CutThreshold = 5
	pcfg.Q0 = 10
	short := 400 * time.Millisecond
	withPolice := func(cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = short
		cfg.CapacityPerMin = capacity.TestbedSaturationPerMin
	}
	hub := newTestNode(t, "hub", 1, withPolice)
	good1 := newTestNode(t, "good1", 2, withPolice)
	good2 := newTestNode(t, "good2", 3, withPolice)
	// The agent is a stock client with an added flooding thread (§2.3):
	// it participates in the list exchange like everyone else.
	attacker := newTestNode(t, "attacker", 66, withPolice)
	for _, n := range []*Node{good1, good2, attacker} {
		if err := n.Connect(hub.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return len(hub.Neighbors()) == 3 }, "star connected")

	// The attacker floods distinct bogus queries far above q0.
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		i := 0
		for {
			select {
			case <-ticker.C:
				attacker.SendRawQuery("bogus " + time.Now().String())
				i++
			case <-done:
				return
			}
		}
	}()
	defer close(done)

	waitFor(t, 15*time.Second, func() bool {
		for _, d := range hub.Stats().Disconnects {
			if d.Code == 451 {
				return true
			}
		}
		return false
	}, "hub disconnected the attacker")
	// The attacker must be gone from the hub's neighbor set.
	waitFor(t, 2*time.Second, func() bool {
		for _, id := range hub.Neighbors() {
			if id == 66 {
				return false
			}
		}
		return true
	}, "attacker removed")
	// Good peers must still be connected.
	for _, id := range []int32{2, 3} {
		found := false
		for _, got := range hub.Neighbors() {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Errorf("good peer %d was disconnected", id)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	cfg := DefaultConfig("x")
	cfg.CapacityPerMin = 0
	if _, err := NewNode(cfg); err == nil {
		t.Fatal("zero capacity accepted")
	}
	// A police.Config field the live node cannot honour is refused by
	// name, not accepted and ignored.
	for _, tc := range []struct {
		field string // "": must be accepted
		set   func(*police.Config)
	}{
		{"", func(*police.Config) {}}, // what ddnode, live_overlay and bench/live.go pass
		{"Q0", func(c *police.Config) { c.Q0 = 0 }},
		{"Radius", func(c *police.Config) { c.Radius = 2 }},
		{"VerifyLists", func(c *police.Config) { c.VerifyLists = true }},
	} {
		pcfg := police.DefaultConfig()
		tc.set(&pcfg)
		cfg := DefaultConfig("x")
		cfg.Police = &pcfg
		n, err := NewNode(cfg)
		switch {
		case err == nil:
			n.Close()
			if tc.field != "" {
				t.Errorf("%s: unsupported value accepted: %+v", tc.field, pcfg)
			}
		case tc.field == "":
			t.Errorf("police.DefaultConfig() refused: %v", err)
		case !strings.Contains(err.Error(), tc.field):
			t.Errorf("%s: error does not name the field: %v", tc.field, err)
		}
	}
}

func TestCleanShutdownUnderTraffic(t *testing.T) {
	a := newTestNode(t, "a", 1, nil)
	b := newTestNode(t, "b", 2, nil)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
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
		if err := a.Connect(b.Addr()); err != nil {
			t.Fatal(err)
		}
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
