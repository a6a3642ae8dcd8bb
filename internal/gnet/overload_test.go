package gnet

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
)

func gaugeValue(reg *telemetry.Registry, name string) int64 {
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// journalTypes returns the Detail strings of every event of the given
// type, in order.
func journalDetails(jr *journal.Journal, typ string) []string {
	var out []string
	for _, e := range jr.Events() {
		if e.Type == typ {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestControlFrameJumpsQueryBacklog stalls one peer's link so its query
// queue fills, then enqueues a Neighbor_Traffic frame behind the backlog.
// The frame must reach the wire before every queued query, and each
// query the full queue refused must be counted: in Stats, in
// gnet.shed_query and in the window's shed journal record. The node runs
// its default config.
func TestControlFrameJumpsQueryBacklog(t *testing.T) {
	reg := telemetry.New()
	jr := journal.New(64)
	a := newTestNode(t, "a", 1, func(cfg *Config) {
		cfg.MinuteLength = time.Hour // the window is closed by hand
		cfg.Telemetry = reg
		cfg.Journal = jr
	})
	// A synchronous pipe stands in for the peer: a's write pump blocks in
	// its first Write until the test reads, which stalls the link.
	local, remote := net.Pipe()
	defer remote.Close()
	a.adoptConn(local, "pipe", 2, true)
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "pipe peer adopted")

	const sent = 300 // more than the default 256-frame query queue holds
	for i := 0; i < sent; i++ {
		a.SendRawQuery(fmt.Sprintf("q-%d", i))
	}
	nt := protocol.Encode(nil, protocol.GUID{1}, 1, 0, protocol.NeighborTraffic{Outgoing: 7})
	queued := false
	runOnLoop(t, a, func() { queued = a.peers[2].send(nt) })
	if !queued {
		t.Fatal("NT frame refused behind a query backlog")
	}
	shed := a.Stats().ShedQuery
	if shed == 0 {
		t.Fatalf("%d queries into a stalled link, none counted as shed", sent)
	}

	// Every frame a queued goes on the wire, and only the query already
	// inside the blocked Write may precede the NT frame.
	remote.SetReadDeadline(time.Now().Add(5 * time.Second))
	sr := protocol.NewStreamReader(remote, 64*1024)
	queries, ntAt := 0, -1
	for i := 0; i < sent-int(shed)+1; i++ {
		msg, err := sr.Next()
		if err != nil {
			t.Fatalf("frame %d (%d queries read, NT at %d): %v", i, queries, ntAt, err)
		}
		switch msg.Body.(type) {
		case protocol.Query:
			queries++
		case protocol.NeighborTraffic:
			ntAt = i
		}
	}
	if ntAt < 0 || ntAt > 1 {
		t.Fatalf("NT frame at position %d, want 0 or 1 (behind at most the query in flight)", ntAt)
	}
	if got := counterValue(reg, "gnet.shed_query"); got != shed {
		t.Errorf("gnet.shed_query = %d, Stats().ShedQuery = %d", got, shed)
	}
	runOnLoop(t, a, a.closeOverloadWindow)
	var journaled float64
	for _, e := range jr.Events() {
		if e.Type == journal.TypeShed && e.Detail == "query" {
			journaled += e.Value
		}
	}
	if journaled != float64(shed) {
		t.Errorf("shed journal records %v queries, Stats().ShedQuery = %d", journaled, shed)
	}
}

// TestOverloadBreakerLifecycle hand-drives the full quarantine circuit
// breaker state machine over real TCP: two hot windows trip the
// breaker, the quarantined peer's queries are throttled to the probe
// trickle while the link stays up, the quarantine term elapses into a
// half-open probe, and a quiet probe window restores the peer.
func TestOverloadBreakerLifecycle(t *testing.T) {
	reg := telemetry.New()
	jr := journal.New(256)
	ocfg := overload.DefaultConfig()
	ocfg.TripThreshold = 50
	ocfg.TripWindows = 2
	ocfg.QuarantineWindows = 2
	ocfg.ProbeAdmit = 2
	a := newTestNode(t, "a", 1, func(cfg *Config) {
		cfg.Overload = ocfg
		cfg.MinuteLength = time.Hour // windows rolled by hand
		cfg.Telemetry = reg
		cfg.Journal = jr
	})
	b := newTestNode(t, "b", 2, nil)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "a sees b")
	// b floods below: it must have adopted the link too, or it sends to nobody.
	waitFor(t, 2*time.Second, func() bool { return len(b.Neighbors()) == 1 }, "b sees a")

	// Two consecutive hot windows (> TripThreshold offered) trip the
	// breaker. The breaker is created explicitly: in live traffic
	// admitQuery does this on the first inbound query.
	runOnLoop(t, a, func() {
		a.ovl.breaker(2)
		a.ovl.offered[2] = 100
		a.closeOverloadWindow()
	})
	if q := a.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined after one strike = %v, want none", q)
	}
	runOnLoop(t, a, func() {
		a.ovl.offered[2] = 100
		a.closeOverloadWindow()
	})
	if q := a.Quarantined(); len(q) != 1 || q[0] != 2 {
		t.Fatalf("quarantined = %v, want [2]", q)
	}
	if got := gaugeValue(reg, "gnet.quarantined_peers"); got != 1 {
		t.Fatalf("quarantined_peers gauge = %d, want 1", got)
	}

	// The link is still up — quarantine throttles, it does not cut.
	if len(a.Neighbors()) != 1 {
		t.Fatal("quarantine tore the connection down; it must only throttle")
	}

	// 8 queries from the quarantined peer: ProbeAdmit=2 pass, 6 shed.
	for i := 0; i < 8; i++ {
		b.SendRawQuery(fmt.Sprintf("q-%d", i))
	}
	waitFor(t, 2*time.Second, func() bool {
		return a.Stats().QuarantineDropped == 6
	}, "6 of 8 quarantined queries throttled")

	// Serve the quarantine term (2 windows) -> half-open probe, then a
	// quiet probe window -> restore.
	runOnLoop(t, a, func() { a.closeOverloadWindow() })
	runOnLoop(t, a, func() { a.closeOverloadWindow() })
	if q := a.Quarantined(); len(q) != 1 {
		t.Fatalf("probing peer should still be listed, got %v", q)
	}
	runOnLoop(t, a, func() { a.closeOverloadWindow() })
	if q := a.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined after quiet probe = %v, want none", q)
	}
	if got := gaugeValue(reg, "gnet.quarantined_peers"); got != 0 {
		t.Fatalf("quarantined_peers gauge = %d after restore, want 0", got)
	}

	// Restored peers are admitted freely again.
	before := a.Stats().QuarantineDropped
	seen := a.Stats().QueriesReceived
	b.SendRawQuery("after-restore")
	waitFor(t, 2*time.Second, func() bool { return a.Stats().QueriesReceived > seen }, "query flowed")
	if got := a.Stats().QuarantineDropped; got != before {
		t.Fatalf("QuarantineDropped moved after restore: %d -> %d", before, got)
	}

	// The journal recorded the full transition sequence.
	want := []string{"quarantine", "probe", "restore"}
	got := journalDetails(jr, journal.TypeQuarantine)
	if len(got) != len(want) {
		t.Fatalf("quarantine journal = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quarantine journal = %v, want %v", got, want)
		}
	}
}

// TestChaosOverloadQuarantineNoRedial is the reconnect-supervisor-
// under-overload case: when a quarantined peer's transport dies, the
// supervisor must NOT re-dial it (re-dialing a flooder reopens the
// hose), and the whole arrangement must not leak goroutines.
func TestChaosOverloadQuarantineNoRedial(t *testing.T) {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	reg := telemetry.New()
	ocfg := overload.DefaultConfig()
	ocfg.TripThreshold = 10
	ocfg.TripWindows = 1
	a := NewNodeMust(t, func(cfg *Config) {
		cfg.Overload = ocfg
		cfg.MinuteLength = time.Hour
		cfg.Telemetry = reg
		cfg.Reconnect = fastReconnect()
	})
	b := NewNodeMust(t, func(cfg *Config) { cfg.NodeID = 2; cfg.Seed = 3 })
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "connected")

	// One hot window quarantines b on a.
	runOnLoop(t, a, func() {
		a.ovl.breaker(2)
		a.ovl.offered[2] = 100
		a.closeOverloadWindow()
	})
	if q := a.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantined = %v, want [2]", q)
	}

	// The quarantined peer's transport dies. A non-quarantined peer
	// would be re-dialed (TestReconnectAfterInjectedReset); this one
	// must not be.
	b.Close()
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 0 }, "b dropped")
	time.Sleep(300 * time.Millisecond) // several fastReconnect base delays
	if got := counterValue(reg, "gnet.reconnect_attempts"); got != 0 {
		t.Errorf("reconnect_attempts = %d for a quarantined peer, want 0", got)
	}
	if len(a.Neighbors()) != 0 {
		t.Error("quarantined peer was re-established")
	}

	a.Close()
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	}, fmt.Sprintf("goroutines back to baseline %d (now %d)", baseline, runtime.NumGoroutine()))
}

// NewNodeMust builds a node with explicit Close handled by the caller
// (the goroutine-leak test closes by hand before counting).
func NewNodeMust(t *testing.T, mutate func(*Config)) *Node {
	t.Helper()
	cfg := DefaultConfig("n")
	cfg.NodeID = 1
	cfg.Seed = 2
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

// TestOverloadFloodBoundedCut is the 3x offered-over-capacity
// acceptance test: an 8-node overlay whose nodes process 3000
// queries/min faces an agent flooding ~20000/min. With the overload
// plane on, (a) the control plane keeps >= 95% delivery (the classed
// processor's control drop rate stays under 5%), (b) query traffic is
// visibly shed, and (c) DD-POLICE still cuts the agent within a
// bounded deadline — saturation degrades the data plane, not the
// detection machinery.
func TestOverloadFloodBoundedCut(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(11), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 40
	pcfg.CutThreshold = 5
	ocfg := overload.DefaultConfig()
	// A fifth of capacity reserved for control: 600/min against the
	// handful of control messages per window an 8-node overlay sends.
	ocfg.ControlReserveFrac = 0.2
	const agentIdx = 7
	reg := telemetry.New()
	h, err := NewHarness(g, func(i int, cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = 400 * time.Millisecond
		cfg.CapacityPerMin = 3000 // 50/s; the agent offers ~333/s
		cfg.Overload = ocfg
		cfg.Telemetry = reg
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, 3*time.Second, func() bool {
		for i := 0; i < h.Len(); i++ {
			if len(h.Node(i).Neighbors()) != g.Degree(topology.NodeID(i)) {
				return false
			}
		}
		return true
	}, "overlay connected")

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(3 * time.Millisecond)
		defer tick.Stop()
		i := 0
		for {
			select {
			case <-tick.C:
				h.Node(agentIdx).SendRawQuery(fmt.Sprintf("junk-%d", i))
				i++
			case <-stop:
				return
			}
		}
	}()

	// Bounded time-to-cut: some honest node cuts the agent within 20s
	// (50 windows) despite running saturated the whole time.
	waitFor(t, 20*time.Second, func() bool {
		for i := 0; i < h.Len(); i++ {
			if i == agentIdx {
				continue
			}
			for _, d := range h.Node(i).Stats().Disconnects {
				if d.Code == protocol.ByeCodeDDoSSuspect {
					return true
				}
			}
		}
		return false
	}, "agent cut under 3x overload")

	// Control-plane delivery >= 95% on every honest node, while query
	// traffic was genuinely shed somewhere.
	var queryDrops uint64
	for i := 0; i < h.Len(); i++ {
		if i == agentIdx {
			continue
		}
		n := h.Node(i)
		st := n.Stats()
		queryDrops += st.QueriesDropped + st.ShedQuery + st.QuarantineDropped
		var ctlRate float64
		runOnLoop(t, n, func() { ctlRate = n.ovl.cproc.ControlDropRate() })
		if ctlRate > 0.05 {
			t.Errorf("node %d control drop rate = %.3f, want <= 0.05", i, ctlRate)
		}
	}
	if queryDrops == 0 {
		t.Error("no query traffic shed or dropped under a 3x flood")
	}
	if got := counterValue(reg, "gnet.shed_control"); got > 0 {
		// The control queues and reserve are sized for this overlay;
		// last-resort control sheds mean the reserve failed.
		t.Errorf("gnet.shed_control = %d, want 0", got)
	}
}

// TestOverloadDegradedMode saturates a nearly-zero-capacity node and
// asserts it detects its own degradation (shed fraction over the
// threshold), journals the transition, keeps serving control traffic,
// and recovers once the flood stops.
func TestOverloadDegradedMode(t *testing.T) {
	reg := telemetry.New()
	jr := journal.New(512)
	ocfg := overload.DefaultConfig()
	ocfg.TripThreshold = 1e9 // keep the breaker out of this test
	a := newTestNode(t, "a", 1, func(cfg *Config) {
		cfg.Overload = ocfg
		cfg.CapacityPerMin = 60 // ~1 query/s: any flood saturates it
		cfg.Burst = 2
		cfg.MinuteLength = 300 * time.Millisecond
		cfg.Telemetry = reg
		cfg.Journal = jr
	})
	b := newTestNode(t, "b", 2, nil)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "connected")

	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		i := 0
		for {
			select {
			case <-tick.C:
				b.SendRawQuery(fmt.Sprintf("flood-%d", i))
				i++
			case <-stop:
				return
			}
		}
	}()

	waitFor(t, 10*time.Second, func() bool { return a.Degraded() }, "node entered degraded mode")
	if got := gaugeValue(reg, "gnet.degraded"); got != 1 {
		t.Errorf("gnet.degraded gauge = %d while degraded, want 1", got)
	}
	if counterValue(reg, "gnet.shed_query") == 0 && a.Stats().QueriesDropped == 0 {
		t.Error("degraded with no recorded query sheds or capacity drops")
	}
	// The degraded node still exchanges control traffic on the
	// protected budget: the link to b is alive.
	if len(a.Neighbors()) != 1 {
		t.Error("degraded node lost its neighbor; control plane must stay up")
	}

	close(stop)
	waitFor(t, 10*time.Second, func() bool { return !a.Degraded() }, "node recovered")
	if got := gaugeValue(reg, "gnet.degraded"); got != 0 {
		t.Errorf("gnet.degraded gauge = %d after recovery, want 0", got)
	}

	// Journal holds the enter/exit markers and per-window shed events.
	details := journalDetails(jr, journal.TypeDegraded)
	if len(details) < 2 || details[0] != "enter" || details[len(details)-1] != "exit" {
		t.Errorf("degraded journal = %v, want enter ... exit", details)
	}
	if len(journalDetails(jr, journal.TypeShed)) == 0 {
		t.Error("no shed events journaled for a saturated window")
	}
}
