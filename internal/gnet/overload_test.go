package gnet

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
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
// gnet.shed_query and in the shed journal records of the windows that
// close meanwhile. The node runs its default config.
func TestControlFrameJumpsQueryBacklog(t *testing.T) {
	reg := telemetry.New()
	jr := journal.New(256)
	a := newTestNode(t, "a", 1, func(cfg *Config) {
		cfg.MinuteLength = 50 * time.Millisecond
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
	queued := core.Shed
	runOnLoop(t, a, func(time.Time) {
		for _, pc := range a.links {
			queued = pc.send(nt)
		}
	})
	if queued != core.Queued {
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
	journaled := func() (n float64) {
		for _, e := range jr.Events() {
			if e.Type == journal.TypeShed && e.Detail == "query" {
				n += e.Value
			}
		}
		return n
	}
	waitFor(t, 2*time.Second, func() bool { return journaled() == float64(shed) },
		fmt.Sprintf("shed journal records sum to Stats().ShedQuery = %d", shed))
}

// TestOverloadBreakerLifecycle drives the full quarantine circuit
// breaker state machine: two hot windows trip the breaker, the
// quarantined peer's queries are throttled to the probe trickle while
// the link stays up, the quarantine term elapses into a half-open probe,
// and a quiet probe window restores the peer.
func TestOverloadBreakerLifecycle(t *testing.T) {
	reg := telemetry.New()
	jr := journal.New(256)
	ocfg := overload.DefaultConfig()
	ocfg.TripThreshold = 50
	ocfg.TripWindows = 2
	ocfg.QuarantineWindows = 2
	ocfg.ProbeAdmit = 2
	m := newMesh(t)
	a := m.add(1, func(cfg *core.Config) {
		cfg.Overload = ocfg
		cfg.MinuteLength = window
		cfg.Telemetry = reg
		cfg.Journal = jr
	})
	m.connect(1, 2) // 2 is the test's: it floods 1 by injection
	m.run()
	quarantined := func(want int) {
		t.Helper()
		if q := a.Quarantined(); len(q) != want || want == 1 && q[0] != 2 {
			t.Fatalf("quarantined = %v, want %d of [2]", q, want)
		}
		if got := gaugeValue(reg, "gnet.quarantined_peers"); got != int64(want) {
			t.Fatalf("quarantined_peers gauge = %d, want %d", got, want)
		}
	}

	// Two consecutive hot windows (> TripThreshold offered) trip the breaker.
	m.flood(1, 2, 100, 1)
	m.advance(window)
	quarantined(0)
	m.flood(1, 2, 100, 1)
	m.advance(window)
	quarantined(1)
	// The link is still up — quarantine throttles, it does not cut.
	if len(a.Neighbors()) != 1 {
		t.Fatal("quarantine tore the connection down; it must only throttle")
	}

	// 8 queries from the quarantined peer: ProbeAdmit=2 pass, 6 shed.
	m.flood(1, 2, 8, 1)
	if got := a.Stats().QuarantineDropped; got != 6 {
		t.Fatalf("QuarantineDropped = %d, want 6 of 8 throttled", got)
	}

	// Serve the quarantine term (2 windows) -> half-open probe, then a
	// quiet probe window -> restore.
	m.advance(window)
	m.advance(window)
	quarantined(1)
	m.advance(window)
	quarantined(0)

	// Restored peers are admitted freely again.
	before := a.Stats()
	m.flood(1, 2, 1, 1)
	if after := a.Stats(); after.QuarantineDropped != before.QuarantineDropped || after.QueriesProcessed != before.QueriesProcessed+1 {
		t.Fatalf("after restore: %+v -> %+v, want the query processed", before, after)
	}

	// The journal recorded the full transition sequence.
	want := []string{"quarantine", "probe", "restore"}
	if got := journalDetails(jr, journal.TypeQuarantine); !slices.Equal(got, want) {
		t.Fatalf("quarantine journal = %v, want %v", got, want)
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
		cfg.MinuteLength = 100 * time.Millisecond // quarantine lasts QuarantineWindows: 3 of them
		cfg.Telemetry = reg
		cfg.Reconnect = fastReconnect()
	})
	b := NewNodeMust(t, func(cfg *Config) { cfg.NodeID = 2; cfg.Seed = 3 })
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 && len(b.Neighbors()) == 1 }, "connected")

	// One hot window quarantines b on a.
	for i := 0; i < 100; i++ {
		b.SendRawQuery(fmt.Sprintf("q-%d", i))
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.Quarantined()) == 1 }, "b quarantined")

	// The quarantined peer's transport dies. A non-quarantined peer
	// would be re-dialed (TestReconnectAfterInjectedReset); this one
	// must not be.
	b.Close()
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 0 }, "b dropped")
	time.Sleep(200 * time.Millisecond) // ten fastReconnect base delays
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
// plane on, (a) the control plane loses nothing (the classed processor's
// reserve and the control queues shed no frame), (b) query traffic is
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

	// Query traffic was genuinely shed somewhere, and control traffic
	// nowhere: neither by a send queue nor by the processing reserve
	// (gnet.shed_control counts both).
	var queryDrops uint64
	for i := 0; i < h.Len(); i++ {
		if i == agentIdx {
			continue
		}
		st := h.Node(i).Stats()
		queryDrops += st.QueriesDropped + st.ShedQuery + st.QuarantineDropped
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
// threshold), journals the transition, keeps serving control traffic on
// its protected reserve, and recovers once the flood stops.
func TestOverloadDegradedMode(t *testing.T) {
	reg := telemetry.New()
	jr := journal.New(512)
	ocfg := overload.DefaultConfig()
	ocfg.TripThreshold = 1e9 // keep the breaker out of this test
	m := newMesh(t)
	a := m.add(1, func(cfg *core.Config) {
		cfg.Overload = ocfg
		cfg.CapacityPerMin = 60 // ~1 query/s: any flood saturates it
		cfg.Burst = 2
		cfg.MinuteLength = window
		cfg.Telemetry = reg
		cfg.Journal = jr
	})
	m.connect(1, 2)
	m.run()

	m.flood(1, 2, 100, 1)
	m.advance(window)
	if !a.Stats().Degraded {
		t.Fatal("a window that shed 98 of 100 queries left the node healthy")
	}
	if got := gaugeValue(reg, "gnet.degraded"); got != 1 {
		t.Errorf("gnet.degraded gauge = %d while degraded, want 1", got)
	}
	if a.Stats().QueriesDropped == 0 {
		t.Error("degraded with no recorded capacity drops")
	}
	// The degraded node still answers control traffic on the protected
	// reserve.
	since := len(m.log)
	m.inject(1, 2, protocol.Encode(nil, protocol.NewGUID(m.src), 1, 0, protocol.Ping{}))
	if back := m.sent(1, 2, since); len(back) != 1 {
		t.Errorf("a degraded node answered a Ping with %v, want one Pong", back)
	}

	m.advance(window) // the flood has stopped
	if a.Stats().Degraded {
		t.Fatal("node still degraded after a quiet window")
	}
	if got := gaugeValue(reg, "gnet.degraded"); got != 0 {
		t.Errorf("gnet.degraded gauge = %d after recovery, want 0", got)
	}
	if got := journalDetails(jr, journal.TypeDegraded); !slices.Equal(got, []string{"enter", "exit"}) {
		t.Errorf("degraded journal = %v, want enter, exit", got)
	}
	if len(journalDetails(jr, journal.TypeShed)) == 0 {
		t.Error("no shed events journaled for a saturated window")
	}
}
