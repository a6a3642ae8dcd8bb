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
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
)

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
	if got := reg.Counter("gnet.shed_query").Load(); got != shed {
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

// TestChaosOverloadQuarantineNoRedial is the reconnect-supervisor-
// under-overload case: when a quarantined peer's transport dies, the
// supervisor must NOT re-dial it, nor even schedule a re-dial
// (re-dialing a flooder reopens the hose), and the whole arrangement
// must not leak goroutines.
func TestChaosOverloadQuarantineNoRedial(t *testing.T) {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	reg := telemetry.New()
	jr := journal.New(1024)
	a := newTestNode(t, "a", 1, func(cfg *Config) {
		cfg.MinuteLength = 200 * time.Millisecond // quarantine lasts QuarantineWindows: 3 of them
		cfg.Telemetry = reg
		cfg.Journal = jr
	})
	b := newTestNode(t, "b", 2, nil)
	connect(t, a, b)
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 && len(b.Neighbors()) == 1 }, "connected")

	// b floods a until TripWindows hot windows in a row quarantine it.
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				b.SendRawQuery(fmt.Sprintf("q-%d", i))
			}
		}
	}()
	func() {
		defer func() { close(stop); <-flooded }() // on a failed wait too
		waitFor(t, 10*time.Second, func() bool { return len(a.Quarantined()) == 1 }, "b quarantined")
	}()

	// The quarantined peer's transport dies. A non-quarantined peer
	// would be re-dialed (TestReconnectAfterInjectedReset); this one
	// must not be. b has the higher id, so it does not dial back; b
	// closed its socket at the reset, so its Bye cannot reach a.
	resetLink(t, b, 1)
	b.Close()
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 0 }, "b dropped")
	time.Sleep(10 * core.ReconnectBase)
	if got := reg.Counter("gnet.reconnect_attempts").Load(); got != 0 {
		t.Errorf("reconnect_attempts = %d for a quarantined peer, want 0", got)
	}
	if got := reg.Gauge("gnet.reconnect_backoff_max_ms").Load(); got != 0 {
		t.Errorf("reconnect_backoff_max_ms = %d: a re-dial of a quarantined peer was scheduled", got)
	}
	if got := journalDetails(jr, journal.TypePeerDrop); !slices.Equal(got, []string{"transport"}) {
		t.Errorf("peer_drop records %v, want the one transport drop", got)
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
	const agentIdx = 7
	reg := telemetry.New()
	h, err := NewHarness(g, func(i int, cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = 400 * time.Millisecond
		cfg.CapacityPerMin = 3000 // 50/s; the agent offers ~333/s
		// A fifth of capacity reserved for control: 600/min against the
		// handful of control messages per window an 8-node overlay sends.
		cfg.ControlReserveFrac = 0.2
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
	if got := reg.Counter("gnet.shed_control").Load(); got > 0 {
		// The control queues and reserve are sized for this overlay;
		// last-resort control sheds mean the reserve failed.
		t.Errorf("gnet.shed_control = %d, want 0", got)
	}
}
