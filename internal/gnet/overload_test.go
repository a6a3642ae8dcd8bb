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
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
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
// under-overload case on real sockets: when a quarantined peer's
// transport dies, the node does not even schedule a re-dial (re-dialing a
// flooder reopens the hose), and the whole arrangement leaks no
// goroutine. That no re-dial follows later is the core's
// TestQuarantinedPeerIsNeverRedialed, on virtual time.
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
		waitFor(t, 10*time.Second, func() bool { return a.Stats().QuarantineDropped > 0 }, "b quarantined")
	}()

	// The quarantined peer's transport dies. A non-quarantined peer
	// would be re-dialed (TestReconnectAfterInjectedReset); this one
	// must not be. b has the higher id, so it does not dial back; b
	// closed its socket at the reset, so its Bye cannot reach a. A drop
	// schedules its re-dial at once, so once a has dropped b the gauge
	// would show one.
	resetLink(t, b, 1)
	b.Close()
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 0 }, "b dropped")
	if got := reg.Gauge("gnet.reconnect_backoff_max_ms").Load(); got != 0 {
		t.Errorf("reconnect_backoff_max_ms = %d: a re-dial of a quarantined peer was scheduled", got)
	}
	if got := journalDetails(jr, journal.TypePeerDrop); !slices.Equal(got, []string{"transport"}) {
		t.Errorf("peer_drop records %v, want the one transport drop", got)
	}

	a.Close()
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	}, fmt.Sprintf("goroutines back to baseline %d (now %d)", baseline, runtime.NumGoroutine()))
}
