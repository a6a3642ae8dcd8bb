package gnet

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
	"ddpolice/internal/journal"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
)

// journalDetails returns the Detail strings of every event of the given
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

// TestFloodThenResetLeaksNoGoroutines is the goroutine-leak regression
// under overload on real sockets: b floods a until a drops queries, the
// link resets mid-flood with both send queues full, and closing both
// nodes, a's re-dial of b included, returns the process to its baseline
// goroutine count.
func TestFloodThenResetLeaksNoGoroutines(t *testing.T) {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	a := newTestNode(t, "a", 1, func(cfg *Config) { cfg.MinuteLength = 200 * time.Millisecond })
	b := newTestNode(t, "b", 2, nil)
	connect(t, a, b)
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 && len(b.Neighbors()) == 1 }, "connected")

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
		waitFor(t, 10*time.Second, func() bool { return a.Stats().QueriesDropped > 0 }, "a dropping b's queries")
	}()

	// b closed its socket at the reset, so its Bye cannot reach a.
	resetLink(t, b, 1)
	b.Close()
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 0 }, "b dropped")
	a.Close()
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	}, fmt.Sprintf("goroutines back to baseline %d (now %d)", baseline, runtime.NumGoroutine()))
}
