package gnet

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
	"ddpolice/internal/police"
	"ddpolice/internal/telemetry"
)

// resetLink closes n's socket to neighbor peer from the run loop, with no
// Bye: a transport fault at both ends. It waits for n to drop the link.
func resetLink(t *testing.T, n *Node, peer int32) {
	t.Helper()
	var pc *peerConn
	runOnLoop(t, n, func(time.Time) {
		for _, l := range n.links {
			if l.link.ID == peer {
				pc = l
			}
		}
		if pc != nil {
			pc.conn.Close()
		}
	})
	if pc == nil {
		t.Fatalf("%s has no link to %d", n.Name(), peer)
	}
	waitFor(t, 2*time.Second, func() bool {
		dropped := false
		runOnLoop(t, n, func(time.Time) { dropped = pc.closed })
		return dropped
	}, "the reset link dropped")
}

// TestReconnectAfterInjectedReset is the acceptance test for the
// self-healing half of the supervisor: a neighbor lost to a reset socket
// (a transport fault) must be re-dialed with backoff and re-established.
func TestReconnectAfterInjectedReset(t *testing.T) {
	reg := telemetry.New()
	a := newTestNode(t, "a", 1, func(cfg *Config) { cfg.Telemetry = reg })
	b := newTestNode(t, "b", 2, nil)
	connect(t, a, b)
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "a sees b")
	resetLink(t, a, 2)

	waitFor(t, 5*time.Second, func() bool {
		ns := a.Neighbors()
		return len(ns) == 1 && ns[0] == 2
	}, "supervisor re-established the neighbor")
	if got := reg.Counter("gnet.reconnect_attempts").Load(); got < 1 {
		t.Errorf("reconnect_attempts = %d, want >= 1", got)
	}
	if got := reg.Counter("gnet.reconnect_successes").Load(); got < 1 {
		t.Errorf("reconnect_successes = %d, want >= 1", got)
	}
	// Backoff must have been observable in telemetry.
	if backoff := reg.Gauge("gnet.reconnect_backoff_max_ms").Load(); backoff < int64(core.ReconnectBase/time.Millisecond) {
		t.Errorf("reconnect_backoff_max_ms = %d, want >= base delay", backoff)
	}
}

// TestCloseDuringReconnectLeaksNoGoroutines is the goroutine-leak
// regression: Close during an in-flight evaluation (transient dials
// retrying dead members) plus a pending reconnect chain must return the
// process to its baseline goroutine count.
func TestCloseDuringReconnectLeaksNoGoroutines(t *testing.T) {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 50
	reg := telemetry.New()
	a := newTestNode(t, "a", 1, func(cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour
		cfg.Telemetry = reg
	})
	b := newTestNode(t, "b", 2, func(cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour
	})
	connect(t, a, b)
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 && len(b.Neighbors()) == 1 }, "connected")

	// In-flight evaluation: four dead members, each retried with backoff.
	if err := a.BenchPrimeSuspect(7, []int32{8, 9, 10, 11}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	runOnLoop(t, a, func(now time.Time) { a.core.Evaluate(now, 7) })
	// Pending reconnect: b's transport dies and b goes with it, so a's
	// supervisor (a has the lower id) re-dials a node that is gone. The
	// reset closed b's socket: its Bye cannot reach a.
	resetLink(t, b, 1)
	b.Close()
	waitFor(t, 5*time.Second, func() bool {
		return reg.Counter("gnet.reconnect_attempts").Load() >= 1
	}, "a re-dialing b")
	a.Close()

	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	}, fmt.Sprintf("goroutines back to baseline %d (now %d)", baseline, runtime.NumGoroutine()))
}

// TestChaosCloseDuringHandshake is the shutdown-race regression: Close
// must wait for accepted connections still in serverHandshake — whose
// adoptConn would otherwise call wg.Add after wg.Wait has seen zero,
// always possible for transient connections, which skip the run-loop
// gate — without waiting out a stalled dialer's handshake deadline.
// Half the dialers finish their hello while Close runs, half only after
// it returned; ordinary and transient alternate.
func TestChaosCloseDuringHandshake(t *testing.T) {
	const dialers = 8
	for round := 0; round < 5; round++ {
		n := newTestNode(t, "n", 1, nil)
		conns := make([]net.Conn, dialers)
		for i := range conns {
			conn, err := net.Dial("tcp", n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			kind := ""
			if i%2 == 1 {
				kind = "Transient: true\r\n"
			}
			hello := fmt.Sprintf("%s\r\nListen-Addr: 127.0.0.1:1\r\nNode-ID: %d\r\n%s\r\n", helloLine, 100+i, kind)
			// All but the closing blank line: the acceptor stays in readHandshake.
			if _, err := conn.Write([]byte(hello[:len(hello)-2])); err != nil {
				t.Fatal(err)
			}
			conns[i] = conn
		}
		// The accept loop takes connections in order, so once a later
		// dial has its reply every earlier one is in serverHandshake.
		probe, err := dialHandshake(context.Background(), n.Addr(), "127.0.0.1:1", 99, true, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := readPeerIdentity(probe); err != nil {
			t.Fatal(err)
		}
		probe.Close()

		closed := make(chan struct{})
		go func() {
			n.Close()
			close(closed)
		}()
		finish := func(conn net.Conn) {
			conn.Write([]byte("\r\n")) // may fail: the node may already have hung up
			conn.SetReadDeadline(time.Now().Add(time.Second))
			io.Copy(io.Discard, conn) // until the node hangs up or says nothing more
			conn.Close()
		}
		for _, conn := range conns[:dialers/2] {
			finish(conn)
		}
		select {
		case <-closed:
		case <-time.After(3 * time.Second):
			t.Fatal("Close is waiting out stalled handshakes")
		}
		for _, conn := range conns[dialers/2:] {
			finish(conn)
		}
	}
}
