package gnet

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
)

// fastReconnect keeps supervisor tests quick without changing the
// schedule's shape.
func fastReconnect() *ReconnectConfig {
	return &ReconnectConfig{
		MaxAttempts: 10,
		BaseDelay:   20 * time.Millisecond,
		MaxDelay:    200 * time.Millisecond,
		DialTimeout: 2 * time.Second,
	}
}

func counterValue(reg *telemetry.Registry, name string) uint64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestReconnectAfterInjectedReset is the acceptance test for the
// self-healing half of the supervisor: a neighbor lost to an injected
// TCP reset (a transport fault) must be re-dialed with backoff and
// re-established once the fault clears.
func TestReconnectAfterInjectedReset(t *testing.T) {
	reg := telemetry.New()
	plan := faults.NewPlan(1)
	a := newTestNode(t, "a", 1, func(cfg *Config) {
		cfg.Faults = plan
		cfg.Reconnect = fastReconnect()
		cfg.Telemetry = reg
	})
	b := newTestNode(t, "b", 2, nil)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "a sees b")

	// Every query frame now tears the connection down.
	plan.SetRule(faults.ClassQuery, faults.Rule{Reset: 1})
	a.SendRawQuery("boom")
	waitFor(t, 2*time.Second, func() bool {
		return counterValue(reg, "faults.injected_resets") >= 1
	}, "reset injected")
	plan.SetRule(faults.ClassQuery, faults.Rule{})

	waitFor(t, 5*time.Second, func() bool {
		ns := a.Neighbors()
		return len(ns) == 1 && ns[0] == 2
	}, "supervisor re-established the neighbor")
	if got := counterValue(reg, "gnet.reconnect_attempts"); got < 1 {
		t.Errorf("reconnect_attempts = %d, want >= 1", got)
	}
	if got := counterValue(reg, "gnet.reconnect_successes"); got < 1 {
		t.Errorf("reconnect_successes = %d, want >= 1", got)
	}
	// Backoff must have been observable in telemetry.
	var backoff int64
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == "gnet.reconnect_backoff_max_ms" {
			backoff = g.Value
		}
	}
	if backoff < int64(fastReconnect().BaseDelay/time.Millisecond) {
		t.Errorf("reconnect_backoff_max_ms = %d, want >= base delay", backoff)
	}
}

// TestPoliceCutNeverReconnects is the provenance half: a neighbor this
// node disconnected via DD-POLICE must never be re-dialed, even with
// the supervisor enabled and the dying connection producing the usual
// transport errors moments later.
func TestPoliceCutNeverReconnects(t *testing.T) {
	reg := telemetry.New()
	jr := journal.New(64)
	observer := newTestNode(t, "observer", 1, func(cfg *Config) {
		cfg.Police = testPolice()
		cfg.MinuteLength = time.Hour // rounds are driven by hand
		cfg.Telemetry = reg
		cfg.Journal = jr
		cfg.Reconnect = fastReconnect()
	})
	// The suspect gets neither the supervisor nor the observer's
	// registry: the assertion below is that the OBSERVER never re-dials.
	suspect := newTestNode(t, "suspect", 2, func(cfg *Config) {
		cfg.Police = testPolice()
		cfg.MinuteLength = time.Hour
	})
	if err := observer.Connect(suspect.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(observer.Neighbors()) == 1 }, "connected")

	// A 1000-query window, a round with no one else to ask, the verdict.
	if err := observer.BenchPrimeSuspect(2, []int32{1}, 1000, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := observer.BenchNTRound(2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(observer.Neighbors()) == 0 }, "suspect cut")

	// Give the (wrongly scheduled, if any) reconnect chain ten base delays.
	time.Sleep(200 * time.Millisecond)
	if got := counterValue(reg, "gnet.reconnect_attempts"); got != 0 {
		t.Errorf("reconnect_attempts = %d after a DD-POLICE cut, want 0", got)
	}
	if len(observer.Neighbors()) != 0 {
		t.Error("cut neighbor came back")
	}
	if got := journalDetails(jr, journal.TypePeerDrop); len(got) != 1 || got[0] != "cut" {
		t.Errorf("peer_drop records %v, want the one cut", got)
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
	mutate := func(cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour
		cfg.Reconnect = fastReconnect()
	}
	a := newTestNode(t, "a", 1, mutate)
	b := newTestNode(t, "b", 2, mutate)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.Neighbors()) == 1 }, "connected")

	// In-flight evaluation: four dead members, each retried with backoff.
	if err := a.BenchPrimeSuspect(7, []int32{8, 9, 10, 11}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	runOnLoop(t, a, func(now time.Time) { a.core.Evaluate(now, 7) })
	// Pending reconnect: b dies, a's supervisor starts re-dialing.
	b.Close()
	time.Sleep(50 * time.Millisecond)
	a.Close()

	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	}, fmt.Sprintf("goroutines back to baseline %d (now %d)", baseline, runtime.NumGoroutine()))
}

// TestChaosDetectionConverges is the end-to-end chaos validation: an
// 8-node TCP overlay under 20% injected message loss (queries AND
// DD-POLICE control traffic) plus one partition/heal cycle must still
// cut a flooding agent within the CT=5 window machinery.
func TestChaosDetectionConverges(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(11), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 40
	pcfg.CutThreshold = 5
	const agentIdx = 7
	plan := faults.NewPlan(77)
	plan.SetRule(faults.ClassQuery, faults.Rule{Drop: 0.2})
	plan.SetRule(faults.ClassControl, faults.Rule{Drop: 0.2})
	h, err := NewHarness(g, func(i int, cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = 400 * time.Millisecond
		cfg.Faults = plan
		cfg.Reconnect = fastReconnect()
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

	// Attack: node 7 floods distinct bogus queries.
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

	// One partition/heal cycle while the attack runs: two honest nodes
	// are isolated for two windows, then healed.
	go func() {
		time.Sleep(time.Second)
		plan.Partition(2, 3)
		time.Sleep(800 * time.Millisecond)
		plan.Heal()
	}()

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
	}, "an observer cut the agent despite 20% loss and a partition")
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
