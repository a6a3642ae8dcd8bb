package gnet

import (
	"sort"
	"sync"
	"testing"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
)

// fakeClock is a manually advanced Clock. Advance moves virtual time
// and fires due AfterFunc callbacks in deadline order, outside the
// lock so a callback may schedule follow-up timers or hand work to a
// run loop without deadlocking.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	due time.Time
	f   func()
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *fakeClock) AfterFunc(d time.Duration, f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timers = append(c.timers, &fakeTimer{due: c.now.Add(d), f: f})
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due, rest []*fakeTimer
	for _, tm := range c.timers {
		if tm.due.After(c.now) {
			rest = append(rest, tm)
		} else {
			due = append(due, tm)
		}
	}
	c.timers = rest
	c.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].due.Before(due[j].due) })
	for _, tm := range due {
		tm.f()
	}
}

// clockPolicePair is policePair with an injected fake clock: the
// hour-long MinuteLength means detection timing moves only when the
// test advances the clock.
func clockPolicePair(t *testing.T, clk *fakeClock, jr *journal.Journal) (observer, suspect *Node) {
	t.Helper()
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 50
	pcfg.CutThreshold = 5
	mutate := func(cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour
		cfg.Clock = clk
		cfg.Journal = jr
	}
	observer = newTestNode(t, "observer", 1, mutate)
	suspect = newTestNode(t, "suspect", 2, mutate)
	if err := observer.Connect(suspect.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		have := false
		runOnLoop(t, observer, func() {
			_, have = observer.monitor.lists[2]
		})
		return have
	}, "observer received the suspect's neighbor list")
	return observer, suspect
}

// TestMonitorNTRateLimitUsesInjectedClock is the regression test for
// the monitor reading raw wall time: the §3.3 50-second suppression
// (scaled to 50 virtual minutes by the hour-long test window) must
// follow the node's injected clock. The comparison itself is
// police.TestRoundLifecycle's ("rate limited", "rate limit expired");
// what needs a node is the driver's conversion of Clock spans to
// protocol seconds and its last-round stamp. Before the clock was injectable
// this rule was untestable without real sleeps — under chaos (stalled
// goroutines, slow CI wall time) the suppression window silently
// drifted relative to the window roll it is defined against.
func TestMonitorNTRateLimitUsesInjectedClock(t *testing.T) {
	clk := newFakeClock()
	observer, _ := clockPolicePair(t, clk, nil)
	m := observer.monitor

	// Flood window: the evaluation starts and stamps lastNT at the
	// fake now.
	var ev1 *police.Round
	runOnLoop(t, observer, func() {
		m.curIn[2] = 1000
		m.closeMinute()
		ev1 = m.pending[2]
	})
	if ev1 == nil {
		t.Fatal("no evaluation started for the flooding neighbor")
	}

	// Still flooding 20 virtual minutes later — inside the 50-minute
	// suppression window, so no new broadcast round starts.
	clk.Advance(20 * time.Minute)
	runOnLoop(t, observer, func() {
		m.curIn[2] = 1000
		m.closeMinute()
		if m.pending[2] != ev1 {
			t.Error("rate limit ignored the injected clock: new evaluation inside the suppression window")
		}
	})

	// 40 more minutes puts the last broadcast 60 minutes back — past
	// the limit, so the next flood window starts a fresh round.
	clk.Advance(40 * time.Minute)
	runOnLoop(t, observer, func() {
		m.curIn[2] = 1000
		m.closeMinute()
		if m.pending[2] == ev1 {
			t.Error("suppression window never expired on the injected clock")
		}
	})
}

// TestVerdictDeadlineFollowsInjectedClock pins the half-window verdict
// deadline to the injected clock: armed at 30 virtual minutes, it must
// not fire at 29 and must fire at 30 — entirely without wall-clock
// sleeps — and the journal, stamped on the same clock, must read exactly
// that half window from warning to cut. The suspect's buddy group is just the observer
// itself here (asked = 0, so no deferral), and the observer's own
// 1000-query report is far beyond CT, so the verdict cuts.
func TestVerdictDeadlineFollowsInjectedClock(t *testing.T) {
	clk := newFakeClock()
	jr := journal.New(64)
	observer, _ := clockPolicePair(t, clk, jr)
	m := observer.monitor

	runOnLoop(t, observer, func() {
		m.curIn[2] = 1000
		m.closeMinute()
		if _, ok := m.pending[2]; !ok {
			t.Error("no evaluation started for the flooding neighbor")
		}
	})

	// One virtual minute short of the deadline: nothing fires.
	clk.Advance(29 * time.Minute)
	runOnLoop(t, observer, func() {
		if _, ok := m.pending[2]; !ok {
			t.Error("verdict fired before its half-window deadline")
		}
	})

	// At the deadline: the timer hands finishEvaluation to the run
	// loop, which cuts the suspect.
	clk.Advance(time.Minute)
	waitFor(t, 2*time.Second, func() bool {
		gone := false
		runOnLoop(t, observer, func() {
			_, pending := m.pending[2]
			gone = !pending
		})
		return gone
	}, "verdict fired after the clock passed the deadline")

	cut := false
	for _, d := range observer.Stats().Disconnects {
		if d.Code == protocol.ByeCodeDDoSSuspect {
			cut = true
		}
	}
	if !cut {
		t.Fatal("deadline verdict did not cut the flooding neighbor")
	}
	// Every record is stamped on the injected clock, so the journal reads
	// the half window that was advanced, to the second.
	at := map[string]float64{}
	for _, e := range jr.Events() {
		if e.Node == 1 {
			at[e.Type] = e.T
		}
	}
	if d := at[journal.TypeCut] - at[journal.TypeWarning]; d != 1800 {
		t.Errorf("journal warning -> cut = %v s, want the 1800 s the clock advanced", d)
	}
	if d := at[journal.TypePeerDrop] - at[journal.TypeCut]; d != 0 {
		t.Errorf("peer_drop %v s after the cut on a clock that did not move", d)
	}
}
