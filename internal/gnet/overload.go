package gnet

import (
	"sync/atomic"

	"ddpolice/internal/capacity"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
)

// overloadState is the node's overload-resilience plane, tuned by
// Config.Overload. The breaker and offered maps are run-loop-owned; the
// window counters are atomics because send-path sheds may be recorded
// from connection goroutines.
type overloadState struct {
	cfg   overload.Config
	cproc *capacity.ClassedProcessor

	// breakers holds one quarantine circuit breaker per peer ever
	// heard from; breakers deliberately survive reconnects, so a
	// flooder cannot reset its strike count by bouncing the link.
	breakers map[int32]*overload.Breaker
	// offered counts this window's inbound queries per peer (first
	// copies, admitted or not — what the breaker judges).
	offered map[int32]float64

	detector *overload.Detector
	windows  int

	// Window counters for the degraded-mode detector. Shed counts
	// every query-class message dropped by the overload plane (send
	// watermark, full queue, quarantine throttle); handled counts
	// queries that got processing tokens.
	winShed    atomic.Int64
	winHandled atomic.Int64

	// degraded mirrors the detector's mode for lock-free Stats reads.
	degraded atomic.Bool
	// quarantined mirrors the count of peers with an open breaker.
	quarantined atomic.Int64
}

func newOverloadState(cfg overload.Config, capacityPerMin, burst float64) (*overloadState, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cproc, err := capacity.NewClassedProcessor(capacityPerMin, burst, cfg.ControlReserveFrac)
	if err != nil {
		return nil, err
	}
	return &overloadState{
		cfg:      cfg,
		cproc:    cproc,
		breakers: make(map[int32]*overload.Breaker),
		offered:  make(map[int32]float64),
		detector: overload.NewDetector(cfg),
	}, nil
}

// breaker returns the peer's circuit breaker, creating it closed
// (run-loop goroutine only).
func (o *overloadState) breaker(id int32) *overload.Breaker {
	b, ok := o.breakers[id]
	if !ok {
		b = overload.NewBreaker(o.cfg)
		o.breakers[id] = b
	}
	return b
}

// isQuarantined reports whether the peer's breaker is open (run-loop
// goroutine only). Peers with no breaker yet are in good standing.
func (o *overloadState) isQuarantined(id int32) bool {
	b, ok := o.breakers[id]
	return ok && b.State() != overload.StateClosed
}

// admitQuery decides one inbound query from the peer: it always counts
// the offer (the breaker judges offered load, not admitted load) and
// throttles when the peer is quarantined or probing.
func (o *overloadState) admitQuery(id int32) bool {
	o.offered[id]++
	return o.breaker(id).Admit()
}

// closeOverloadWindow rolls every breaker and the degraded detector
// (run-loop goroutine only, driven by the window ticker at
// MinuteLength). Breakers with no traffic still roll, so quarantine
// terms elapse and probes fire even when the flooder goes silent.
func (n *Node) closeOverloadWindow() {
	o := n.ovl
	o.windows++
	open := int64(0)
	for id, b := range o.breakers {
		off := o.offered[id]
		ev := b.CloseWindow(off)
		if ev != overload.EventNone {
			n.journalEvent(journal.Event{
				Type: journal.TypeQuarantine, Peer: int64(id),
				Detail: ev.String(), Value: off, Window: o.windows,
			})
		}
		if b.State() != overload.StateClosed {
			open++
		}
	}
	for id := range o.offered {
		delete(o.offered, id)
	}
	o.quarantined.Store(open)
	n.tel.quarantinedPeers.Set(open)

	shed := o.winShed.Swap(0)
	handled := o.winHandled.Swap(0)
	if shed > 0 {
		n.journalEvent(journal.Event{
			Type: journal.TypeShed, Detail: overload.ClassQuery.String(),
			Value: float64(shed), Window: o.windows,
		})
	}
	if o.detector.CloseWindow(float64(shed), float64(handled)) {
		detail := "exit"
		deg := int64(0)
		if o.detector.Degraded() {
			detail = "enter"
			deg = 1
		}
		o.degraded.Store(o.detector.Degraded())
		n.tel.degraded.Set(deg)
		frac := 0.0
		if shed+handled > 0 {
			frac = float64(shed) / float64(shed+handled)
		}
		n.journalEvent(journal.Event{
			Type: journal.TypeDegraded, Detail: detail,
			Value: frac, Window: o.windows,
		})
	}
}

// Quarantined returns the ids of peers whose overload breaker is
// currently open (quarantined or probing).
func (n *Node) Quarantined() []int32 {
	res := make(chan []int32, 1)
	out, _ := ctlCall(n, res, 0, func() {
		var out []int32
		for id, b := range n.ovl.breakers {
			if b.State() != overload.StateClosed {
				out = append(out, id)
			}
		}
		res <- out
	})
	return out
}

// Degraded reports whether the node is currently in degraded mode.
func (n *Node) Degraded() bool {
	return n.ovl.degraded.Load()
}
