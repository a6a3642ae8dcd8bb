package core

import (
	"ddpolice/internal/capacity"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
)

// overloadState is the overload plane's admission side: the class-split
// processing budget, quarantine breakers and the degraded detector.
type overloadState struct {
	cproc *capacity.ClassedProcessor

	// One breaker per peer ever heard from: it survives reconnects, so a
	// flooder cannot reset its strikes by bouncing the link. It judges
	// offered, the window's first copies from the peer, admitted or not.
	breakers map[int32]*overload.Breaker
	offered  map[int32]float64

	detector *overload.Detector
	windows  int

	// The detector's window: queries dropped anywhere, and processed.
	winShed, winHandled int64
}

// degradedShedFrac is the window shed fraction at which the node marks
// itself degraded; it exits degraded mode below half of it.
const degradedShedFrac = 0.5

func (o *overloadState) init(cfg Config) error {
	cproc, err := capacity.NewClassedProcessor(cfg.CapacityPerMin, cfg.ControlReserveFrac)
	if err != nil {
		return err
	}
	o.cproc = cproc
	o.breakers = make(map[int32]*overload.Breaker)
	o.offered = make(map[int32]float64)
	o.detector = overload.NewDetector(degradedShedFrac)
	return nil
}

// isQuarantined reports whether the peer's breaker is open.
func (o *overloadState) isQuarantined(id int32) bool {
	b, ok := o.breakers[id]
	return ok && b.State() != overload.StateClosed
}

// admitQuery counts one inbound query as offered and throttles it when the
// peer is quarantined or probing.
func (o *overloadState) admitQuery(id int32) bool {
	o.offered[id]++
	b, ok := o.breakers[id]
	if !ok {
		b = overload.NewBreaker()
		o.breakers[id] = b
	}
	return b.Admit()
}

// closeOverloadWindow rolls every breaker, in ascending peer id — a silent
// flooder's too, so its term elapses — and then the degraded detector.
func (c *Core) closeOverloadWindow() {
	o := &c.ovl
	o.windows++
	open := int64(0)
	for _, id := range sortedIDs(o.breakers) {
		b, off := o.breakers[id], o.offered[id]
		if ev := b.CloseWindow(off); ev != overload.EventNone {
			c.journal(journal.Event{
				Type: journal.TypeQuarantine, Peer: int64(id),
				Detail: ev.String(), Value: off, Window: o.windows,
			})
		}
		if b.State() != overload.StateClosed {
			open++
		}
	}
	clear(o.offered)
	c.tel.quarantinedPeers.Set(open)

	shed, handled := o.winShed, o.winHandled
	o.winShed, o.winHandled = 0, 0
	if shed > 0 {
		c.journal(journal.Event{
			Type: journal.TypeShed, Detail: journal.ShedQuery,
			Value: float64(shed), Window: o.windows,
		})
	}
	if o.detector.CloseWindow(float64(shed), float64(handled)) {
		detail, deg := "exit", int64(0)
		if o.detector.Degraded() {
			detail, deg = "enter", 1
		}
		c.tel.degraded.Set(deg)
		frac := 0.0
		if shed+handled > 0 {
			frac = float64(shed) / float64(shed+handled)
		}
		c.journal(journal.Event{Type: journal.TypeDegraded, Detail: detail, Value: frac, Window: o.windows})
	}
}
