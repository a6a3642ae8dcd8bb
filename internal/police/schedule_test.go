package police

import (
	"fmt"
	"slices"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
)

// tickScan is the periodic exchange as a scan of every peer in ascending
// order, kept as the reference Tick's cursor is held to.
func (p *Police) tickScan(now float64) {
	for v := range p.nextExchange {
		if now < p.nextExchange[v] {
			continue
		}
		p.nextExchange[v] += p.cfg.ExchangePeriod
		if p.ov.Online(PeerID(v)) {
			p.exchangeFrom(PeerID(v), now)
		}
	}
}

// TestTickMatchesScan drives Tick and tickScan through one seeded
// sequence of clock values and churn, each on its own copy of a BA(97, 3)
// overlay with two list liars, list verification and 30 % control loss:
// the order peers fire in moves every loss draw and every verification
// cut, so equal held lists, counts, losses and detections after every
// call mean the same peers fired in the same order. The clock advances by
// whole seconds, by fractions of a second, or by skips of up to two
// periods, for exchange periods below and above one second.
func TestTickMatchesScan(t *testing.T) {
	for _, period := range []float64{0.3, 0.75, 1, 2.5, 7.3, 120} {
		for _, clock := range []string{"integer", "fractional", "skipping"} {
			t.Run(fmt.Sprintf("period=%v/%s", period, clock), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.ExchangePeriod = period
				cfg.VerifyLists = true
				matchScan(t, cfg, clock)
			})
		}
	}
}

func matchScan(t *testing.T, cfg Config, clock string) {
	const peers, steps = 97, 400
	ovS, ovR := baOverlay(t, 7, peers), baOverlay(t, 7, peers)
	newSide := func(ov *overlay.Overlay) *Police {
		p, err := New(ov, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.SetListLiar(5)
		p.SetListLiar(60)
		p.SetControlLoss(0.3, rng.New(29))
		return p
	}
	sched, ref := newSide(ovS), newSide(ovR)
	src := rng.New(41)
	now := -1.0
	for step := 1; step <= steps; step++ {
		switch clock {
		case "integer":
			now++
		case "fractional":
			now += float64(1+src.Intn(7)) / 4
		case "skipping":
			now += float64(1 + src.Intn(int(2*cfg.ExchangePeriod)+2))
		}
		// An offline peer's exchange is skipped but still rescheduled.
		if v := PeerID(src.Intn(peers)); src.Intn(4) == 0 {
			on := !ovS.Online(v)
			ovS.SetOnline(v, on)
			ovR.SetOnline(v, on)
		}
		sched.Tick(now)
		ref.tickScan(now)
		if !slices.Equal(sched.nextExchange, ref.nextExchange) {
			t.Fatalf("step %d (now %v): schedules differ", step, now)
		}
		compareSides(t, step, sched, ref)
	}
	if sched.Overhead().NeighborListMsgs == 0 || sched.ControlLost() == 0 || len(sched.Detections()) == 0 {
		t.Fatalf("vacuous: %+v sent, %d lost, %d liars cut",
			sched.Overhead(), sched.ControlLost(), len(sched.Detections()))
	}
}
