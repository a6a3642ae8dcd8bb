package capacity

import (
	"math"
	"testing"
)

func TestProcessorBasics(t *testing.T) {
	p, err := NewProcessor(600, 10) // 10 queries/sec, burst 10
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Offer(4); got != 4 {
		t.Fatalf("accepted %v of 4 with full bucket", got)
	}
	if got := p.Offer(10); got != 6 {
		t.Fatalf("accepted %v, want remaining 6 tokens", got)
	}
	if p.dropped != 4 {
		t.Fatalf("dropped = %v", p.dropped)
	}
	p.Tick(1) // +10 tokens
	if got := p.tokens; got != 10 {
		t.Fatalf("tokens after tick = %v", got)
	}
	p.Tick(100) // bucket must cap at burst
	if got := p.tokens; got != 10 {
		t.Fatalf("tokens capped = %v", got)
	}
}

func TestTryProcess(t *testing.T) {
	p, err := NewProcessor(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.TryProcess() || !p.TryProcess() {
		t.Fatal("burst of 2 not honored")
	}
	if p.TryProcess() {
		t.Fatal("processed with empty bucket")
	}
	if p.Processed() != 2 || p.dropped != 1 {
		t.Fatalf("processed=%v dropped=%v", p.Processed(), p.dropped)
	}
	if got := p.DropRate(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("drop rate = %v", got)
	}
}

func TestOfferNonPositive(t *testing.T) {
	p, _ := NewProcessor(60, 1)
	if got := p.Offer(0); got != 0 {
		t.Fatalf("Offer(0) = %v", got)
	}
	if got := p.Offer(-5); got != 0 {
		t.Fatalf("Offer(-5) = %v", got)
	}
	if p.DropRate() != 0 {
		t.Fatal("idle drop rate must be 0")
	}
}

// TestZeroRateClamp is the regression test for the zero-rate boundary:
// a non-positive rate clamps to 0 (mirroring flood.Budget.take), the
// processor stays valid, and Offer/TryProcess accounting agrees with
// DropRate — everything offered is dropped, so DropRate is exactly 1.
func TestZeroRateClamp(t *testing.T) {
	for _, rate := range []float64{0, -10} {
		p, err := NewProcessor(rate, 0)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if p.tokens != 0 {
			t.Fatalf("rate %v: tokens = %v, want 0", rate, p.tokens)
		}
		if p.DropRate() != 0 {
			t.Fatalf("rate %v: idle drop rate = %v, want 0", rate, p.DropRate())
		}
		if got := p.Offer(10); got != 0 {
			t.Fatalf("rate %v: Offer accepted %v", rate, got)
		}
		if p.TryProcess() {
			t.Fatalf("rate %v: TryProcess succeeded", rate)
		}
		p.Tick(1000) // accrues nothing at rate 0
		if p.tokens != 0 {
			t.Fatalf("rate %v: tokens after tick = %v", rate, p.tokens)
		}
		if p.Processed() != 0 || p.dropped != 11 {
			t.Fatalf("rate %v: processed=%v dropped=%v", rate, p.Processed(), p.dropped)
		}
		if p.DropRate() != 1 {
			t.Fatalf("rate %v: drop rate = %v, want 1", rate, p.DropRate())
		}
	}
}

// TestOfferClampedAtZero: even with an (artificially) drained bucket,
// accepted never goes negative and the ledgers stay consistent.
func TestOfferClampedAtZero(t *testing.T) {
	p, _ := NewProcessor(600, 10)
	p.Offer(10) // drain exactly
	if got := p.Offer(5); got != 0 {
		t.Fatalf("drained bucket accepted %v", got)
	}
	if p.Processed() != 10 || p.dropped != 5 {
		t.Fatalf("processed=%v dropped=%v", p.Processed(), p.dropped)
	}
	if got, want := p.DropRate(), 5.0/15; math.Abs(got-want) > 1e-12 {
		t.Fatalf("drop rate = %v, want %v", got, want)
	}
}

func TestClassedProcessorPriority(t *testing.T) {
	// 6,000/min with a 10% reserve: each bucket holds one second of its
	// rate, the control bucket 10 tokens, the query bucket 90.
	cp, err := NewClassedProcessor(6000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Queries exhaust their own bucket and never dip into the reserve.
	accepted := 0
	for i := 0; i < 200; i++ {
		if cp.TryProcessQuery() {
			accepted++
		}
	}
	if accepted != 90 {
		t.Fatalf("query accepted = %d, want 90", accepted)
	}
	// Control still has its full reserve.
	ctl := 0
	for i := 0; i < 50; i++ {
		if cp.TryProcessControl() {
			ctl++
		}
	}
	if ctl != 10 {
		t.Fatalf("control accepted = %d, want reserve of 10", ctl)
	}
	if cp.query.dropped != 110 || cp.control.dropped != 40 {
		t.Fatalf("dropped: query=%v control=%v", cp.query.dropped, cp.control.dropped)
	}
	if got, want := cp.query.DropRate(), 110.0/200; math.Abs(got-want) > 1e-12 {
		t.Fatalf("query drop rate = %v, want %v", got, want)
	}
	if got, want := cp.control.DropRate(), 40.0/50; math.Abs(got-want) > 1e-12 {
		t.Fatalf("control drop rate = %v, want %v", got, want)
	}
}

func TestClassedProcessorControlBorrowsQuery(t *testing.T) {
	cp, err := NewClassedProcessor(6000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the control reserve (10 tokens); query bucket still has 90.
	for i := 0; i < 10; i++ {
		if !cp.TryProcessControl() {
			t.Fatalf("reserve token %d denied", i)
		}
	}
	// Control borrows idle query tokens rather than shedding.
	if !cp.TryProcessControl() {
		t.Fatal("control could not borrow an idle query token")
	}
	if cp.control.dropped != 0 {
		t.Fatalf("control dropped = %v while query tokens idle", cp.control.dropped)
	}
	// The borrowed token is gone from the query budget.
	accepted := 0
	for cp.TryProcessQuery() {
		accepted++
	}
	if accepted != 89 {
		t.Fatalf("query accepted after borrow = %d, want 89", accepted)
	}
}

func TestClassedProcessorTickRefillsBoth(t *testing.T) {
	cp, err := NewClassedProcessor(6000, 0.1) // 100/sec total
	if err != nil {
		t.Fatal(err)
	}
	for cp.TryProcessQuery() {
	}
	for cp.TryProcessControl() {
	}
	cp.Tick(0.1) // +1 control, +9 query
	ctl, qry := 0, 0
	for cp.TryProcessControl() {
		ctl++
	}
	for cp.TryProcessQuery() {
		qry++
	}
	// The refilled tenth of a second splits 10%/90%; control's single token plus
	// nothing borrowable (queries drained after) — drain order matters,
	// so drain control first: 1 reserve token, then borrows 9 query.
	if ctl != 10 || qry != 0 {
		t.Fatalf("after tick: control=%d query=%d, want 10/0 (reserve+borrow)", ctl, qry)
	}
}

func TestNewClassedProcessorErrors(t *testing.T) {
	for _, frac := range []float64{0, -0.1, 1, 1.5} {
		if _, err := NewClassedProcessor(600, frac); err == nil {
			t.Errorf("control fraction %v accepted", frac)
		}
	}
}

// TestFig5Shape regenerates the Figure 5 anchor points: below capacity
// the processed rate tracks the offered rate; above capacity it
// plateaus at the testbed saturation level (~15k/min).
func TestFig5Shape(t *testing.T) {
	offered := []float64{1000, 5000, 10000, 14000, 15000, 20000, 25000, 29000}
	pts, err := SaturationCurve(TestbedSaturationPerMin, offered, 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.OfferedPerMin <= TestbedSaturationPerMin {
			if math.Abs(pt.ProcessedPerMin-pt.OfferedPerMin) > pt.OfferedPerMin*0.01 {
				t.Errorf("offered %v: processed %v, want ~offered", pt.OfferedPerMin, pt.ProcessedPerMin)
			}
		} else {
			if math.Abs(pt.ProcessedPerMin-TestbedSaturationPerMin) > TestbedSaturationPerMin*0.01 {
				t.Errorf("offered %v: processed %v, want plateau ~%v",
					pt.OfferedPerMin, pt.ProcessedPerMin, float64(TestbedSaturationPerMin))
			}
		}
	}
}

// TestFig6Anchor checks the paper's headline drop-rate measurement:
// "When peer A sends queries to B as fast as it is capable of
// [~29,000/min], 47% of the queries are dropped by peer B."
func TestFig6Anchor(t *testing.T) {
	pts, err := SaturationCurve(TestbedSaturationPerMin, []float64{29000}, 600)
	if err != nil {
		t.Fatal(err)
	}
	got := pts[0].DropRate
	want := 1 - float64(TestbedSaturationPerMin)/29000 // 48.3%
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("drop rate at 29k/min = %v, want ~%v", got, want)
	}
	if got < 0.44 || got > 0.52 {
		t.Fatalf("drop rate %v outside the paper's ~47%% anchor", got)
	}
}

// TestFig6Monotone: drop rate must be zero below saturation and grow
// monotonically beyond it.
func TestFig6Monotone(t *testing.T) {
	offered := []float64{5000, 10000, 15000, 17000, 20000, 23000, 26000, 29000}
	pts, err := SaturationCurve(TestbedSaturationPerMin, offered, 600)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, pt := range pts {
		if pt.OfferedPerMin < TestbedSaturationPerMin && pt.DropRate > 0.01 {
			t.Errorf("offered %v below capacity dropped %v", pt.OfferedPerMin, pt.DropRate)
		}
		if pt.DropRate < prev-1e-9 {
			t.Errorf("drop rate not monotone at offered %v", pt.OfferedPerMin)
		}
		prev = pt.DropRate
	}
}

func TestSaturationCurveErrors(t *testing.T) {
	if _, err := SaturationCurve(1000, []float64{1}, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

func BenchmarkOffer(b *testing.B) {
	p, _ := NewProcessor(600000, 0)
	for i := 0; i < b.N; i++ {
		p.Tick(0.001)
		p.Offer(10)
	}
}

// A sub-60/min rate used to default its burst to ratePerSec < 1, so
// the bucket could never hold one whole token and TryProcess starved
// the peer forever. The floor of one token lets it drain slowly — one
// query every ceil(60/rate) seconds — instead of never.
func TestProcessorSubMinuteRateNotStarved(t *testing.T) {
	p, err := NewProcessor(30, 0) // 0.5 tokens/sec
	if err != nil {
		t.Fatal(err)
	}
	// Freshly built bucket holds its (floored) burst: one token.
	if !p.TryProcess() {
		t.Fatal("fresh sub-minute-rate processor rejected its first query")
	}
	ok := 0
	for s := 0; s < 60; s++ {
		p.Tick(1)
		if p.TryProcess() {
			ok++
		}
	}
	if ok != 30 {
		t.Fatalf("0.5/s processor served %d of 60 seconds, want 30", ok)
	}
}

// The floor also applies to explicit sub-1.0 bursts with a positive
// rate, but never resurrects a zero-rate processor.
func TestProcessorBurstFloor(t *testing.T) {
	p, err := NewProcessor(600, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if p.tokens != 1 {
		t.Fatalf("explicit 0.2 burst with positive rate: tokens = %v, want floored 1", p.tokens)
	}
	z, err := NewProcessor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	z.Tick(100)
	if z.TryProcess() {
		t.Fatal("zero-rate processor served a query")
	}
}

// Rates >= 60/min keep their historical default burst of exactly one
// second of capacity.
func TestProcessorDefaultBurstUnchangedAtWholeRates(t *testing.T) {
	p, err := NewProcessor(6000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.tokens != 100 {
		t.Fatalf("default burst = %v, want 100", p.tokens)
	}
}
