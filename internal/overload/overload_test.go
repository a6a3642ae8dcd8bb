package overload

import (
	"math"
	"testing"
)

func TestShedderHysteresis(t *testing.T) {
	s := NewShedder(100, 0.75, 0.5)
	if s.ShouldShed(0) {
		t.Fatal("empty queue sheds")
	}
	if s.ShouldShed(74) {
		t.Fatal("below high watermark sheds")
	}
	if !s.ShouldShed(75) {
		t.Fatal("at high watermark does not shed")
	}
	// Inside the hysteresis band the shedder keeps shedding...
	if !s.ShouldShed(60) {
		t.Fatal("hysteresis band released shed too early")
	}
	// ...until it drains to the low watermark.
	if s.ShouldShed(50) {
		t.Fatal("at low watermark still shedding")
	}
	// And the band does not re-trip until high again.
	if s.ShouldShed(74) {
		t.Fatal("band re-tripped below high watermark")
	}
	if !s.ShouldShed(90) {
		t.Fatal("did not re-trip at high watermark")
	}
}

func TestShedderTinyQueue(t *testing.T) {
	// A capacity-1 queue degenerates to shed-when-full without a
	// zero/negative watermark.
	s := NewShedder(1, 0.75, 0.5)
	if s.ShouldShed(0) {
		t.Fatal("empty tiny queue sheds")
	}
	if !s.ShouldShed(1) {
		t.Fatal("full tiny queue does not shed")
	}
	if s.ShouldShed(0) {
		t.Fatal("drained tiny queue still sheds")
	}
}

func TestBreakerQuarantineLifecycle(t *testing.T) {
	b := NewBreaker()
	if b.State() != StateClosed {
		t.Fatalf("new breaker state = %v", b.State())
	}
	// One hot window is a strike, not a quarantine.
	if ev := b.CloseWindow(10_000); ev != EventNone {
		t.Fatalf("first hot window event = %v", ev)
	}
	if b.State() != StateClosed {
		t.Fatalf("state after one strike = %v", b.State())
	}
	// Second consecutive hot window trips the breaker.
	if ev := b.CloseWindow(10_000); ev != EventQuarantine {
		t.Fatalf("second hot window event = %v", ev)
	}
	if b.State() != StateQuarantined {
		t.Fatalf("state after trip = %v", b.State())
	}
	// Quarantined: only ProbeAdmit queries pass per window.
	admitted := 0
	for i := 0; i < 1000; i++ {
		if b.Admit() {
			admitted++
		}
	}
	if admitted != int(ProbeAdmit) {
		t.Fatalf("quarantined admits = %d, want %v", admitted, ProbeAdmit)
	}
	// Quarantine term: QuarantineWindows windows, then half-open.
	for i := 0; i < QuarantineWindows-1; i++ {
		if ev := b.CloseWindow(10_000); ev != EventNone {
			t.Fatalf("quarantine window %d event = %v", i, ev)
		}
	}
	if ev := b.CloseWindow(10_000); ev != EventProbe {
		t.Fatalf("quarantine term end event = %v", ev)
	}
	if b.State() != StateProbing {
		t.Fatalf("state after term = %v", b.State())
	}
	// A probing peer that keeps flooding goes straight back.
	if ev := b.CloseWindow(10_000); ev != EventQuarantine {
		t.Fatalf("failed probe event = %v", ev)
	}
	// Serve the term again, probe, and this time behave.
	for i := 0; i < QuarantineWindows; i++ {
		b.CloseWindow(0)
	}
	if b.State() != StateProbing {
		t.Fatalf("state after second term = %v", b.State())
	}
	if ev := b.CloseWindow(TripThreshold); ev != EventRestore {
		t.Fatalf("clean probe event = %v", ev)
	}
	if b.State() != StateClosed {
		t.Fatalf("state after restore = %v", b.State())
	}
	if !b.Admit() {
		t.Fatal("restored peer not admitted")
	}
}

func TestBreakerStrikesResetOnQuietWindow(t *testing.T) {
	b := NewBreaker()
	b.CloseWindow(10_000) // strike 1
	b.CloseWindow(0)      // quiet: strikes reset
	b.CloseWindow(10_000) // strike 1 again
	if b.State() != StateClosed {
		t.Fatalf("non-consecutive strikes quarantined: %v", b.State())
	}
	b.CloseWindow(10_000) // strike 2: trip
	if b.State() != StateQuarantined {
		t.Fatalf("consecutive strikes did not trip: %v", b.State())
	}
}

func TestBreakerAdmitResetsPerWindow(t *testing.T) {
	b := NewBreaker()
	b.CloseWindow(10_000)
	b.CloseWindow(10_000)
	for i := 0; i < int(ProbeAdmit); i++ {
		if !b.Admit() {
			t.Fatalf("admit %d denied under allowance", i)
		}
	}
	if b.Admit() {
		t.Fatal("admit over allowance")
	}
	b.CloseWindow(10_000)
	if !b.Admit() {
		t.Fatal("allowance did not reset at window close")
	}
}

func TestBreakerDeterministic(t *testing.T) {
	// Same call sequence, same transitions — the breaker has no clock
	// and no randomness.
	run := func() []BreakerEvent {
		b := NewBreaker()
		offered := []float64{600, 700, 9000, 9000, 9000, 9000, 100, 100, 100, 100, 400}
		evs := make([]BreakerEvent, 0, len(offered))
		for _, o := range offered {
			evs = append(evs, b.CloseWindow(o))
		}
		return evs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at window %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDetectorHysteresis(t *testing.T) {
	d := NewDetector(0.5)
	if d.Degraded() {
		t.Fatal("new detector degraded")
	}
	if d.CloseWindow(40, 60) {
		t.Fatal("40% shed flipped mode")
	}
	if !d.CloseWindow(50, 50) {
		t.Fatal("50% shed did not enter degraded")
	}
	if !d.Degraded() {
		t.Fatal("not degraded after enter")
	}
	// Exit needs shed below half the threshold (25%).
	if d.CloseWindow(30, 70) {
		t.Fatal("30% shed exited degraded")
	}
	if !d.CloseWindow(10, 90) {
		t.Fatal("10% shed did not exit degraded")
	}
	if d.Degraded() {
		t.Fatal("degraded after exit")
	}
}

func TestDetectorIdleWindowRecovers(t *testing.T) {
	d := NewDetector(0.5)
	d.CloseWindow(100, 0)
	if !d.Degraded() {
		t.Fatal("all-shed window did not degrade")
	}
	if !d.CloseWindow(0, 0) {
		t.Fatal("idle window did not recover")
	}
	if d.Degraded() {
		t.Fatal("degraded after idle recovery")
	}
	if d.CloseWindow(0, 0) {
		t.Fatal("idle window flipped healthy mode")
	}
}

func TestSimPlaneDefaults(t *testing.T) {
	p := SimPlane{}.WithDefaults()
	if p != DefaultSimPlane() {
		t.Fatalf("zero plane with defaults = %+v, want %+v", p, DefaultSimPlane())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("default plane invalid: %v", err)
	}
	bad := []SimPlane{
		{ControlReserveFrac: 1.5},
		{ControlLossCap: 1},
		{DegradedLossThreshold: 1.5},
		{ControlReserveFrac: math.NaN()},
		{ControlLossCap: math.NaN()},
		{DegradedLossThreshold: math.NaN()},
	}
	for i, p := range bad {
		if err := p.WithDefaults().Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestBreakerStrings(t *testing.T) {
	if StateQuarantined.String() != "quarantined" || EventRestore.String() != "restore" {
		t.Fatalf("state/event strings: %q %q", StateQuarantined, EventRestore)
	}
}
