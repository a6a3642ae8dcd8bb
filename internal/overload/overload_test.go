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
		{ControlReserveFrac: math.NaN()},
		{ControlLossCap: math.NaN()},
	}
	for i, p := range bad {
		if err := p.WithDefaults().Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}
