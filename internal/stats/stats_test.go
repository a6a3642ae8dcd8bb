package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", w.Mean())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 {
		t.Fatal("empty Welford must report zeros")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Q(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleQuantileEmptyAndSingle(t *testing.T) {
	s := NewSample(0)
	if s.Quantile(0.5) != 0 {
		t.Error("empty sample quantile must be 0")
	}
	s.Add(7)
	for _, q := range []float64{0, 0.3, 1} {
		if s.Quantile(q) != 7 {
			t.Errorf("single-element Q(%v) = %v", q, s.Quantile(q))
		}
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	s := NewSample(0)
	s.Add(10)
	s.Add(1)
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("min = %v", got)
	}
	s.Add(0.5) // must re-sort lazily
	if got := s.Quantile(0); got != 0.5 {
		t.Fatalf("after re-add, min = %v", got)
	}
}
