package topology

import (
	"testing"

	"ddpolice/internal/rng"
)

func TestSmallWorldClaim(t *testing.T) {
	// The paper cites [25]: ~95% of pairs within 7 hops. Our BRITE-like
	// 2000-peer topology should satisfy it comfortably.
	g, err := BarabasiAlbert(rng.New(6), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	balls, err := g.BallSizes(rng.New(7), 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The graph is connected, so every source has n-1 partners.
	if within := balls[6] / float64(g.NumNodes()-1); within < 0.95 {
		t.Fatalf("within-7-hops fraction = %v, want >= 0.95", within)
	}
}

func TestBallSizesMonotone(t *testing.T) {
	g, err := BarabasiAlbert(rng.New(8), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	balls, err := g.BallSizes(rng.New(9), 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(balls) != 5 {
		t.Fatalf("len = %d", len(balls))
	}
	prev := 0.0
	for h, b := range balls {
		if b < prev {
			t.Fatalf("ball sizes not monotone at hop %d: %v", h+1, balls)
		}
		prev = b
	}
	// Hop-1 ball = mean degree (~6).
	if balls[0] < 4 || balls[0] > 9 {
		t.Fatalf("hop-1 ball = %v, want ~ mean degree", balls[0])
	}
	// TTL-3 coverage at 2,000 peers is the simulator's partial-coverage
	// regime (DESIGN.md, finding 2): roughly a third of the overlay,
	// well away from the TTL-7 blanket.
	frac := balls[2] / 2000
	if frac < 0.1 || frac > 0.45 {
		t.Fatalf("TTL-3 coverage = %.2f, outside the calibration band", frac)
	}
	if balls[4]/2000 < 0.9 {
		t.Fatalf("TTL-5 coverage = %.2f, expected near-blanket", balls[4]/2000)
	}
}

func TestAnalysisErrors(t *testing.T) {
	g := NewBuilder(0).Build()
	if _, err := g.BallSizes(rng.New(1), 1, 3); err == nil {
		t.Error("empty graph accepted")
	}
	g2, err := RingLattice(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.BallSizes(rng.New(1), 1, 0); err == nil {
		t.Error("zero maxHops accepted")
	}
}
