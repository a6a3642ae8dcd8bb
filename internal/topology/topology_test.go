package topology

import (
	"testing"

	"ddpolice/internal/rng"
)

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestBuilderBuild(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	for v := NodeID(0); v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if !g.IsConnected() {
		t.Error("cycle should be connected")
	}
	if g.AvgDegree() != 2 {
		t.Errorf("avg degree = %v", g.AvgDegree())
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	src := rng.New(42)
	g, err := BarabasiAlbert(src, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("BA graph must be connected")
	}
	// The paper's BRITE profile: avg degree ~6, most peers with 3-4
	// neighbors, a few with tens.
	if avg := g.AvgDegree(); avg < 5.5 || avg > 6.5 {
		t.Errorf("avg degree = %v, want ~6", avg)
	}
	hist := g.DegreeHistogram()
	minDeg := -1
	for d, c := range hist {
		if c > 0 {
			minDeg = d
			break
		}
	}
	if minDeg != 3 {
		t.Errorf("min degree = %d, want 3", minDeg)
	}
	smallDeg := hist[3] + hist[4]
	if frac := float64(smallDeg) / 2000; frac < 0.5 {
		t.Errorf("fraction of degree-3/4 nodes = %v, want majority", frac)
	}
	if g.MaxDegree() < 20 {
		t.Errorf("max degree = %d, want a high-degree tail (>=20)", g.MaxDegree())
	}
}

func TestBarabasiAlbertSmallDiameter(t *testing.T) {
	g, err := BarabasiAlbert(rng.New(7), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The paper cites [25]: 95% of node pairs within 7 hops. BA graphs
	// are small-world; check eccentricity from a sample of sources.
	for _, start := range []NodeID{0, 500, 1999} {
		ecc, reached := g.EccentricityFrom(start)
		if reached != 2000 {
			t.Fatalf("BFS from %d reached %d nodes", start, reached)
		}
		if ecc > 10 {
			t.Errorf("eccentricity from %d = %d, want small-world (<=10)", start, ecc)
		}
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	src := rng.New(1)
	if _, err := BarabasiAlbert(src, 3, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := BarabasiAlbert(src, 3, 3); err == nil {
		t.Error("n <= m accepted")
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	g1, err := BarabasiAlbert(rng.New(99), 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BarabasiAlbert(rng.New(99), 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for v := NodeID(0); v < 300; v++ {
		if g1.Degree(v) != g2.Degree(v) {
			t.Fatalf("degree(%d) differs between same-seed runs", v)
		}
	}
}

func TestRingLattice(t *testing.T) {
	g, err := RingLattice(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := NodeID(0); v < 10; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if !g.IsConnected() {
		t.Fatal("ring must be connected")
	}
	if _, err := RingLattice(4, 2); err == nil {
		t.Error("2k >= n accepted")
	}
}

func TestComponentSizeOnDisconnected(t *testing.T) {
	b := NewBuilder(5)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.IsConnected() {
		t.Fatal("graph should be disconnected")
	}
	if got := g.ComponentSize(0); got != 2 {
		t.Errorf("component(0) = %d", got)
	}
	if got := g.ComponentSize(4); got != 1 {
		t.Errorf("component(4) = %d", got)
	}
}

func TestDegreeHistogramSums(t *testing.T) {
	g, err := BarabasiAlbert(rng.New(3), 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	hist := g.DegreeHistogram()
	total, degSum := 0, 0
	for d, c := range hist {
		total += c
		degSum += d * c
	}
	if total != 500 {
		t.Errorf("histogram covers %d nodes", total)
	}
	if degSum != 2*g.NumEdges() {
		t.Errorf("degree sum %d != 2*edges %d", degSum, 2*g.NumEdges())
	}
}

func BenchmarkBarabasiAlbert2000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BarabasiAlbert(rng.New(uint64(i)), 2000, 3); err != nil {
			b.Fatal(err)
		}
	}
}
