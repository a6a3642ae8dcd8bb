package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"ddpolice/internal/rng"
)

func TestBuilderRejectsBadEdges(t *testing.T) {
	// One builder for the whole table: each row sees the edges the rows
	// above it added.
	b := NewBuilder(3)
	for _, tc := range []struct {
		name string
		u, v NodeID
		want string // "" = accepted; else a substring of the error
	}{
		{"valid", 0, 1, ""},
		{"self-loop", 1, 1, "self-loop on node 1"},
		{"out of range high", 0, 3, "edge (0,3) out of range [0,3)"},
		{"out of range negative", -1, 2, "edge (-1,2) out of range [0,3)"},
		{"duplicate same orientation", 0, 1, "duplicate edge (0,1)"},
		{"duplicate reversed", 1, 0, "duplicate edge (1,0)"},
		{"second valid", 2, 1, ""},
		{"duplicate of second, reversed", 1, 2, "duplicate edge (1,2)"},
	} {
		err := b.AddEdge(tc.u, tc.v)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: valid edge rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: AddEdge(%d,%d) = %v, want error containing %q", tc.name, tc.u, tc.v, err, tc.want)
		}
	}
	if b.HasEdge(-1, 0) || b.HasEdge(0, 3) || b.HasEdge(0, 2) || !b.HasEdge(2, 1) {
		t.Error("Builder.HasEdge wrong")
	}
	g := b.Build()
	if g.NumEdges() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatalf("rejected edges leaked into the graph: %v", g.adj)
	}
}

// adjDigest is the SHA-256 of g's adjacency: per node, its degree then
// its sorted row, all as little-endian uint32s.
func adjDigest(g *Graph) string {
	h := sha256.New()
	var w [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(w[:], x)
		h.Write(w[:])
	}
	for v := range g.NumNodes() {
		row := g.Neighbors(NodeID(v))
		put(uint32(len(row)))
		for _, u := range row {
			put(uint32(u))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBarabasiAlbertDigests pins the generator's output, row order
// included, to digests taken before the builder lost its edge map: a
// change to the builder or to the sampling must not move a graph.
func TestBarabasiAlbertDigests(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		seed uint64
		want string
	}{
		{12, 2, 3, "8cdd00874aeaa5022b6e93a8d1da750cf1e0485eabf17f89864142b6598272fd"},
		{2000, 3, 1, "8c2f16e229ad0b24439ed07b7608595f8da8b99b59511900c8143cbc4232700a"},
		{40000, 3, 7, "e07e0f920facf16566d3eb1969e87701d8707ffb1e4c03c9b940906b8f3a4a20"},
	} {
		g, err := BarabasiAlbert(rng.New(tc.seed), tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := adjDigest(g); got != tc.want {
			t.Errorf("BA(%d,%d) seed %d: adjacency digest %s, want %s", tc.n, tc.m, tc.seed, got, tc.want)
		}
	}
}

// TestBuildRowsAreClipped: every row of a built graph is sorted and has
// no spare capacity, so an append by a caller cannot write into the next
// node's row of the shared backing array.
func TestBuildRowsAreClipped(t *testing.T) {
	g, err := BarabasiAlbert(rng.New(5), 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range g.NumNodes() {
		row := g.Neighbors(NodeID(v))
		if cap(row) != len(row) {
			t.Fatalf("row %d: len %d cap %d", v, len(row), cap(row))
		}
		if !slices.IsSorted(row) {
			t.Fatalf("row %d not sorted: %v", v, row)
		}
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
	if _, reached := eccentricityFrom(g, 0); reached != 2000 {
		t.Fatal("BA graph must be connected")
	}
	// The paper's BRITE profile: avg degree ~6, most peers with 3-4
	// neighbors, a few with tens.
	if avg := 2 * float64(g.NumEdges()) / 2000; avg < 5.5 || avg > 6.5 {
		t.Errorf("avg degree = %v, want ~6", avg)
	}
	hist := degreeHistogram(g)
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
	if maxDeg := len(hist) - 1; maxDeg < 20 {
		t.Errorf("max degree = %d, want a high-degree tail (>=20)", maxDeg)
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
		ecc, reached := eccentricityFrom(g, start)
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
	if _, reached := eccentricityFrom(g, 0); reached != 10 {
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
	if _, got := eccentricityFrom(g, 0); got != 2 {
		t.Errorf("component(0) = %d", got)
	}
	if _, got := eccentricityFrom(g, 4); got != 1 {
		t.Errorf("component(4) = %d", got)
	}
}

func TestDegreeHistogramSums(t *testing.T) {
	g, err := BarabasiAlbert(rng.New(3), 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	hist := degreeHistogram(g)
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

// degreeHistogram returns counts[d] = number of nodes with degree d;
// its last index is the largest degree.
func degreeHistogram(g *Graph) []int {
	var counts []int
	for v := range g.NumNodes() {
		d := g.Degree(NodeID(v))
		for len(counts) <= d {
			counts = append(counts, 0)
		}
		counts[d]++
	}
	return counts
}

// eccentricityFrom returns the BFS hop distance from start to the
// farthest reachable node, and the number of reachable nodes: the size
// of start's component.
func eccentricityFrom(g *Graph, start NodeID) (maxHops, reached int) {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []NodeID{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		reached++
		maxHops = max(maxHops, int(dist[v]))
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return maxHops, reached
}

func BenchmarkBarabasiAlbert2000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BarabasiAlbert(rng.New(uint64(i)), 2000, 3); err != nil {
			b.Fatal(err)
		}
	}
}
