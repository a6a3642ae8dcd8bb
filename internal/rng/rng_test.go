package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	collisions := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("split streams collided %d/1000 times", collisions)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(10)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(12)
	const lambda, n = 2.5, 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64(lambda)
	}
	if mean := sum / n; math.Abs(mean-1/lambda) > 0.01 {
		t.Fatalf("exp mean = %v, want ~%v", mean, 1/lambda)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(13)
	for _, mean := range []float64{0.3, 3, 20, 100, 2000} {
		const n = 50000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sum2 += v * v
		}
		m := sum / n
		v := sum2/n - m*m
		if math.Abs(m-mean) > 4*math.Sqrt(mean/n)+0.6 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean)/mean > 0.1 {
			t.Errorf("Poisson(%v) variance = %v", mean, v)
		}
	}
}

func TestPoissonZeroAndNegativeMean(t *testing.T) {
	r := New(14)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-5); got != 0 {
		t.Errorf("Poisson(-5) = %d", got)
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := New(15)
	// Paper's lifetime parameterization: mean 600 s, variance = mean/2
	// in minutes => stddev ~134 s; here we test the generic contract.
	const mean, stddev, n = 600.0, 300.0, 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.LogNormal(mean, stddev)
		if v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
		sum += v
		sum2 += v * v
	}
	m := sum / n
	sd := math.Sqrt(sum2/n - m*m)
	if math.Abs(m-mean)/mean > 0.02 {
		t.Errorf("lognormal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(sd-stddev)/stddev > 0.05 {
		t.Errorf("lognormal stddev = %v, want ~%v", sd, stddev)
	}
}

func TestLogNormalZeroStddev(t *testing.T) {
	if got := New(1).LogNormal(42, 0); got != 42 {
		t.Fatalf("LogNormal(42, 0) = %v, want 42", got)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(18)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	if frac := float64(trues) / n; math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkPoissonSmallMean(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Poisson(0.3)
	}
}

func TestSubSeedDeterministicAndPure(t *testing.T) {
	a := SubSeed(42, 7, 9)
	b := SubSeed(42, 7, 9)
	if a != b {
		t.Fatalf("SubSeed not deterministic: %x vs %x", a, b)
	}
	// Purity: deriving other substreams in between must not change it.
	_ = SubSeed(42, 1)
	_ = SubSeed(99, 7, 9)
	if c := SubSeed(42, 7, 9); c != a {
		t.Fatalf("SubSeed depends on call history: %x vs %x", c, a)
	}
}

func TestSubSeedDistinctCoordinates(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for i := uint64(0); i < 512; i++ {
		for j := uint64(0); j < 64; j++ {
			s := SubSeed(1, i, j)
			if prev, dup := seen[s]; dup {
				t.Fatalf("collision: (%d,%d) and (%d,%d) -> %x", i, j, prev[0], prev[1], s)
			}
			seen[s] = [2]uint64{i, j}
		}
	}
	if SubSeed(1, 2, 3) == SubSeed(1, 3, 2) {
		t.Fatal("SubSeed ignores coordinate order")
	}
	if SubSeed(1, 2) == SubSeed(1, 2, 0) {
		t.Fatal("SubSeed ignores a trailing zero coordinate")
	}
	if SubSeed(1) == SubSeed(2) {
		t.Fatal("SubSeed ignores the base seed")
	}
}

func TestSubstreamDecorrelated(t *testing.T) {
	// Neighboring coordinates must yield streams with no obvious bias:
	// the mean of pooled uniform draws stays near 1/2.
	var sum float64
	const streams, draws = 64, 256
	for i := uint64(0); i < streams; i++ {
		src := New(SubSeed(7, i))
		for d := 0; d < draws; d++ {
			sum += src.Float64()
		}
	}
	if mean := sum / (streams * draws); math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("pooled substream mean = %v, want ~0.5", mean)
	}
}
