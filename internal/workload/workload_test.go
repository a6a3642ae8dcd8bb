package workload

import (
	"bytes"
	"io"
	"math"
	"slices"
	"testing"

	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

func testCatalog(t *testing.T, cfg CatalogConfig, peers int, seed uint64) *Catalog {
	t.Helper()
	c, err := NewCatalog(cfg, peers, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogInvariants(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.NumObjects = 500
	c := testCatalog(t, cfg, 2000, 1)
	if c.NumObjects() != 500 {
		t.Fatalf("objects = %d", c.NumObjects())
	}
	var totalReplicas int
	for o := ObjectID(0); o < 500; o++ {
		hs := c.Holders(o)
		if len(hs) < cfg.MinReplicas {
			t.Fatalf("object %d has %d replicas, below floor %d", o, len(hs), cfg.MinReplicas)
		}
		seen := map[topology.NodeID]bool{}
		for _, h := range hs {
			if h < 0 || int(h) >= 2000 {
				t.Fatalf("holder %d out of range", h)
			}
			if seen[h] {
				t.Fatalf("object %d has duplicate holder %d", o, h)
			}
			seen[h] = true
		}
		totalReplicas += len(hs)
	}
	mean := float64(totalReplicas) / 500
	// The MinReplicas floor only inflates the mean, and the truncation
	// to int deflates it slightly.
	if mean < cfg.MeanReplicas*0.8 || mean > cfg.MeanReplicas*2 {
		t.Fatalf("mean replicas = %v, want near %v", mean, cfg.MeanReplicas)
	}
}

func TestReplicationFollowsPopularity(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.NumObjects = 1000
	cfg.ReplicationSkew = 1
	c := testCatalog(t, cfg, 5000, 2)
	// Rank-0 object must have strictly more replicas than rank-999.
	if len(c.Holders(0)) <= len(c.Holders(999)) {
		t.Fatalf("top object %d replicas <= tail %d", len(c.Holders(0)), len(c.Holders(999)))
	}
	if c.Popularity(0) <= c.Popularity(999) {
		t.Fatal("popularity not rank ordered")
	}
}

func TestUniformReplicationSkewZero(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.NumObjects = 200
	cfg.ReplicationSkew = 0
	cfg.MeanReplicas = 10
	cfg.MinReplicas = 1
	c := testCatalog(t, cfg, 1000, 3)
	for o := ObjectID(0); o < 200; o++ {
		if got := len(c.Holders(o)); got != 10 {
			t.Fatalf("object %d: %d replicas, want exactly 10 under skew 0", o, got)
		}
	}
}

func TestCatalogErrors(t *testing.T) {
	src := rng.New(1)
	bad := []CatalogConfig{
		{NumObjects: 0, MeanReplicas: 1, MinReplicas: 1},
		{NumObjects: 10, MeanReplicas: 0, MinReplicas: 1},
		{NumObjects: 10, MeanReplicas: 5, MinReplicas: 0},
	}
	for i, cfg := range bad {
		if _, err := NewCatalog(cfg, 100, src); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewCatalog(DefaultCatalogConfig(), 0, src); err == nil {
		t.Error("zero peers accepted")
	}
}

func TestSampleObjectDistribution(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.NumObjects = 100
	c := testCatalog(t, cfg, 500, 4)
	counts := make([]int, 100)
	const draws = 200000
	objects := c.Sampler()
	for i := 0; i < draws; i++ {
		counts[objects.Object()]++
	}
	for _, o := range []ObjectID{0, 10, 50} {
		want := c.Popularity(o)
		got := float64(counts[o]) / draws
		if math.Abs(got-want) > 4*math.Sqrt(want/draws)+0.002 {
			t.Errorf("object %d: freq %.5f, want %.5f", o, got, want)
		}
	}
}

func TestQueryGenRate(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.NumObjects = 50
	c := testCatalog(t, cfg, 100, 5)
	qg, err := NewQueryGen(c, 0.3, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	online := make([]topology.NodeID, 100)
	for i := range online {
		online[i] = topology.NodeID(i)
	}
	var total int
	const ticks = 6000 // 100 simulated minutes
	for i := 0; i < ticks; i++ {
		got := qg.Tick(online, 1, nil)
		total += len(got)
		for _, q := range got {
			if q.Issuer < 0 || int(q.Issuer) >= 100 {
				t.Fatalf("issuer %d out of range", q.Issuer)
			}
			if q.Object < 0 || int(q.Object) >= 50 {
				t.Fatalf("object %d out of range", q.Object)
			}
		}
	}
	// Expected: 0.3/min * 100 peers * 100 min = 3000.
	if total < 2700 || total > 3300 {
		t.Fatalf("generated %d queries, want ~3000", total)
	}
	if qg.Issued() != uint64(total) {
		t.Fatalf("Issued() = %d, want %d", qg.Issued(), total)
	}
}

// TestSharedCatalogQueryStreams: a catalog is shared between runs, so two
// generators built on one must emit what two built on two identically
// seeded catalogs emit — each starts at the head of the catalog's object
// stream — and drawing from one must not move the other: a sampler kept
// in the catalog would make the second generator continue where the
// first stopped.
func TestSharedCatalogQueryStreams(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.NumObjects = 200
	online := make([]topology.NodeID, 300)
	for i := range online {
		online[i] = topology.NodeID(i)
	}
	gen := func(c *Catalog) *QueryGen {
		qg, err := NewQueryGen(c, 6, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		return qg
	}
	drain := func(qg *QueryGen) (out []Query) {
		for i := 0; i < 50; i++ {
			out = qg.Tick(online, 1, out)
		}
		return out
	}
	want := drain(gen(testCatalog(t, cfg, 300, 3)))
	if len(want) < 1000 {
		t.Fatalf("only %d queries (vacuous)", len(want))
	}
	shared := testCatalog(t, cfg, 300, 3)
	a, b := gen(shared), gen(shared)
	gotA := drain(a) // b has drawn nothing yet
	if gotB := drain(b); !slices.Equal(gotA, want) || !slices.Equal(gotB, want) {
		t.Error("generators on one shared catalog differ from generators on catalogs of their own")
	}
	// Interleaved, tick by tick: still the one stream each.
	a, b = gen(shared), gen(shared)
	var gotA2, gotB2 []Query
	for i := 0; i < 50; i++ {
		gotA2, gotB2 = a.Tick(online, 1, gotA2), b.Tick(online, 1, gotB2)
	}
	if !slices.Equal(gotA2, want) || !slices.Equal(gotB2, want) {
		t.Error("interleaved generators on one catalog moved each other's stream")
	}
}

// TestSamplePeersRestoresIdentity: the scratch permutation NewCatalog
// hands samplePeers must come back the identity, whatever was drawn, or
// the next object's holders are drawn from a shuffled population.
func TestSamplePeersRestoresIdentity(t *testing.T) {
	src := rng.New(17)
	perm := make([]topology.NodeID, 40)
	for i := range perm {
		perm[i] = topology.NodeID(i)
	}
	for _, count := range []int{0, 1, 7, 39, 40} {
		for rep := 0; rep < 50; rep++ {
			out := samplePeers(src, perm, count)
			seen := map[topology.NodeID]bool{}
			for _, v := range out {
				if v < 0 || int(v) >= len(perm) || seen[v] {
					t.Fatalf("count %d: holders %v out of range or repeated", count, out)
				}
				seen[v] = true
			}
			for i, v := range perm {
				if v != topology.NodeID(i) {
					t.Fatalf("count %d: perm[%d] = %d after the draw", count, i, v)
				}
			}
		}
	}
}

func TestQueryGenEmptyOnline(t *testing.T) {
	c := testCatalog(t, CatalogConfig{NumObjects: 10, ZipfExponent: 1, MeanReplicas: 2, ReplicationSkew: 1, MinReplicas: 1}, 10, 7)
	qg, err := NewQueryGen(c, 100, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := qg.Tick(nil, 1, nil); len(got) != 0 {
		t.Fatalf("queries from empty population: %v", got)
	}
	if _, err := NewQueryGen(c, -1, rng.New(9)); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		var buf bytes.Buffer
		tw := NewTraceWriter(&buf, compressed)
		recs := []TraceRecord{
			{TimestampMS: 0, Issuer: 1, Object: 2, Keywords: "mp3 live obj2"},
			{TimestampMS: 1500, Issuer: 42, Object: 0, Keywords: ""},
			{TimestampMS: 99999, Issuer: 1999, Object: 9999, Keywords: "a b c d"},
		}
		for _, r := range recs {
			if err := tw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := NewTraceReader(&buf, compressed)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range recs {
			got, err := tr.Read()
			if err != nil {
				t.Fatalf("compressed=%v record %d: %v", compressed, i, err)
			}
			if got != want {
				t.Fatalf("compressed=%v record %d = %+v, want %+v", compressed, i, got, want)
			}
		}
		if _, err := tr.Read(); err != io.EOF {
			t.Fatalf("want EOF, got %v", err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTraceWriterRejectsNewlines(t *testing.T) {
	tw := NewTraceWriter(&bytes.Buffer{}, false)
	if err := tw.Write(TraceRecord{Keywords: "evil\ninjection"}); err == nil {
		t.Fatal("newline keywords accepted")
	}
}

func TestTraceReaderMalformed(t *testing.T) {
	tr, err := NewTraceReader(bytes.NewBufferString("not a record\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Read(); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestGenerateTrace(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.NumObjects = 100
	c := testCatalog(t, cfg, 200, 10)
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, false)
	// 200 peers at 30/min for 60 s => ~6000 records.
	n, err := GenerateTrace(tw, c, 200, 30, 60, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if n < 5400 || n > 6600 {
		t.Fatalf("generated %d records, want ~6000", n)
	}
	tr, err := NewTraceReader(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	last := int64(-1)
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.TimestampMS < last {
			t.Fatalf("timestamps out of order: %d after %d", rec.TimestampMS, last)
		}
		last = rec.TimestampMS
		count++
	}
	if count != n {
		t.Fatalf("read %d records, wrote %d", count, n)
	}
}

func TestGenerateTraceErrors(t *testing.T) {
	c := testCatalog(t, CatalogConfig{NumObjects: 10, MeanReplicas: 2, MinReplicas: 1}, 10, 1)
	tw := NewTraceWriter(&bytes.Buffer{}, false)
	if _, err := GenerateTrace(tw, c, 0, 1, 10, rng.New(1)); err == nil {
		t.Error("zero peers accepted")
	}
	if _, err := GenerateTrace(tw, c, 10, 1, 0, rng.New(1)); err == nil {
		t.Error("zero duration accepted")
	}
}

func BenchmarkSampleObject(b *testing.B) {
	c, err := NewCatalog(DefaultCatalogConfig(), 2000, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	objects := c.Sampler()
	for i := 0; i < b.N; i++ {
		objects.Object()
	}
}

func TestFitZipfRecoversExponent(t *testing.T) {
	for _, s := range []float64{0.6, 0.8, 1.2} {
		cfg := DefaultCatalogConfig()
		cfg.NumObjects = 2000
		cfg.ZipfExponent = s
		c := testCatalog(t, cfg, 500, 42)
		counts := make([]uint64, cfg.NumObjects)
		objects := c.Sampler()
		for i := 0; i < 500000; i++ {
			counts[objects.Object()]++
		}
		got, err := FitZipf(counts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-s) > 0.1 {
			t.Errorf("s=%v: fitted %v", s, got)
		}
	}
}

func TestFitZipfErrors(t *testing.T) {
	if _, err := FitZipf([]uint64{5, 3}); err == nil {
		t.Error("two counts accepted")
	}
	if _, err := FitZipf([]uint64{0, 0, 0, 0}); err == nil {
		t.Error("all-zero counts accepted")
	}
	if _, err := FitZipf([]uint64{9, 4, 2, 1}); err != nil {
		t.Errorf("minimal valid input rejected: %v", err)
	}
}
