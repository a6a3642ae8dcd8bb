package workload

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"ddpolice/internal/rng"
)

// FuzzNewCatalog drives NewCatalog with arbitrary configs of at most
// 2,000 objects on at most 500 peers, NaN, infinite, zero and negative
// floats included. Each must either be refused with an error that names
// a field, or give a catalog whose every list holds distinct peers in
// range, with a bitset exactly when it has at least two holders per
// bitset word, equal to the list, and whose sampler's first draw is an
// object of the catalog. `go test` runs the seed corpus (the default
// config and every refused row); `go test -fuzz=FuzzNewCatalog
// ./internal/workload` explores further.
func FuzzNewCatalog(f *testing.F) {
	add := func(cfg CatalogConfig, peers int16) {
		f.Add(int16(cfg.NumObjects), cfg.ZipfExponent, cfg.MeanReplicas, cfg.ReplicationSkew, int16(cfg.MinReplicas), peers, uint64(1))
	}
	def := DefaultCatalogConfig()
	def.NumObjects = 2000
	add(def, 500)
	add(def, 1)
	add(def, 0)
	for _, tc := range refusedCatalogs() {
		tc.cfg.NumObjects = min(tc.cfg.NumObjects, 2000)
		add(tc.cfg, 300)
	}
	for _, s := range []float64{0, 1, 1 - 1e-12, 700, 1e300, math.MaxFloat64} {
		add(CatalogConfig{NumObjects: 50, ZipfExponent: s, MeanReplicas: 4, ReplicationSkew: 0.5, MinReplicas: 2}, 64)
	}

	fields := []string{"NumObjects = ", "ZipfExponent = ", "MeanReplicas = ", "ReplicationSkew = ", "MinReplicas = ", "numPeers = "}
	f.Fuzz(func(t *testing.T, objects int16, zipf, mean, skew float64, minReplicas, peers int16, seed uint64) {
		if objects > 2000 || peers > 500 {
			return
		}
		cfg := CatalogConfig{NumObjects: int(objects), ZipfExponent: zipf, MeanReplicas: mean, ReplicationSkew: skew, MinReplicas: int(minReplicas)}
		c, err := NewCatalog(cfg, int(peers), rng.New(seed))
		if err != nil {
			for _, field := range fields {
				if strings.Contains(err.Error(), field) {
					return
				}
			}
			t.Fatalf("%+v on %d peers: error %q names no field", cfg, peers, err)
		}
		for o := range ObjectID(len(c.popularity)) {
			if err := checkReplicas(c.Holders(o), int(peers)); err != nil {
				t.Fatalf("%+v on %d peers, object %d: %v", cfg, peers, o, err)
			}
		}
		if o := c.Sampler().Object(); o < 0 || int(o) >= cfg.NumObjects {
			t.Fatalf("%+v: first draw %d of %d objects", cfg, o, cfg.NumObjects)
		}
	})
}

// FuzzTraceReader drives NewTraceReader, plain and gzip, with arbitrary
// bytes: it must never panic, and any stream it reads to the end must
// survive write → read unchanged, record for record. `go test` runs the
// seed corpus; `go test -fuzz=FuzzTraceReader ./internal/workload`
// explores further.
func FuzzTraceReader(f *testing.F) {
	recs := []TraceRecord{
		{TimestampMS: 0, Issuer: 1, Object: 2, Keywords: "mp3 live obj2"},
		{TimestampMS: 1500, Issuer: 42, Object: 0, Keywords: ""},
		{TimestampMS: 99999, Issuer: 1999, Object: 9999, Keywords: "a b c d"},
	}
	for _, compressed := range []bool{false, true} {
		seed, err := writeTrace(recs, compressed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, compressed)
	}
	f.Add([]byte("not a record\n"), false)
	f.Add([]byte("1 2 3 kw\r\n4 5 6"), false)
	f.Add([]byte{0x1f, 0x8b}, true)

	f.Fuzz(func(t *testing.T, data []byte, compressed bool) {
		got, err := readTrace(data, compressed)
		if err != nil {
			return
		}
		wire, err := writeTrace(got, compressed)
		if err != nil {
			t.Fatalf("accepted records do not write: %v\n%+v", err, got)
		}
		back, err := readTrace(wire, compressed)
		if err != nil {
			t.Fatalf("re-reading what was written: %v\n%q", err, wire)
		}
		if len(back) != len(got) {
			t.Fatalf("%d records read back, want %d", len(back), len(got))
		}
		for i := range back {
			if back[i] != got[i] {
				t.Fatalf("record %d round trip = %+v, want %+v", i, back[i], got[i])
			}
		}
	})
}

func writeTrace(recs []TraceRecord, compressed bool) ([]byte, error) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, compressed)
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			return nil, err
		}
	}
	err := tw.Close()
	return buf.Bytes(), err
}

// readTrace reads a whole trace; a stream is accepted only if every line
// parses and it ends cleanly.
func readTrace(data []byte, compressed bool) ([]TraceRecord, error) {
	tr, err := NewTraceReader(bytes.NewReader(data), compressed)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	var out []TraceRecord
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
