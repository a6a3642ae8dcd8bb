package workload

import (
	"bytes"
	"io"
	"testing"
)

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
