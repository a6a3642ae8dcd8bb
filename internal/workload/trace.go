package workload

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// TraceRecord is one logged query, mirroring the paper's trace
// collection experiment (§2.3): a monitoring super-node logged every
// query flooding past it over 24 hours (13,075,339 queries, 112 MB),
// and the DDoS-agent prototype replays such a log.
type TraceRecord struct {
	TimestampMS int64           // milliseconds since trace start
	Issuer      topology.NodeID // observed source (simulation id)
	Object      ObjectID        // searched object
	Keywords    string          // human-readable query string
}

// TraceWriter streams TraceRecords to a text log (one record per line:
// "ts_ms issuer object keywords"). Wrap w with gzip by passing
// compress=true to NewTraceWriter.
type TraceWriter struct {
	bw *bufio.Writer
	gz *gzip.Writer
}

// NewTraceWriter creates a writer over w, optionally gzip-compressed.
func NewTraceWriter(w io.Writer, compress bool) *TraceWriter {
	tw := &TraceWriter{}
	if compress {
		tw.gz = gzip.NewWriter(w)
		tw.bw = bufio.NewWriter(tw.gz)
	} else {
		tw.bw = bufio.NewWriter(w)
	}
	return tw
}

// Write appends one record.
func (tw *TraceWriter) Write(r TraceRecord) error {
	if strings.ContainsAny(r.Keywords, "\n\r") {
		return fmt.Errorf("workload: keywords contain newline")
	}
	_, err := fmt.Fprintf(tw.bw, "%d %d %d %s\n", r.TimestampMS, r.Issuer, r.Object, r.Keywords)
	return err
}

// Close flushes buffers (and the gzip stream if enabled).
func (tw *TraceWriter) Close() error {
	if err := tw.bw.Flush(); err != nil {
		return err
	}
	if tw.gz != nil {
		return tw.gz.Close()
	}
	return nil
}

// TraceReader streams records back from a log produced by TraceWriter.
type TraceReader struct {
	sc   *bufio.Scanner
	gz   *gzip.Reader
	line int
}

// NewTraceReader opens a trace stream; set compressed if the log was
// written with compression.
func NewTraceReader(r io.Reader, compressed bool) (*TraceReader, error) {
	tr := &TraceReader{}
	if compressed {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("workload: opening gzip trace: %w", err)
		}
		tr.gz = gz
		tr.sc = bufio.NewScanner(gz)
	} else {
		tr.sc = bufio.NewScanner(r)
	}
	tr.sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return tr, nil
}

// Read returns the next record, or io.EOF at end of trace.
func (tr *TraceReader) Read() (TraceRecord, error) {
	var rec TraceRecord
	if !tr.sc.Scan() {
		if err := tr.sc.Err(); err != nil {
			return rec, err
		}
		return rec, io.EOF
	}
	tr.line++
	line := tr.sc.Text()
	parts := strings.SplitN(line, " ", 4)
	if len(parts) < 3 {
		return rec, fmt.Errorf("workload: trace line %d malformed: %q", tr.line, line)
	}
	ts, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("workload: trace line %d timestamp: %w", tr.line, err)
	}
	issuer, err := strconv.ParseInt(parts[1], 10, 32)
	if err != nil {
		return rec, fmt.Errorf("workload: trace line %d issuer: %w", tr.line, err)
	}
	obj, err := strconv.ParseInt(parts[2], 10, 32)
	if err != nil {
		return rec, fmt.Errorf("workload: trace line %d object: %w", tr.line, err)
	}
	// The scanner strips one trailing '\r' (CRLF logs); any other is a
	// byte TraceWriter refuses to write, so the record could not be
	// replayed into a log again.
	if len(parts) == 4 && strings.ContainsRune(parts[3], '\r') {
		return rec, fmt.Errorf("workload: trace line %d keywords contain a carriage return", tr.line)
	}
	rec.TimestampMS = ts
	rec.Issuer = topology.NodeID(issuer)
	rec.Object = ObjectID(obj)
	if len(parts) == 4 {
		rec.Keywords = parts[3]
	}
	return rec, nil
}

// Close releases the gzip reader if any.
func (tr *TraceReader) Close() error {
	if tr.gz != nil {
		return tr.gz.Close()
	}
	return nil
}

// keyword dictionary for synthetic query strings; drawn from the flavor
// of popular Gnutella-era searches.
var keywordDict = []string{
	"mp3", "live", "remix", "album", "divx", "dvd", "rip", "screener",
	"linux", "iso", "crack", "ebook", "pdf", "season", "episode",
	"soundtrack", "unplugged", "greatest", "hits", "concert", "acoustic",
}

// SynthesizeKeywords renders a plausible query string for an object.
func SynthesizeKeywords(o ObjectID, src *rng.Source) string {
	w1 := keywordDict[src.Intn(len(keywordDict))]
	w2 := keywordDict[src.Intn(len(keywordDict))]
	return fmt.Sprintf("%s %s obj%d", w1, w2, o)
}

// GenerateTrace synthesizes a trace of the given duration: peers in
// [0, numPeers) issue queries at ratePerMin with Zipf object choice,
// emitted in timestamp order. It returns the number of records written.
func GenerateTrace(tw *TraceWriter, cat *Catalog, numPeers int, ratePerMin float64, durationSec int, src *rng.Source) (uint64, error) {
	if numPeers <= 0 || durationSec <= 0 {
		return 0, fmt.Errorf("workload: GenerateTrace numPeers=%d duration=%d", numPeers, durationSec)
	}
	perSec := ratePerMin / 60 * float64(numPeers)
	var written uint64
	var batch []TraceRecord
	objects := cat.Sampler()
	for sec := 0; sec < durationSec; sec++ {
		n := src.Poisson(perSec)
		batch = batch[:0]
		for i := 0; i < n; i++ {
			obj := objects.Object()
			batch = append(batch, TraceRecord{
				TimestampMS: int64(sec)*1000 + int64(src.Intn(1000)),
				Issuer:      topology.NodeID(src.Intn(numPeers)),
				Object:      obj,
				Keywords:    SynthesizeKeywords(obj, src),
			})
		}
		sort.Slice(batch, func(i, j int) bool { return batch[i].TimestampMS < batch[j].TimestampMS })
		for _, rec := range batch {
			if err := tw.Write(rec); err != nil {
				return written, err
			}
			written++
		}
	}
	return written, nil
}
