package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"ddpolice/internal/trace"
)

func tracedConfig() Config {
	cfg := equalityConfig()
	cfg.PoliceEnabled = true
	cfg.NumAgents = 4
	return cfg
}

// runTraced executes one config with a fully-sampled tracer attached
// and returns the result and journal plus the trace NDJSON.
func runTraced(t *testing.T, cfg Config) (res *Result, jrnl, spans []byte) {
	t.Helper()
	tr := trace.New(1.0, 0)
	cfg.Trace = tr
	res, jrnl = runInstrumented(t, cfg)
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, jrnl, buf.Bytes()
}

// TestTraceByteIdentical is the tentpole acceptance property: two runs
// of the same seed emit byte-identical trace NDJSON, and the stream
// covers all three lifecycles (query, detection, overload).
func TestTraceByteIdentical(t *testing.T) {
	t.Parallel()
	cfg := tracedConfig()
	_, _, spansA := runTraced(t, cfg)
	_, _, spansB := runTraced(t, cfg)
	if !bytes.Equal(spansA, spansB) {
		t.Fatalf("trace streams diverged (%d vs %d bytes)", len(spansA), len(spansB))
	}

	parsed, err := trace.ReadNDJSON(bytes.NewReader(spansA))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, s := range parsed {
		kinds[s.Kind]++
	}
	for _, want := range []string{
		trace.KindQueryIssue, trace.KindHop, trace.KindDelivery,
		trace.KindWarning, trace.KindNTRequest, trace.KindIndicator,
		trace.KindCut, trace.KindOverload,
	} {
		if kinds[want] == 0 {
			t.Fatalf("no %q spans in a police+attack run: %v", want, kinds)
		}
	}
}

// TestTracePassive: attaching a tracer must not perturb the run — the
// Result and journal stay byte-identical to an untraced
// run of the same seed.
func TestTracePassive(t *testing.T) {
	t.Parallel()
	cfg := tracedConfig()
	plain, jrP := runInstrumented(t, cfg)
	traced, jrT, spans := runTraced(t, cfg)
	assertSameRun(t, "traced-vs-untraced", "untraced", "traced",
		plain, traced, jrP, jrT)
	if len(spans) == 0 {
		t.Fatal("passivity test ran without any spans (vacuous)")
	}
}

// TestTraceCacheByteIdentical: the flood visit hook must observe the
// same visit sequence from a cache replay as from a live traversal, so
// traces survive the cached/uncached split byte-for-byte.
func TestTraceCacheByteIdentical(t *testing.T) {
	t.Parallel()
	cfg := tracedConfig()
	_, _, spansC := runTraced(t, cfg)
	uc := cfg
	uc.DisableFloodCache = true
	_, _, spansU := runTraced(t, uc)
	if !bytes.Equal(spansC, spansU) {
		t.Fatalf("cached/uncached trace streams diverged (%d vs %d bytes)", len(spansC), len(spansU))
	}
}

// TestTraceSampling: at sample rate 0 the tracer stays empty; at a
// partial rate the sampled subset is a deterministic, per-trace-complete
// subset of the full stream.
func TestTraceSampling(t *testing.T) {
	cfg := tracedConfig()
	cfg.DurationSec = 180

	zero := trace.New(0, 0)
	cz := cfg
	cz.Trace = zero
	if _, err := Run(cz); err != nil {
		t.Fatal(err)
	}
	if zero.Len() != 0 {
		t.Fatalf("rate 0 recorded %d spans", zero.Len())
	}

	full := trace.New(1.0, 0)
	cf := cfg
	cf.Trace = full
	if _, err := Run(cf); err != nil {
		t.Fatal(err)
	}
	part := trace.New(0.25, 0)
	cp := cfg
	cp.Trace = part
	if _, err := Run(cp); err != nil {
		t.Fatal(err)
	}
	if part.Len() == 0 || part.Len() >= full.Len() {
		t.Fatalf("partial sample len = %d (full %d)", part.Len(), full.Len())
	}
	// Every sampled trace appears whole: group both streams and compare
	// the sampled IDs' span sets against the full run.
	fullByID := map[string]int{}
	for _, tv := range trace.Group(full.Spans()) {
		fullByID[tv.ID] = len(tv.Spans)
	}
	for _, tv := range trace.Group(part.Spans()) {
		if n, ok := fullByID[tv.ID]; !ok || n != len(tv.Spans) {
			t.Fatalf("sampled trace %s has %d spans, full run has %d", tv.ID, len(tv.Spans), n)
		}
	}
}

// TestTraceDetectionPathMatchesJournal: the detection critical path
// reconstructed from spans must agree with the journal's cut record.
func TestTraceDetectionPathMatchesJournal(t *testing.T) {
	t.Parallel()
	cfg := tracedConfig()
	_, jrnl, spans := runTraced(t, cfg)
	parsed, err := trace.ReadNDJSON(bytes.NewReader(spans))
	if err != nil {
		t.Fatal(err)
	}
	paths := trace.DetectionPaths(trace.Group(parsed))
	var cutPaths []trace.DetectionPath
	for _, p := range paths {
		if p.CutSec >= 0 {
			cutPaths = append(cutPaths, p)
		}
	}
	if len(cutPaths) == 0 {
		t.Fatal("no cut detection paths in a police+attack run")
	}
	for _, p := range cutPaths {
		if p.RequestSec < 0 || p.IndicSec < 0 {
			t.Fatalf("cut path skipped stages: %+v", p)
		}
		if p.CutSec < p.RequestSec || p.IndicSec < p.RequestSec {
			t.Fatalf("stage times out of order: %+v", p)
		}
	}
	// Every traced cut corresponds to a journaled cut by (node, suspect).
	type cutKey struct{ node, peer int64 }
	journaled := map[cutKey]bool{}
	for _, line := range bytes.Split(jrnl, []byte("\n")) {
		if bytes.Contains(line, []byte(`"type":"cut"`)) {
			var e struct {
				Node int64 `json:"node"`
				Peer int64 `json:"peer"`
			}
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatal(err)
			}
			journaled[cutKey{e.Node, e.Peer}] = true
		}
	}
	for _, p := range cutPaths {
		if !journaled[cutKey{p.Node, p.Suspect}] {
			t.Fatalf("traced cut %+v has no journal record", p)
		}
	}
}

// TestSampledOutTracerAllocsConstant: a tracer that samples every query
// out may cost the steady 2k loop a constant number of allocations (the
// one queryTracePool), never one per query. Mallocs is differenced as
// in TestTickMarginalAllocsBounded, so the property holds on any box —
// it is what the old 1.03x timing ratio stood for.
func TestSampledOutTracerAllocsConstant(t *testing.T) {
	cfg := steady2kConfig()
	cfg.DurationSec = 120
	plain, res := runMallocs(t, cfg)
	tr := trace.New(0, 0)
	cfg.Trace = tr
	sampledOut, _ := runMallocs(t, cfg)
	queries := res.QueriesIssued
	if tr.Len() != 0 || queries < 1000 {
		t.Fatalf("%d spans recorded over %d queries: want none, over enough queries to tell", tr.Len(), queries)
	}
	// Identical runs differ by ~15 mallocs (runtime background); one
	// allocation per query would add `queries`.
	extra := int64(sampledOut) - int64(plain)
	t.Logf("mallocs: untraced %d, sampled-out %d (%+d) over %d queries", plain, sampledOut, extra, queries)
	if extra > int64(queries/10) {
		t.Fatalf("sampled-out tracer added %d allocations over %d queries, want O(1)", extra, queries)
	}
}
