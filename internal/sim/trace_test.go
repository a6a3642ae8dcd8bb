package sim

import (
	"bytes"
	"slices"
	"testing"

	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
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

// TestTraceByteIdentical: two runs of one seed emit byte-identical trace
// NDJSON, and the stream is the query plane's alone. Police, an attack
// and a brownout under the overload plane leave their record in the
// journal and no span of any other kind.
func TestTraceByteIdentical(t *testing.T) {
	t.Parallel()
	cfg := tracedConfig()
	cfg.Overload = &overload.SimPlane{}
	cfg.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
		{StartSec: 120, EndSec: 240, Peers: []int{10, 11, 12}, Factor: 0.25},
	}}
	_, jrnl, spansA := runTraced(t, cfg)
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
	queryKinds := []string{trace.KindQueryIssue, trace.KindHop, trace.KindDelivery, trace.KindTTLDeath, trace.KindCongestion}
	for kind, n := range kinds {
		if !slices.Contains(queryKinds, kind) {
			t.Errorf("%d %q spans: a kind outside a query's flood %v", n, kind, queryKinds)
		}
	}
	for _, want := range queryKinds[:3] {
		if kinds[want] == 0 {
			t.Errorf("no %q spans in a police+attack run: %v", want, kinds)
		}
	}
	for _, typ := range []string{journal.TypeWarning, journal.TypeCut, journal.TypeOverload, journal.TypeShed} {
		if len(journalEvents(t, jrnl, typ)) == 0 {
			t.Errorf("no %q record journaled", typ)
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
