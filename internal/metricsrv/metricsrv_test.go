package metricsrv

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ddpolice/internal/journal"
	"ddpolice/internal/telemetry"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestServeEndpoints(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("gnet.reconnect_ok").Add(3)
	reg.Histogram("flood.hit_hops").Observe(2)
	jr := journal.New(8)
	for i := 0; i < 12; i++ {
		jr.Record(journal.Event{T: float64(i), Type: journal.TypeNTReport, Peer: 7})
	}
	srv, err := Serve("127.0.0.1:0", Config{
		Registry: reg,
		Journal:  jr,
		Health:   func() map[string]any { return map[string]any{"node_id": 42} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body, ctype := get(t, base+"/metrics")
	if code != 200 || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics: code=%d type=%q", code, ctype)
	}
	for _, want := range []string{
		"# TYPE gnet_reconnect_ok counter", "gnet_reconnect_ok 3",
		"# TYPE flood_hit_hops histogram", `flood_hit_hops_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get(t, base+"/healthz")
	if code != 200 {
		t.Fatalf("healthz code = %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if doc["status"] != "ok" || doc["node_id"] != float64(42) {
		t.Fatalf("healthz doc = %v", doc)
	}
	if doc["journal_events"] != float64(8) || doc["journal_dropped"] != float64(4) {
		t.Fatalf("healthz journal fields = %v", doc)
	}

	code, body, ctype = get(t, base+"/journal?n=3")
	if code != 200 || ctype != "application/x-ndjson" {
		t.Fatalf("journal: code=%d type=%q", code, ctype)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal tail lines = %d:\n%s", len(lines), body)
	}
	var last journal.Event
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Seq != 12 || last.Peer != 7 {
		t.Fatalf("last journal event = %+v", last)
	}
	if code, _, _ := get(t, base+"/journal?n=bogus"); code != 400 {
		t.Fatalf("bad n accepted: %d", code)
	}

	// The ?since cursor returns only events strictly newer than the
	// given sequence number, so a poller can resume where it left off.
	code, body, _ = get(t, base+"/journal?since=10")
	if code != 200 {
		t.Fatalf("journal since: code=%d", code)
	}
	lines = strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("since=10 lines = %d:\n%s", len(lines), body)
	}
	var first journal.Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 11 {
		t.Fatalf("since=10 first seq = %d", first.Seq)
	}
	if code, body, _ := get(t, base+"/journal?since=12"); code != 200 || strings.TrimSpace(body) != "" {
		t.Fatalf("since=latest: code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, base+"/journal?since=-1"); code != 400 {
		t.Fatalf("bad since accepted: %d", code)
	}
}

// TestPrometheusOverloadMetrics: the live node's overload and reconnect
// instruments must surface in the exposition with legal names and HELP/TYPE preambles,
// since dashboards key on them during incident response.
func TestPrometheusOverloadMetrics(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("gnet.shed_query").Add(17)
	reg.Counter("gnet.shed_control").Add(2)
	reg.Gauge("gnet.reconnect_backoff_max_ms").Set(3)

	srv, err := Serve("127.0.0.1:0", Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("metrics code = %d", code)
	}
	for name, typ := range map[string]string{
		"gnet_shed_query":               "counter",
		"gnet_shed_control":             "counter",
		"gnet_reconnect_backoff_max_ms": "gauge",
	} {
		if !strings.Contains(body, "# HELP "+name+" ") {
			t.Fatalf("missing HELP for %s:\n%s", name, body)
		}
		if !strings.Contains(body, "# TYPE "+name+" "+typ) {
			t.Fatalf("missing TYPE for %s:\n%s", name, body)
		}
	}
	legal := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		name, _, _ = strings.Cut(name, "{")
		if !legal.MatchString(name) {
			t.Fatalf("illegal metric name %q", name)
		}
	}
}

// TestConcurrentScrape hammers every endpoint while the registry and
// journal churn underneath — the race detector turns any
// unsynchronized snapshot path into a failure.
func TestConcurrentScrape(t *testing.T) {
	reg := telemetry.New()
	jr := journal.New(64)
	srv, err := Serve("127.0.0.1:0", Config{Registry: reg, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const iters = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: mutate both data sources
		defer wg.Done()
		ctr := reg.Counter("gnet.shed_query")
		gauge := reg.Gauge("gnet.reconnect_backoff_max_ms")
		for i := 0; i < iters*4; i++ {
			ctr.Add(1)
			gauge.Set(int64(i % 2))
			jr.Record(journal.Event{T: float64(i), Type: journal.TypeShed, Value: 1})
		}
	}()
	go func() { // scraper: read every endpoint repeatedly
		defer wg.Done()
		for i := 0; i < iters; i++ {
			for _, path := range []string{"/metrics", "/healthz", "/journal", "/journal?since=5"} {
				if code, _, _ := get(t, base+path); code != 200 {
					t.Errorf("%s code = %d", path, code)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestServeNilInputs: the plane must degrade to empty documents, not
// panic, when a binary enables only part of it. The journal is the one
// record stream: there is no trace_* health field.
func TestServeNilInputs(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if code, body, _ := get(t, base+"/metrics"); code != 200 || body != "" {
		t.Fatalf("nil metrics: code=%d body=%q", code, body)
	}
	code, body, _ := get(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("nil healthz: code=%d body=%q", code, body)
	}
	for _, want := range []string{`"journal_events":0`, `"journal_dropped":0`} {
		if !strings.Contains(body, want) {
			t.Errorf("nil healthz lacks %s: %s", want, body)
		}
	}
	for _, absent := range []string{`"trace_spans"`, `"trace_dropped"`} {
		if strings.Contains(body, absent) {
			t.Errorf("healthz reports %s: %s", absent, body)
		}
	}
	if code, body, _ := get(t, base+"/journal"); code != 200 || strings.TrimSpace(body) != "" {
		t.Fatalf("nil journal: code=%d body=%q", code, body)
	}
}

// TestTraceNeedsATracer: flood records are journal records, so even a
// server with every input set has no /trace route; the journal serves
// them.
func TestTraceNeedsATracer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{Registry: telemetry.New(), Journal: journal.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if code, _, _ := get(t, base+"/trace"); code != 404 {
		t.Errorf("/trace: code=%d, want 404", code)
	}
	for _, path := range []string{"/metrics", "/healthz", "/journal"} {
		if code, _, _ := get(t, base+path); code != 200 {
			t.Errorf("%s: code=%d, want 200", path, code)
		}
	}
}
