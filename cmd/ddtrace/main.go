// Command ddtrace analyzes a journal: ddsim -journal, ddnode
// -journal-out, or a node's /journal?n=. A live node's journal holds its
// detection lifecycle and, under -flood-sample, the flood records of the
// queries it saw (query_issue, hop, delivery, congestion_drop), each
// naming its query ID; join several nodes' journals to see one query's
// whole flood.
//
// Summary of a journal:
//
//	ddtrace -in run.journal
//
// One query's flood as an ASCII tree, each hop under the record of the
// node that sent the copy; per-depth flood fan-out; the detection
// critical path (warning -> nt_request -> first report -> indicator ->
// cut stage times, one row per warning); Perfetto conversion of every
// record (at most one of -tree, -fanout, -critical, -perfetto):
//
//	ddtrace -in run.journal -tree <query id>
//	ddtrace -in run.journal -fanout
//	ddtrace -in run.journal -critical
//	ddtrace -in run.journal -perfetto run.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"ddpolice/internal/journal"
	"ddpolice/internal/outfile"
)

func main() {
	var (
		in       = flag.String("in", "", "journal NDJSON file ('-' = stdin)")
		tree     = flag.String("tree", "", "print this query's flood as an ASCII tree ('all' = every query)")
		critical = flag.Bool("critical", false, "print the detection critical-path table")
		fanout   = flag.Bool("fanout", false, "print per-depth flood fan-out across queries")
		perfetto = flag.String("perfetto", "", "convert every record to Chrome trace-event JSON at this path")
	)
	flag.Parse()
	var modes []string
	for _, m := range []struct {
		flag string
		on   bool
	}{{"-critical", *critical}, {"-tree", *tree != ""}, {"-fanout", *fanout}, {"-perfetto", *perfetto != ""}} {
		if m.on {
			modes = append(modes, m.flag)
		}
	}
	if len(modes) > 1 {
		fmt.Fprintf(os.Stderr, "ddtrace: %s and %s are exclusive: give at most one of -critical, -tree, -fanout, -perfetto\n", modes[0], modes[1])
		os.Exit(2)
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	events, err := readJournal(*in)
	if err != nil {
		fatal(err)
	}
	switch {
	case *critical:
		err = printCritical(os.Stdout, detections(events))
	case *perfetto != "":
		err = writePerfetto(*perfetto, events, os.Stdout)
	case *tree != "":
		err = printTrees(os.Stdout, floods(events), *tree)
	case *fanout:
		err = printFanOut(os.Stdout, floods(events))
	default:
		err = printSummary(os.Stdout, events, floods(events))
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddtrace:", err)
	os.Exit(1)
}

func readJournal(path string) ([]journal.Event, error) {
	r := io.ReadCloser(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		r = f
	}
	defer r.Close()
	return journal.ReadNDJSON(r)
}

// flood is one query's flood records, in journal order.
type flood struct {
	id      string
	records []journal.Event
}

// floods groups a journal's flood records by query ID, ordered by each
// query's first appearance; every other record is left out.
func floods(events []journal.Event) []flood {
	idx := make(map[string]int)
	var out []flood
	for _, e := range events {
		if !isFlood(e.Type) {
			continue
		}
		i, ok := idx[e.Detail]
		if !ok {
			i = len(out)
			idx[e.Detail] = i
			out = append(out, flood{id: e.Detail})
		}
		out[i].records = append(out[i].records, e)
	}
	return out
}

// isFlood reports whether typ is one of a live query's flood records.
func isFlood(typ string) bool {
	switch typ {
	case journal.TypeQueryIssue, journal.TypeHop, journal.TypeDelivery, journal.TypeCongestionDrop:
		return true
	}
	return false
}

// printSummary counts records and flooded queries, so a bare `ddtrace
// -in` orients before drilling down.
func printSummary(w io.Writer, events []journal.Event, fl []flood) error {
	n := 0
	for _, f := range fl {
		n += len(f.records)
	}
	_, err := fmt.Fprintf(w, "%d records: %d flood records of %d queries\n", len(events), n, len(fl))
	return err
}

// printTrees renders one query's flood (or every query's) as an ASCII
// tree.
func printTrees(w io.Writer, fl []flood, id string) error {
	printed := false
	for _, f := range fl {
		if id == "all" || f.id == id {
			if err := writeTree(w, f); err != nil {
				return err
			}
			printed = true
		}
	}
	if !printed && id != "all" {
		return fmt.Errorf("query %s not found", id)
	}
	return nil
}

// writeTree prints a flood as a tree. A node's own record is its
// query_issue or its hop, the record of the copy it processed: a hop or
// a congestion_drop nests under its sender's own record one depth up, a
// delivery under its node's own record at the same depth. A record whose
// parent is not in the journal (another node's file, a sampled-out or
// overwritten record) is a root. Parents sit strictly higher, so the
// tree has no cycle whatever the input.
func writeTree(w io.Writer, f flood) error {
	own := make(map[int64]int) // node -> index of its own record
	for i, e := range f.records {
		if _, ok := own[e.Node]; !ok && (e.Type == journal.TypeQueryIssue || e.Type == journal.TypeHop) {
			own[e.Node] = i
		}
	}
	children := make(map[int][]int)
	var roots []int
	for i, e := range f.records {
		from, depth := e.Peer, e.Depth-1
		if e.Type == journal.TypeDelivery {
			from, depth = e.Node, e.Depth
		}
		p, ok := own[from]
		if e.Type == journal.TypeQueryIssue || !ok || f.records[p].Depth != depth {
			roots = append(roots, i)
			continue
		}
		children[p] = append(children[p], i)
	}
	if _, err := fmt.Fprintf(w, "query %s\n", f.id); err != nil {
		return err
	}
	var rec func(i int, prefix string, last bool) error
	rec = func(i int, prefix string, last bool) error {
		e := f.records[i]
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		line := fmt.Sprintf("%s%s%s t=%.3f node=%d", prefix, branch, e.Type, e.T, e.Node)
		if e.Peer != 0 {
			line += fmt.Sprintf(" peer=%d", e.Peer)
		}
		if e.Depth != 0 {
			line += fmt.Sprintf(" depth=%d", e.Depth)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		kids := children[i]
		for k, c := range kids {
			if err := rec(c, prefix+cont, k == len(kids)-1); err != nil {
				return err
			}
		}
		return nil
	}
	for k, r := range roots {
		if err := rec(r, "", k == len(roots)-1); err != nil {
			return err
		}
	}
	return nil
}

// maxDepth is the deepest a copy can travel: its header counts hops in
// one byte.
const maxDepth = 256

// printFanOut aggregates hop records per flood depth across every query:
// the shape of the flood front the paper's traffic analysis reasons
// about.
func printFanOut(w io.Writer, fl []flood) error {
	if len(fl) == 0 {
		_, err := fmt.Fprintln(w, "no flood records")
		return err
	}
	var agg []int
	for _, f := range fl {
		for _, e := range f.records {
			if e.Type != journal.TypeHop || e.Depth < 1 {
				continue
			}
			if e.Depth > maxDepth {
				return fmt.Errorf("query %s: hop record at depth %d; a header's hop count allows %d", f.id, e.Depth, maxDepth)
			}
			for len(agg) < e.Depth {
				agg = append(agg, 0)
			}
			agg[e.Depth-1]++
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "depth\thops\thops/query")
	for d, n := range agg {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\n", d+1, n, float64(n)/float64(len(fl)))
	}
	return tw.Flush()
}

// detection is one warning's way to a verdict, rebuilt from the journal:
// every stage as seconds after the warning crossed, -1 for a stage it
// never reached.
type detection struct {
	window                               int
	node, suspect                        int64
	warnT                                float64
	request, firstReport, indicator, cut float64
	reports, timeouts, defers            int
}

// detections rebuilds the round of every warning in a journal, sorted by
// warning time, journal order among equal times. A round opens at
// warning_crossed (node, suspect, window); nt_request, indicator and cut
// join it by window, so a cut the simulator applies after its sweep
// still finds its round. nt_report, nt_timeout and nt_defer carry no
// window: they join the latest round of (node, suspect) that sent its
// request, since a live node holds one pending round per suspect and
// the simulator closes each round before the next opens. Records no
// round takes are skipped (the journal ring may have dropped their
// warning), as is every other record type.
func detections(events []journal.Event) []detection {
	type pair struct{ node, suspect int64 }
	type key struct {
		pair
		window int
	}
	var out []detection
	byWindow := make(map[key]int)
	pending := make(map[pair]int)
	for _, e := range events {
		p := pair{e.Node, e.Peer}
		var i int
		var ok bool
		switch e.Type {
		case journal.TypeWarning:
			byWindow[key{p, e.Window}] = len(out)
			out = append(out, detection{
				window: e.Window, node: e.Node, suspect: e.Peer, warnT: e.T,
				request: -1, firstReport: -1, indicator: -1, cut: -1,
			})
			continue
		case journal.TypeNTRequest, journal.TypeIndicator, journal.TypeCut:
			i, ok = byWindow[key{p, e.Window}]
		case journal.TypeNTReport, journal.TypeNTTimeout, journal.TypeNTDefer:
			i, ok = pending[p]
		}
		if !ok {
			continue
		}
		d := &out[i]
		at := e.T - d.warnT
		switch e.Type {
		case journal.TypeNTRequest:
			pending[p] = i
			d.request = at
		case journal.TypeNTReport:
			d.reports++
			if d.firstReport < 0 || at < d.firstReport {
				d.firstReport = at
			}
		case journal.TypeNTTimeout:
			d.timeouts++
		case journal.TypeNTDefer:
			d.defers++
		case journal.TypeIndicator:
			d.indicator = at
		case journal.TypeCut:
			d.cut = at
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].warnT < out[j].warnT })
	return out
}

// printCritical tabulates the warning->cut stage times of every round.
func printCritical(w io.Writer, rounds []detection) error {
	if len(rounds) == 0 {
		_, err := fmt.Fprintln(w, "no warnings in the journal")
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "window\tnode\tsuspect\twarn_t\treq(s)\tfirst_rep(s)\tindicator(s)\tcut(s)\treports\ttimeouts\tdefers")
	stage := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, d := range rounds {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f\t%s\t%s\t%s\t%s\t%d\t%d\t%d\n",
			d.window, d.node, d.suspect, d.warnT,
			stage(d.request), stage(d.firstReport), stage(d.indicator), stage(d.cut),
			d.reports, d.timeouts, d.defers)
	}
	return tw.Flush()
}

// chromeEvent is one Chrome trace-event ("X" complete events only), the
// JSON dialect Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int64   `json:"tid"`
	Args any     `json:"args"` // the record itself
}

// writePerfetto converts every record to Chrome trace-event JSON at
// path. A query's flood records are one process row (pid in order of
// first appearance, so output is deterministic) and every other record
// shares pid 0; the recording node is the thread. A record is instant,
// drawn 1 µs wide so it stays visible.
func writePerfetto(path string, events []journal.Event, status io.Writer) error {
	doc := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", make([]chromeEvent, len(events))}
	pids := make(map[string]int)
	for i, e := range events {
		ev := chromeEvent{Name: e.Type, Cat: "journal", Ph: "X", TS: e.T * 1e6, Dur: 1, TID: e.Node, Args: e}
		if isFlood(e.Type) {
			pid, ok := pids[e.Detail]
			if !ok {
				pid = len(pids) + 1
				pids[e.Detail] = pid
			}
			ev.Cat, ev.PID = "query", pid
		}
		doc.TraceEvents[i] = ev
	}
	err := outfile.Write(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(&doc) })
	if err != nil {
		return err
	}
	fmt.Fprintf(status, "wrote %d events to %s (load at https://ui.perfetto.dev)\n", len(events), path)
	return nil
}
