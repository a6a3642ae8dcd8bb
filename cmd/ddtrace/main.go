// Command ddtrace analyzes what ddsim and ddnode record. From a live
// node's causal trace stream (ddnode -trace-out, or its /trace) it
// reconstructs what route one query's flood actually took; from a
// journal (ddsim -journal, or a ddnode's /journal?n=) it tabulates where
// the time went between each warning crossing and the cut.
//
// Summary of a trace stream:
//
//	ddtrace -in run.trace
//
// One trace as an ASCII tree, per-depth flood fan-out, Perfetto
// conversion (at most one of -critical, -tree, -fanout, -perfetto):
//
//	ddtrace -in run.trace -tree <id>
//	ddtrace -in run.trace -fanout
//	ddtrace -in run.trace -perfetto run.json
//
// Detection critical path (warning -> nt_request -> first report ->
// indicator -> cut stage times, one row per warning), from a journal:
//
//	ddtrace -critical run.journal
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"ddpolice/internal/journal"
	"ddpolice/internal/outfile"
	"ddpolice/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "trace NDJSON file ('-' = stdin)")
		tree     = flag.String("tree", "", "print this trace ID as an ASCII span tree ('all' = every trace)")
		critical = flag.String("critical", "", "print the detection critical-path table of this journal NDJSON file ('-' = stdin)")
		fanout   = flag.Bool("fanout", false, "print per-depth flood fan-out across query traces")
		perfetto = flag.String("perfetto", "", "convert the stream to Chrome trace-event JSON at this path")
	)
	flag.Parse()
	var modes []string
	for _, m := range []struct {
		flag string
		on   bool
	}{{"-critical", *critical != ""}, {"-tree", *tree != ""}, {"-fanout", *fanout}, {"-perfetto", *perfetto != ""}} {
		if m.on {
			modes = append(modes, m.flag)
		}
	}
	if len(modes) > 1 {
		fmt.Fprintf(os.Stderr, "ddtrace: %s and %s are exclusive: give at most one of -critical, -tree, -fanout, -perfetto\n", modes[0], modes[1])
		os.Exit(2)
	}
	if *critical != "" {
		if *in != "" {
			fmt.Fprintln(os.Stderr, "ddtrace: -critical reads a journal; it takes no -in trace stream")
			os.Exit(2)
		}
		events, err := readJournal(*critical)
		if err == nil {
			err = printCritical(os.Stdout, detections(events))
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	spans, err := readSpans(*in)
	if err != nil {
		fatal(err)
	}
	views := trace.Group(spans)
	switch {
	case *perfetto != "":
		err = writePerfetto(*perfetto, spans, os.Stdout)
	case *tree != "":
		err = printTrees(os.Stdout, views, *tree)
	case *fanout:
		err = printFanOut(os.Stdout, views)
	default:
		err = printSummary(os.Stdout, spans, views)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddtrace:", err)
	os.Exit(1)
}

// open returns the named file to read, or stdin for "-".
func open(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func readSpans(path string) ([]trace.Span, error) {
	r, err := open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return trace.ReadNDJSON(r)
}

func readJournal(path string) ([]journal.Event, error) {
	r, err := open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return journal.ReadNDJSON(r)
}

// printSummary counts traces and spans, so a bare `ddtrace -in` orients
// before drilling down.
func printSummary(w io.Writer, spans []trace.Span, views []trace.TraceView) error {
	_, err := fmt.Fprintf(w, "%d spans in %d query traces\n", len(spans), len(views))
	return err
}

// printTrees renders one trace (or all of them) as ASCII span trees.
func printTrees(w io.Writer, views []trace.TraceView, id string) error {
	printed := false
	for _, tv := range views {
		if id == "all" || tv.ID == id {
			if err := trace.WriteTree(w, tv); err != nil {
				return err
			}
			printed = true
		}
	}
	if !printed && id != "all" {
		return fmt.Errorf("trace %s not found", id)
	}
	return nil
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

// printFanOut aggregates hop counts per flood depth across every query
// trace: the shape of the flood front the paper's traffic analysis
// reasons about.
func printFanOut(w io.Writer, views []trace.TraceView) error {
	if len(views) == 0 {
		_, err := fmt.Fprintln(w, "no query traces")
		return err
	}
	var agg []int
	for _, tv := range views {
		for d, n := range trace.FanOut(tv) {
			for len(agg) <= d {
				agg = append(agg, 0)
			}
			agg[d] += n
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "depth\thops\thops/query")
	for d, n := range agg {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\n", d+1, n, float64(n)/float64(len(views)))
	}
	return tw.Flush()
}

func writePerfetto(path string, spans []trace.Span, status io.Writer) error {
	err := outfile.Write(path, func(w io.Writer) error {
		return trace.WriteChromeTrace(w, spans)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(status, "wrote %d events to %s (load at https://ui.perfetto.dev)\n", len(spans), path)
	return nil
}
