// Command ddtrace analyzes causal trace streams written by ddsim or
// ddnode (-trace-out). It reconstructs span trees from the
// NDJSON stream and answers the two questions the flat journal cannot:
// what route one query's flood actually took, and where the time went
// between a warning crossing and the cut.
//
// Summary of a run:
//
//	ddtrace -in run.trace
//
// Detection critical path (warning -> nt_request -> indicator -> cut
// stage latencies, one row per detection):
//
//	ddtrace -in run.trace -critical
//
// One trace as an ASCII tree, per-depth flood fan-out, Perfetto
// conversion:
//
//	ddtrace -in run.trace -tree <id>
//	ddtrace -in run.trace -fanout
//	ddtrace -in run.trace -perfetto run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"ddpolice/internal/outfile"
	"ddpolice/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "trace NDJSON file ('-' = stdin)")
		tree     = flag.String("tree", "", "print this trace ID as an ASCII span tree ('all' = every trace)")
		critical = flag.Bool("critical", false, "print the detection critical-path table")
		fanout   = flag.Bool("fanout", false, "print per-depth flood fan-out across query traces")
		perfetto = flag.String("perfetto", "", "convert the stream to Chrome trace-event JSON at this path")
	)
	flag.Parse()
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
	case *critical:
		err = printCritical(os.Stdout, views)
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

func readSpans(path string) ([]trace.Span, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadNDJSON(r)
}

// printSummary counts traces and spans per lifecycle and previews the
// detections, so a bare `ddtrace -in` orients before drilling down.
func printSummary(w io.Writer, spans []trace.Span, views []trace.TraceView) error {
	byCat := map[string]int{}
	for i := range views {
		byCat[views[i].Kind()]++
	}
	fmt.Fprintf(w, "%d spans in %d traces (query %d, detection %d, overload %d)\n",
		len(spans), len(views), byCat["query"], byCat["detection"], byCat["overload"])
	paths := trace.DetectionPaths(views)
	cuts := 0
	for _, p := range paths {
		if p.CutSec >= 0 {
			cuts++
		}
	}
	if len(paths) > 0 {
		fmt.Fprintf(w, "detections: %d warnings, %d reached a cut\n", len(paths), cuts)
	}
	return nil
}

// printTrees renders one trace (or all of them) as ASCII span trees.
func printTrees(w io.Writer, views []trace.TraceView, id string) error {
	for _, tv := range views {
		if id != "all" && tv.ID != id {
			continue
		}
		if err := trace.WriteTree(w, tv); err != nil {
			return err
		}
	}
	if id != "all" {
		for _, tv := range views {
			if tv.ID == id {
				return nil
			}
		}
		return fmt.Errorf("trace %s not found", id)
	}
	return nil
}

// printCritical tabulates the warning->cut stage latencies of every
// detection trace, the span-level counterpart of the journal's
// detection-latency analysis.
func printCritical(w io.Writer, views []trace.TraceView) error {
	paths := trace.DetectionPaths(views)
	if len(paths) == 0 {
		fmt.Fprintln(w, "no detection traces")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "trace\tnode\tsuspect\twarn_t\treq(s)\tfirst_rep(s)\tindicator(s)\tcut(s)\treports\ttimeouts\tdefers")
	stage := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, p := range paths {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%s\t%s\t%s\t%s\t%d\t%d\t%d\n",
			p.Trace, p.Node, p.Suspect, p.WarnT,
			stage(p.RequestSec), stage(p.FirstRepSec), stage(p.IndicSec), stage(p.CutSec),
			p.Reports, p.Timeouts, p.Defers)
	}
	return tw.Flush()
}

// printFanOut aggregates hop counts per flood depth across every query
// trace: the shape of the flood front the paper's traffic analysis
// reasons about.
func printFanOut(w io.Writer, views []trace.TraceView) error {
	var agg []int
	queries := 0
	for _, tv := range views {
		if tv.Kind() != "query" {
			continue
		}
		queries++
		for d, n := range trace.FanOut(tv) {
			for len(agg) <= d {
				agg = append(agg, 0)
			}
			agg[d] += n
		}
	}
	if queries == 0 {
		fmt.Fprintln(w, "no query traces")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "depth\thops\thops/query")
	for d, n := range agg {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\n", d+1, n, float64(n)/float64(queries))
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
