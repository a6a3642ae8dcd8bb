// Command ddsim runs one overlay-DDoS simulation scenario and prints a
// per-minute report plus the aggregate metrics.
//
// Example:
//
//	ddsim -peers 2000 -agents 10 -police -ct 5 -duration 30m
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"ddpolice"
	"ddpolice/internal/journal"
	"ddpolice/internal/metricsrv"
	"ddpolice/internal/outfile"
	"ddpolice/internal/telemetry"
)

func main() {
	var (
		peers    = flag.Int("peers", 2000, "number of logical peers")
		agents   = flag.Int("agents", 0, "number of DDoS agents")
		policeOn = flag.Bool("police", false, "enable DD-POLICE")
		ct       = flag.Float64("ct", 5, "cut threshold CT")
		warn     = flag.Float64("warn", 500, "warning threshold (queries/min)")
		exchange = flag.Duration("exchange", 2*time.Minute, "neighbor-list exchange period")
		duration = flag.Duration("duration", 30*time.Minute, "simulated duration")
		start    = flag.Duration("attack-start", 5*time.Minute, "attack start time")
		churn    = flag.Bool("churn", true, "enable peer churn")
		seed     = flag.Uint64("seed", 1, "random seed")
		perMin   = flag.Bool("minutes", false, "print the per-minute table")
		metrics  = flag.String("metrics", "", "serve /metrics, /healthz and /journal on this address while the run executes")
		jfile    = flag.String("journal", "", "stream the detection-event journal (NDJSON, every record) to this file")
	)
	flag.Parse()

	cfg := ddpolice.DefaultConfig()
	cfg.NumPeers = *peers
	cfg.NumAgents = *agents
	cfg.PoliceEnabled = *policeOn
	cfg.Police.CutThreshold = *ct
	cfg.Police.WarnThreshold = *warn
	cfg.Police.ExchangePeriod = exchange.Seconds()
	cfg.DurationSec = int(duration.Seconds())
	cfg.AttackStartSec = int(start.Seconds())
	cfg.ChurnEnabled = *churn
	cfg.Seed = *seed
	if *metrics != "" || *jfile != "" {
		cfg.Journal = journal.New(1 << 16)
	}
	// The file is teed from the first record on, so it holds the whole
	// run; the ring only has to serve /journal its recent tail.
	var journalFile *outfile.File
	if *jfile != "" {
		f, err := outfile.Create(*jfile)
		if err != nil {
			fatal(err)
		}
		cfg.Journal.Tee(f)
		journalFile = f
	}
	if *metrics != "" {
		// Telemetry puts the tick's stage timers in the served registry.
		cfg.Registry = telemetry.New()
		cfg.Telemetry = true
		cfg.Journal.AttachTelemetry(cfg.Registry)
		srv, err := metricsrv.Serve(*metrics, metricsrv.Config{
			Registry: cfg.Registry,
			Journal:  cfg.Journal,
			Health: func() map[string]any {
				return map[string]any{"peers": *peers, "agents": *agents, "seed": *seed}
			},
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s\n", srv.Addr())
	}

	res, err := ddpolice.Run(cfg)
	if err != nil {
		fatal(err)
	}
	// The journal streamed during the run; a full disk surfaces on a
	// mid-run write or only at flush time, and swallowing either would
	// report a truncated journal as a successful run.
	if journalFile != nil {
		if err := cfg.Journal.Err(); err != nil {
			fatal(err)
		}
		if err := journalFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("journal: %d events -> %s\n",
			uint64(cfg.Journal.Len())+cfg.Journal.Dropped(), *jfile)
	}

	fmt.Printf("peers=%d agents=%d police=%v duration=%s seed=%d\n",
		*peers, *agents, *policeOn, duration, *seed)
	fmt.Printf("queries issued:        %d\n", res.QueriesIssued)
	fmt.Printf("overall success rate:  %.1f%%\n", res.OverallSuccess*100)
	fmt.Printf("mean response time:    %.3f s (p50 %.3f, p95 %.3f)\n",
		res.MeanResponseTime, res.ResponseP50, res.ResponseP95)
	fmt.Printf("mean hops to first hit:%.2f\n", res.MeanHitHops)
	fmt.Printf("mean traffic cost:     %.0f msgs/min\n", res.MeanTraffic)
	fmt.Printf("attack volume:         %.0f msgs\n", res.AttackVolume)
	c := res.Cache
	fmt.Printf("flood cache:           %d hits (%.1f%% of floods), %d builds, %d fallbacks, %d discarded, %d flushes, peak %.1f MB of trees\n",
		c.Hits, 100*float64(c.Hits)/max(1, float64(c.Hits+c.Misses)), c.Builds, c.Fallbacks, c.Discarded, c.Flushes, float64(c.PeakTreeBytes)/1e6)
	if *policeOn {
		fmt.Printf("detections:            %d\n", res.Detections)
		fmt.Printf("false negatives:       %d (good peers wrongly cut)\n", res.FalseNegatives)
		fmt.Printf("false positives:       %d (agents never identified)\n", res.FalsePositives)
		fmt.Printf("edges cut:             %d\n", res.CutEdges)
		fmt.Printf("control overhead:      %d msgs (%d list, %d neighbor-traffic, %d verify)\n",
			res.Overhead.Total(), res.Overhead.NeighborListMsgs,
			res.Overhead.NeighborTrafficMsgs, res.Overhead.VerifyMsgs)
	}

	if *perMin {
		fmt.Println()
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "minute\tonline\tissued\tsucceeded\tsuccess(%)\ttraffic\tcontrol")
		for i, m := range res.Minutes {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.1f\t%.0f\t%.0f\n",
				i, m.OnlinePeers, m.Issued, m.Succeeded, m.SuccessRate()*100,
				m.TrafficCost(), m.ControlMsgs)
		}
		w.Flush()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddsim:", err)
	os.Exit(1)
}
