// Command ddnode runs a live Gnutella-lite node (internal/gnet): it
// listens for peers, floods queries, and — with -police — defends
// itself with DD-POLICE. With -attack it behaves as the paper's DDoS
// agent prototype (§2.3), replaying a query trace at a fixed rate.
//
// A three-terminal reproduction of the paper's testbed (Figs 4-6):
//
//	ddnode -id 3 -listen 127.0.0.1:7003 -share "prize"          # peer C
//	ddnode -id 2 -listen 127.0.0.1:7002 -connect 127.0.0.1:7003 \
//	       -capacity 15000                                      # peer B
//	ddnode -id 1 -listen 127.0.0.1:7001 -connect 127.0.0.1:7002 \
//	       -attack -rate 29000 -trace trace.log                 # peer A
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ddpolice/internal/gnet"
	"ddpolice/internal/journal"
	"ddpolice/internal/metricsrv"
	"ddpolice/internal/outfile"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/workload"
)

func main() {
	var (
		id       = flag.Int("id", 1, "node id (overlay identity)")
		listen   = flag.String("listen", "127.0.0.1:0", "listen address")
		connect  = flag.String("connect", "", "comma-separated peer addresses to dial")
		capacity = flag.Float64("capacity", 15000, "query processing capacity (queries/min)")
		share    = flag.String("share", "", "comma-separated shared object keywords")
		policed  = flag.Bool("police", false, "enable DD-POLICE")
		ct       = flag.Float64("ct", 5, "DD-POLICE cut threshold")
		attack   = flag.Bool("attack", false, "run as a DDoS agent (flood bogus queries)")
		rate     = flag.Float64("rate", 20000, "attack send rate (queries/min)")
		trace    = flag.String("trace", "", "query trace to replay while attacking (tracegen format)")
		stats    = flag.Duration("stats", 10*time.Second, "stats print interval")
		query    = flag.String("query", "", "periodically search for this keyword")
		queryIv  = flag.Duration("query-interval", 10*time.Second, "interval between -query searches")
		metrics  = flag.String("metrics", "", "serve /metrics, /healthz and /journal on this address")
		jcap     = flag.Int("journal-cap", 4096, "event journal ring capacity")
		jout     = flag.String("journal-out", "", "stream the event journal (NDJSON, every record) to this file")
		floodSmp = flag.Float64("flood-sample", 0, "share of queries whose flood is journaled (0..1)")
	)
	flag.Parse()
	// A value that cannot mean anything is refused by name, not bent into
	// one that can: -rate 0 used to flood at the 1 µs ticker floor.
	switch {
	case *id < 0 || *id >= protocol.NodeIDs:
		usage("-id %d: want a node id in [0, %d), what a 10.x.y.z address carries", *id, protocol.NodeIDs)
	case !(*rate > 0) || math.IsInf(*rate, 0):
		usage("-rate %v: want a positive number of queries/min", *rate)
	case *jcap < 1:
		usage("-journal-cap %d: want at least 1", *jcap)
	case !(*floodSmp >= 0 && *floodSmp <= 1):
		usage("-flood-sample %v: want a rate in [0, 1]", *floodSmp)
	}

	// Registered before anything is printed: whoever reads the addresses
	// below may signal at once and still gets the orderly shutdown.
	// The main loop alone receives the signal, and closes done to stop the
	// searcher and the agent: a goroutine that took the signal itself would
	// leave the node running.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})

	cfg := gnet.DefaultConfig(fmt.Sprintf("node-%d", *id))
	cfg.NodeID = int32(*id)
	cfg.ListenAddr = *listen
	cfg.CapacityPerMin = *capacity
	cfg.Seed = uint64(*id)
	cfg.FloodSample = *floodSmp
	if *share != "" {
		cfg.SharedObjects = strings.Split(*share, ",")
	}
	if *policed {
		pc := police.DefaultConfig()
		pc.CutThreshold = *ct
		cfg.Police = &pc
	}
	if *metrics != "" || *jout != "" {
		cfg.Journal = journal.New(*jcap)
	}
	// The file is teed from the first record on, so it holds every record
	// the ring has since overwritten.
	var journalFile *outfile.File
	if *jout != "" {
		f, err := outfile.Create(*jout)
		if err != nil {
			fatal(err)
		}
		cfg.Journal.Tee(f)
		journalFile = f
	}
	if *metrics != "" {
		cfg.Telemetry = telemetry.New()
		cfg.Journal.AttachTelemetry(cfg.Telemetry)
	}
	node, err := gnet.NewNode(cfg)
	if err != nil {
		fatal(err)
	}
	defer node.Close()
	if *metrics != "" {
		srv, err := metricsrv.Serve(*metrics, metricsrv.Config{
			Registry: cfg.Telemetry,
			Journal:  cfg.Journal,
			Health: func() map[string]any {
				st := node.Stats()
				return map[string]any{
					"node_id":   *id,
					"neighbors": len(node.Neighbors()),
					"cuts":      len(st.Disconnects),
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s\n", srv.Addr())
	}
	fmt.Printf("%s listening on %s (capacity %.0f q/min, police=%v)\n",
		node.Name(), node.Addr(), *capacity, *policed)

	for _, addr := range strings.Split(*connect, ",") {
		if addr == "" {
			continue
		}
		if err := node.Connect(addr); err != nil {
			fatal(err)
		}
		fmt.Printf("connected to %s\n", addr)
	}

	if *attack {
		go runAgent(node, *rate, *trace, done)
	}
	if *query != "" {
		go runSearcher(node, *query, *queryIv, done)
	}

	ticker := time.NewTicker(*stats)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			close(done)
			fmt.Println("shutting down")
			if journalFile != nil {
				// The node records nothing once closed. A truncated journal
				// reported as success poisons every later analysis step;
				// die loudly instead.
				node.Close()
				if err := cfg.Journal.Err(); err != nil {
					fatal(fmt.Errorf("journal: %w", err))
				}
				if err := journalFile.Close(); err != nil {
					fatal(fmt.Errorf("journal: %w", err))
				}
				fmt.Printf("journal: %d events -> %s\n", uint64(cfg.Journal.Len())+cfg.Journal.Dropped(), *jout)
			}
			return
		case <-ticker.C:
			st := node.Stats()
			fmt.Printf("recv=%d processed=%d dropped=%d fwd=%d dup=%d hits(tx/rx)=%d/%d cuts=%d\n",
				st.QueriesReceived, st.QueriesProcessed, st.QueriesDropped,
				st.QueriesForwarded, st.DupDropped, st.HitsSent, st.HitsReceived,
				len(st.Disconnects))
			for _, d := range st.Disconnects {
				fmt.Printf("  cut %s: %s\n", d.Peer, d.Reason)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddnode:", err)
	os.Exit(1)
}

// usage rejects a flag value: exit 2, like an unknown flag.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ddnode: "+format+"\n", args...)
	os.Exit(2)
}

// runSearcher periodically issues a search and reports the outcome.
func runSearcher(node *gnet.Node, keywords string, interval time.Duration, done <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			start := time.Now()
			hits, err := node.IssueQuery(keywords)
			if err != nil {
				fmt.Printf("query %q: %v\n", keywords, err)
				continue
			}
			select {
			case <-hits:
				fmt.Printf("query %q answered in %v\n", keywords, time.Since(start).Round(time.Millisecond))
			case <-time.After(interval / 2):
				fmt.Printf("query %q: no answer\n", keywords)
			}
		}
	}
}

// runAgent floods bogus queries at the configured rate, replaying a
// trace file if given (the paper's agent "reads queries from the log
// file collected by the monitoring node and issues these queries").
func runAgent(node *gnet.Node, ratePerMin float64, tracePath string, done <-chan struct{}) {
	var keywords []string
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			fatal(err)
		}
		tr, err := workload.NewTraceReader(f, strings.HasSuffix(tracePath, ".gz"))
		if err != nil {
			fatal(err)
		}
		for len(keywords) < 100000 {
			rec, err := tr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal(err)
			}
			keywords = append(keywords, rec.Keywords)
		}
		tr.Close()
		f.Close()
		fmt.Printf("agent: loaded %d trace queries\n", len(keywords))
	}
	interval := time.Duration(float64(time.Minute) / ratePerMin)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	i := 0
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			kw := fmt.Sprintf("bogus-%d", i)
			if len(keywords) > 0 {
				kw = keywords[i%len(keywords)]
			}
			node.SendRawQuery(kw)
			i++
		}
	}
}
