// trace_pipeline walks the paper's §2.3 data path end to end, entirely
// in-process: synthesize a query trace like the one the monitoring
// super-node captured (13M queries over 24h, Zipf-popular keywords),
// analyze it (rates, popularity fit), and replay it through the flood
// engine the simulator runs, the way the DDoS-agent prototype replays a
// log file.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"

	"ddpolice/internal/capacity"
	"ddpolice/internal/flood"
	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/sim"
	"ddpolice/internal/topology"
	"ddpolice/internal/workload"
)

func main() {
	const peers = 400
	src := rng.New(7)

	// 1. Synthesize a 10-minute trace at the paper's 0.3 queries/min/peer.
	catCfg := workload.DefaultCatalogConfig()
	catCfg.NumObjects = 2000
	cat, err := workload.NewCatalog(catCfg, peers, src)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	tw := workload.NewTraceWriter(&buf, false)
	n, err := workload.GenerateTrace(tw, cat, peers, 0.3, 600, src)
	if err != nil {
		log.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %d queries over 10 minutes from %d peers (%d bytes)\n",
		n, peers, buf.Len())

	// 2. Analyze: recover the popularity exponent from the raw log.
	counts := make([]uint64, catCfg.NumObjects)
	tr, err := workload.NewTraceReader(bytes.NewReader(buf.Bytes()), false)
	if err != nil {
		log.Fatal(err)
	}
	var records []workload.TraceRecord
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		counts[rec.Object]++
		records = append(records, rec)
	}
	if s, err := workload.FitZipf(counts); err == nil {
		fmt.Printf("fitted Zipf exponent: %.2f (configured %.2f; Gnutella traces [16]: ~0.8)\n",
			s, catCfg.ZipfExponent)
	}

	// 3. Replay through the simulator's flood engine on a live overlay:
	// every peer's processing budget refills once per trace second, as
	// one sim.Run tick does, and every query is one TTL-bounded flood.
	g, err := topology.BarabasiAlbert(rng.New(8), peers, 3)
	if err != nil {
		log.Fatal(err)
	}
	eng := flood.NewEngine(overlay.New(g))
	budget := flood.NewBudget(peers, capacity.EffectiveForwardPerMin/60)
	dm := flood.DefaultDelayModel()
	var hits int
	var msgs float64
	second := int64(-1)
	for _, rec := range records {
		for ; second < rec.TimestampMS/1000; second++ {
			budget.Refill()
		}
		r := eng.FloodQuery(rec.Issuer, sim.DefaultSimTTL, cat.Holders(rec.Object), budget, dm)
		msgs += r.QueryMessages
		if r.Hit {
			hits++
		}
	}
	total := len(records)
	fmt.Printf("replayed %d queries: %.1f%% answered, %.0f messages (%.0f per query)\n",
		total, float64(hits)/float64(total)*100, msgs, msgs/float64(total))
}
