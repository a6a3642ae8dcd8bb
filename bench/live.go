package main

import (
	"fmt"
	"sync"
	"time"

	"ddpolice/internal/capacity"
	"ddpolice/internal/gnet"
	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
	"ddpolice/internal/trace"
)

const (
	liveNodes      = 12
	liveObject     = "needle"
	liveQueryWait  = time.Second            // a good query with no hit by then has failed
	liveWindow     = 400 * time.Millisecond // phase B monitoring window
	liveCutWindows = 6                      // the agent must be isolated within this many
	smokeSlack     = 5                      // smoke runs share their cores with other tests: both limits times this
	liveAgentRate  = 330                    // bogus queries per second, open loop
	liveGoodAfter  = 5                      // good queries that must be answered after the cut
	liveClients    = 2                      // closed-loop clients; with the agent never more load goroutines than nproc+1
	journalCap     = 1 << 16
)

// liveWorkload is the live-12 workload: real gnet nodes over loopback
// TCP, bypassing sim and flood entirely.
//
// Phase A (measured): two closed-loop clients on non-holder nodes each
// issue a fixed number of queries for an object three nodes share, with
// capacity uncapped and monitoring windows too long to close: bare
// forwarding of the smallest message, where per-frame cost in protocol
// and the gnet router dominates.
//
// Phase B (checked, and timed only in the traced run): a second harness
// with the capacity and thresholds of gnet's TestLiveDefenseUnderWorkload;
// one agent floods open-loop until every neighbor has cut it, then good
// queries must still be answered. It fails on what that test fails on.
// A good peer losing a link to a false verdict is counted and noted but
// is not a failure: it happens on some topologies at the parent commit
// (see README.md, known findings), and a workload's operations must be
// ones the program completes.
type liveWorkload struct {
	g         *topology.Graph
	holders   []int
	clients   []int
	agent     int
	perClient int
	queryWait time.Duration
	cutWait   time.Duration
}

func newLiveWorkload(seed uint64, smoke bool) workloadRun {
	g, err := topology.BarabasiAlbert(rng.New(rng.SubSeed(seed, 0)), liveNodes, 2)
	if err != nil {
		panic(err) // fixed, valid arguments
	}
	// Roles in one random order: the agent, three holders, then the
	// clients, which are the first of the rest that are not the agent's
	// neighbors (any of the rest where it leaves too few), so the
	// queries that must survive the attack start away from it.
	roles := rng.New(rng.SubSeed(seed, 1)).Perm(liveNodes)
	l := &liveWorkload{
		g: g, agent: roles[0], holders: roles[1:4], perClient: 4000,
		queryWait: liveQueryWait, cutWait: liveCutWindows * liveWindow,
	}
	rest := roles[4:]
	for _, near := range []bool{false, true} {
		for _, v := range rest {
			if len(l.clients) < liveClients && near == g.HasEdge(topology.NodeID(v), topology.NodeID(l.agent)) {
				l.clients = append(l.clients, v)
			}
		}
	}
	if smoke {
		l.perClient = 100
		l.queryWait *= smokeSlack
		l.cutWait *= smokeSlack
	}
	return l
}

// harness is one started overlay with its shared observation planes.
type harness struct {
	*gnet.Harness
	jr      *journal.Journal
	reg     *telemetry.Registry
	connect float64 // seconds from first listen until every edge is up
}

// start brings a harness up and waits until every edge is a neighbor
// relationship on both ends.
func (l *liveWorkload) start(mutate func(cfg *gnet.Config)) (*harness, error) {
	h := &harness{jr: journal.New(journalCap), reg: telemetry.New()}
	holder := map[int]bool{}
	for _, i := range l.holders {
		holder[i] = true
	}
	t0 := time.Now()
	var err error
	h.Harness, err = gnet.NewHarness(l.g, func(i int, cfg *gnet.Config) {
		cfg.Journal = h.jr
		cfg.Telemetry = h.reg
		if holder[i] {
			cfg.SharedObjects = []string{liveObject}
		}
		mutate(cfg)
	})
	if err != nil {
		return nil, err
	}
	deadline := t0.Add(5 * time.Second)
	for i := 0; i < h.Len(); i++ {
		for len(h.Node(i).Neighbors()) != l.g.Degree(topology.NodeID(i)) {
			if time.Now().After(deadline) {
				h.Close()
				return nil, fmt.Errorf("live-12: overlay not connected after 5 s")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	h.connect = time.Since(t0).Seconds()
	return h, nil
}

// startA is the phase A harness: DD-POLICE monitor counting every
// query, capacity uncapped, windows that never close.
func (l *liveWorkload) startA() (*harness, error) {
	pcfg := police.DefaultConfig()
	return l.start(func(cfg *gnet.Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour
		cfg.CapacityPerMin = 1e12
	})
}

// startB is the phase B harness: TestLiveDefenseUnderWorkload's
// thresholds, default (testbed) capacity.
func (l *liveWorkload) startB() (*harness, error) {
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 40
	return l.start(func(cfg *gnet.Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = liveWindow
	})
}

func (l *liveWorkload) setup() (float64, error) {
	h, err := l.startA()
	if err != nil {
		return 0, err
	}
	h.Close()
	return h.connect, nil
}

// goodQuery issues one query and waits for its first hit.
func goodQuery(n *gnet.Node, wait time.Duration) (time.Duration, bool) {
	t0 := time.Now()
	hits, err := n.IssueQuery(liveObject)
	if err != nil {
		return 0, false
	}
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	select {
	case <-hits:
		return time.Since(t0), true
	case <-timeout.C:
		return 0, false
	}
}

// phaseA runs the closed-loop clients to completion and returns the
// answered queries' latencies in milliseconds, how many got no hit on
// their first try, and how many none on their second either. A client
// waits for the first hit only, so the rest of each flood overlaps the
// next query and the overlay runs at saturation, where a full send
// queue drops frames; a query that loses every copy of its hits that
// way is issued once more, as a user would, and fails only if that is
// lost too (README.md, known findings).
func (l *liveWorkload) phaseA(h *harness, rec *recorder, tr *tracedRun) (lat series, lost, failed int) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, c := range l.clients {
		node := h.Node(c)
		crec := rec.fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make(series, 0, l.perClient)
			retried, unanswered := 0, 0
			for q := 0; q < l.perClient; q++ {
				id := crec.begin("gnet.issue_query")
				d, ok := goodQuery(node, l.queryWait)
				if !ok {
					retried++
					d, ok = goodQuery(node, l.queryWait)
					d += l.queryWait // timed from the first try
				}
				crec.end(id)
				if ok {
					mine = append(mine, float64(d.Nanoseconds())/1e6)
				} else {
					unanswered++
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			lost += retried
			failed += unanswered
			if crec != nil {
				tr.recs = append(tr.recs, crec)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, lost, failed
}

// defense is what phase B observed.
type defense struct {
	cut         bool    // every neighbor of the agent cut it in time
	goodCut     int     // cut events naming a peer other than the agent
	attackToCut float64 // ms, attack start to the first cut
	warnToCut   series  // ms per observer, warning_crossed to cut
	answered    int     // of liveGoodAfter
	lag         series  // ms the open-loop generator ran behind schedule, per send
}

// phaseB floods from the agent until its neighbors have all cut it,
// then checks that good queries are still answered.
func (l *liveWorkload) phaseB(h *harness) defense {
	var d defense
	agentID := int64(l.agent + 1) // NewHarness gives vertex i overlay id i+1
	stop := make(chan struct{})
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		interval := time.Second / liveAgentRate
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			// Timed from when the send was due, so a stalled generator
			// shows as lag instead of as a quieter attack.
			d.lag = append(d.lag, float64(time.Since(due).Nanoseconds())/1e6)
			h.Node(l.agent).SendRawQuery(fmt.Sprintf("junk-%d", i))
		}
	}()

	// Wait for every neighbor's verdict, not just the first: the good
	// queries below are then answered by an overlay the agent is out of.
	deadline := start.Add(l.cutWait)
	left := l.g.Degree(topology.NodeID(l.agent))
	for left > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		left = len(h.Node(l.agent).Neighbors())
	}
	d.cut = left == 0
	if d.cut {
		for q := 0; q < liveGoodAfter; q++ {
			if _, ok := goodQuery(h.Node(l.clients[0]), l.queryWait); ok {
				d.answered++
			}
		}
	}
	close(stop)
	<-done

	startUnix := float64(start.UnixNano()) / 1e9
	warned := map[int64]float64{}
	first := 0.0
	for _, e := range h.jr.Events() {
		switch e.Type {
		case journal.TypeWarning:
			if _, seen := warned[e.Node]; !seen && e.Peer == agentID {
				warned[e.Node] = e.T
			}
		case journal.TypeCut:
			if e.Peer != agentID {
				d.goodCut++
				continue
			}
			if first == 0 {
				first = e.T
			}
			if w, ok := warned[e.Node]; ok {
				d.warnToCut = append(d.warnToCut, (e.T-w)*1e3)
			}
		}
	}
	if first > 0 {
		d.attackToCut = (first - startUnix) * 1e3
	}
	return d
}

// run is one repetition: phase A measured, phase B checked. With a
// tracedRun it also fills the gnet, journal and bench ledger entries.
func (l *liveWorkload) run(tr *tracedRun) (repResult, error) {
	var rec *recorder
	if tr != nil {
		rec = newRecorder(tr.Workload)
	}
	ha, err := l.startA()
	if err != nil {
		return repResult{}, err
	}
	var (
		lat          series
		lost, failed int
	)
	smp, _ := timed(func() error {
		lat, lost, failed = l.phaseA(ha, rec, tr)
		return nil
	})
	var sum gnet.Stats
	for i := 0; i < ha.Len(); i++ {
		s := ha.Node(i).Stats()
		sum.QueriesReceived += s.QueriesReceived
		sum.QueriesForwarded += s.QueriesForwarded
		sum.QueriesDropped += s.QueriesDropped
		sum.DupDropped += s.DupDropped
		sum.HitsReceived += s.HitsReceived
		sum.BytesOut += s.BytesOut
	}
	stalls := ha.reg.Counter("gnet.send_queue_stalls").Load()
	inboxHWM := ha.reg.Gauge("gnet.inbox_high_water").Load()
	eventsA, droppedA := ha.jr.Len(), ha.jr.Dropped()
	ha.Close()

	hb, err := l.startB()
	if err != nil {
		return repResult{}, err
	}
	d := l.phaseB(hb)
	eventsB, droppedB := hb.jr.Len(), hb.jr.Dropped()
	hb.Close()

	issued := liveClients * l.perClient
	res := repResult{
		sample:    smp,
		ops:       float64(len(lat)),
		attempted: issued + liveGoodAfter + 1, // the queries of both phases, and the defense itself
		failed:    failed + (liveGoodAfter - d.answered),
	}
	note := func(format string, args ...any) {
		res.notes = append(res.notes, fmt.Sprintf("live-12: "+format, args...))
	}
	if !d.cut {
		res.failed++
		note("agent not isolated within %v", l.cutWait)
	}
	if d.goodCut > 0 {
		note("%d cut(s) named a good peer (a known finding, not counted as a failure)", d.goodCut)
	}
	if lost > 0 {
		note("%d of %d closed-loop queries had no hit within %v and were issued again, %d of them in vain (send_queue_stalls=%d)",
			lost, issued, l.queryWait, failed, stalls)
	}
	if tr == nil {
		return res, nil
	}

	queries := float64(issued)
	tr.set("gnet.connect_ms", (ha.connect+hb.connect)/2*1e3)
	tr.set("gnet.queries_per_s", float64(len(lat))/smp.wall)
	tr.set("gnet.query_p50_ms", lat.median())
	tr.set("gnet.query_p99_ms", lat.quantile(0.99))
	tr.set("gnet.query_max_ms", lat.max())
	tr.set("gnet.frames_per_s", float64(sum.QueriesReceived+sum.HitsReceived)/smp.wall)
	tr.set("gnet.forwarded_per_query", float64(sum.QueriesForwarded)/queries)
	tr.set("gnet.dup_drop_share", float64(sum.DupDropped)/float64(sum.QueriesReceived))
	tr.set("gnet.bytes_out_per_query", float64(sum.BytesOut)/queries)
	tr.set("gnet.inbox_hwm", float64(inboxHWM))
	tr.set("gnet.send_queue_stalls", float64(stalls))
	tr.set("gnet.capacity_drops", float64(sum.QueriesDropped))
	tr.set("gnet.lost_hits", float64(lost))
	tr.set("gnet.warn_to_cut_p50_ms", d.warnToCut.median())
	tr.set("gnet.attack_to_cut_p50_ms", d.attackToCut)
	tr.set("gnet.post_cut_answered_share", float64(d.answered)/liveGoodAfter)
	tr.set("gnet.good_peer_cuts", float64(d.goodCut))
	tr.set("journal.events", float64(eventsA+eventsB))
	tr.set("journal.dropped", float64(droppedA+droppedB))
	tr.set("bench.loadgen_lag_ms", d.lag.median())
	note("loopback TCP; %d latency samples; warn_to_cut over %d observers; loadgen lag max %.3f ms over %d sends",
		len(lat), len(d.warnToCut), d.lag.max(), len(d.lag))
	return res, nil
}

func (l *liveWorkload) rep() (repResult, error) { return l.run(nil) }

func (l *liveWorkload) traced(tr *tracedRun) error {
	res, err := l.run(tr)
	if err != nil {
		return err
	}
	tr.Attempted += res.attempted
	tr.Failed += res.failed
	tr.Notes = append(tr.Notes, res.notes...)
	ms, err := ntRoundP50()
	if err != nil {
		return err
	}
	tr.set("gnet.nt_round_p50_ms", ms)
	protocolCosts(tr)
	tr.set("bench.span_overhead_ns", spanOverheadNs())
	return nil
}

// ntRoundP50 times full Neighbor_Traffic evaluation rounds over live
// TCP through gnet's bench hooks: an observer asks eight buddy-group
// members about a suspect and collects every report before the verdict.
func ntRoundP50() (float64, error) {
	const members = 8
	tb := topology.NewBuilder(2 + members)
	if err := tb.AddEdge(0, 1); err != nil {
		return 0, err
	}
	memberIDs := make([]int32, members)
	for i := range memberIDs {
		if err := tb.AddEdge(0, topology.NodeID(2+i)); err != nil {
			return 0, err
		}
		memberIDs[i] = int32(3 + i)
	}
	pcfg := police.DefaultConfig()
	h, err := gnet.NewHarness(tb.Build(), func(i int, cfg *gnet.Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour // rounds are driven by hand
	})
	if err != nil {
		return 0, err
	}
	defer h.Close()
	const suspect = int32(2)
	observer := h.Node(0)
	// The suspect's own neighbor list, when it arrives after the
	// priming, replaces the primed group with one nobody is asked from,
	// and every later round collects nothing (README.md, known
	// findings): such a round is not timed and the group is primed again.
	var rounds series
	primed := false
	for try := 0; len(rounds) < 25 && try < 50; try++ {
		if !primed {
			if err := observer.BenchPrimeSuspect(suspect, memberIDs, 20, 20); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		got, err := observer.BenchNTRound(suspect, 5*time.Second)
		if err != nil {
			return 0, err
		}
		if primed = got == members; primed {
			rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	if len(rounds) == 0 {
		return 0, fmt.Errorf("live-12: no Neighbor_Traffic round collected all %d reports", members)
	}
	return rounds.median(), nil
}

// perCallNs times n calls of fn.
func perCallNs(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// protocolCosts times the per-frame work a gnet node does outside its
// router: wire encode and decode of the three message kinds on the
// query and detection paths, the capacity token draw, and one journal
// and one trace record.
func protocolCosts(tr *tracedRun) {
	const n = 200000
	src := rng.New(1)
	guid := protocol.NewGUID(src)
	list := protocol.NeighborList{}
	for i := int32(1); i <= 6; i++ {
		list.Neighbors = append(list.Neighbors, protocol.AddrFromNodeID(i, 0))
	}
	bodies := []struct {
		name string
		body protocol.Body
	}{
		{"query", protocol.Query{Keywords: liveObject}},
		{"nt", protocol.NeighborTraffic{Timestamp: 1, Outgoing: 20, Incoming: 20}},
		{"list", list},
	}
	var buf []byte
	decodeAllocs := 0.0
	for _, b := range bodies {
		tr.set("protocol.encode_"+b.name+"_ns", perCallNs(n, func(int) {
			buf = protocol.Encode(buf[:0], guid, protocol.DefaultTTL, 0, b.body)
		}))
		wire := protocol.Encode(nil, guid, protocol.DefaultTTL, 0, b.body)
		var failed error
		smp, _ := timed(func() error {
			tr.set("protocol.decode_"+b.name+"_ns", perCallNs(n, func(int) {
				if _, _, err := protocol.Decode(wire); err != nil {
					failed = err
				}
			}))
			return nil
		})
		if failed != nil {
			tr.fail("protocol: decoding an encoded %s: %v", b.name, failed)
		}
		decodeAllocs += smp.allocs / n
	}
	tr.set("protocol.decode_allocs_per_msg", decodeAllocs/float64(len(bodies)))

	proc, _ := capacity.NewProcessor(1e12, 0) // never returns an error
	tr.set("capacity.try_process_ns", perCallNs(n, func(int) { proc.TryProcess() }))

	jr := journal.New(journalCap)
	tr.set("journal.record_ns", perCallNs(n, func(i int) {
		jr.Record(journal.Event{T: float64(i), Type: journal.TypeNTReport, Node: 1, Peer: 2, Member: 3})
	}))

	tcr := trace.New(1, 0)
	tr.set("trace.span_ns", perCallNs(n, func(i int) {
		tcr.Record(uint64(i+1), trace.Span{Kind: trace.KindHop, Peer: 2, Depth: 1})
	}))
	tr.set("trace.dropped", float64(tcr.Dropped()))
}
