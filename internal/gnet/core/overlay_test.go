package core_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
	"ddpolice/internal/gnet/core/vnet"
	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
	"ddpolice/internal/trace"
)

// TestMeshBuild: Build gives vertex i the core of node i+1, seeded i+1,
// linked to exactly the cores of the vertex's neighbors.
func TestMeshBuild(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(11), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := newMesh(t)
	m.build(g, nil)
	if len(m.Cores) != g.NumNodes() {
		t.Fatalf("%d cores for %d vertices", len(m.Cores), g.NumNodes())
	}
	for i := 0; i < g.NumNodes(); i++ {
		c := m.Cores[int32(i+1)]
		if cfg := c.Config(); cfg.NodeID != int32(i+1) || cfg.Seed != uint64(i+1) {
			t.Errorf("vertex %d: NodeID %d, Seed %d, want both %d", i, cfg.NodeID, cfg.Seed, i+1)
		}
		var want []int32
		for _, v := range g.Neighbors(topology.NodeID(i)) {
			want = append(want, int32(v)+1)
		}
		slices.Sort(want)
		if got := c.Neighbors(); len(got) != g.Degree(topology.NodeID(i)) || !slices.Equal(got, want) {
			t.Errorf("vertex %d: neighbors %v, want %v", i, got, want)
		}
	}
}

// TestLiveSpansTraceTheFlood: the spans the live cores record of one
// query are its whole flood. Every node of a BA overlay shares one
// tracer that keeps everything, and node 1 issues once. The trace has
// one query_issue root, at node 1; a hop span per peer at the depth of
// its first copy, which came by a shortest path because the mesh
// delivers in send order, so FanOut is the graph's hop-distance layers
// from node 1 within the TTL; and one delivery per node sharing the
// object.
func TestLiveSpansTraceTheFlood(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(21), 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1, 0)
	sharer := func(v int) bool { return v > 0 && v%4 == 0 }
	m := newMesh(t)
	m.build(g, func(i int, cfg *core.Config) {
		cfg.Tracer = tr
		cfg.CapacityPerMin *= 1000 // no copy is shed
		if sharer(i) {
			cfg.SharedObjects = []string{"prize"}
		}
	})
	if err := m.Cores[1].Issue(m.Now, "prize", make(chan protocol.QueryHit, g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	m.run()

	dist := make([]int, g.NumNodes()) // hop distance from vertex 0 (node 1)
	for v := range dist {
		dist[v] = -1
	}
	dist[0] = 0
	for frontier := []topology.NodeID{0}; len(frontier) > 0; {
		var next []topology.NodeID
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	var layers []int
	var sharers []int64
	for v, d := range dist {
		if d < 1 || d > protocol.DefaultTTL {
			continue
		}
		for len(layers) < d {
			layers = append(layers, 0)
		}
		layers[d-1]++
		if sharer(v) {
			sharers = append(sharers, int64(v+1))
		}
	}

	views := trace.Group(tr.Spans())
	if len(views) != 1 {
		t.Fatalf("%d traces, want the one query's", len(views))
	}
	var roots, deliveries []int64
	for _, s := range views[0].Spans {
		switch s.Kind {
		case trace.KindQueryIssue:
			roots = append(roots, s.Node)
		case trace.KindDelivery:
			deliveries = append(deliveries, s.Node)
		}
	}
	if !slices.Equal(roots, []int64{1}) {
		t.Errorf("query_issue spans at nodes %v, want one at node 1", roots)
	}
	if got := trace.FanOut(views[0]); !slices.Equal(got, layers) {
		t.Errorf("FanOut = %v, want the hop-distance layers %v", got, layers)
	}
	slices.Sort(deliveries)
	if len(sharers) == 0 || !slices.Equal(deliveries, sharers) {
		t.Errorf("delivery spans at nodes %v, want one per sharing node %v", deliveries, sharers)
	}
}

// TestQueryFloodAndHit: on the line 1 - 2 - 3, with 3 sharing the object,
// 1's query travels two hops and the hit routes back along the reverse
// path.
func TestQueryFloodAndHit(t *testing.T) {
	m := newMesh(t)
	a := m.add(1, nil)
	b := m.add(2, nil)
	c := m.add(3, func(cfg *core.Config) { cfg.SharedObjects = []string{"ubuntu iso"} })
	m.Connect(1, 2)
	m.Connect(2, 3)
	m.run()
	hit := make(chan protocol.QueryHit, 1)
	if err := a.Issue(m.Now, "ubuntu iso", hit); err != nil {
		t.Fatal(err)
	}
	m.run()
	select {
	case h := <-hit:
		if h.HitCount != 1 {
			t.Fatalf("hit count = %d", h.HitCount)
		}
	default:
		t.Fatal("no QueryHit")
	}
	if got := c.Stats().HitsSent; got != 1 {
		t.Errorf("3 sent %d hits, want 1", got)
	}
	if got := b.Stats().QueriesForwarded; got != 1 {
		t.Errorf("2 forwarded %d queries, want the one to 3", got)
	}
}

// TestMultiHopSearch: on a 12-node random overlay a query from node 1
// finds the single sharer several hops away, and the flood covers it all.
// Every node forwards its first copy to every neighbor but the one it came
// from, the issuer to all of them, and delivery in send order brings each
// first copy by a shortest path, well inside the TTL: 2E - (N-1) copies
// arrive in all.
func TestMultiHopSearch(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(3), 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sharer = 11
	m := newMesh(t)
	m.build(g, func(i int, cfg *core.Config) {
		if i == sharer {
			cfg.SharedObjects = []string{"rare object"}
		}
	})
	hit := make(chan protocol.QueryHit, 1)
	if err := m.Cores[1].Issue(m.Now, "rare object", hit); err != nil {
		t.Fatal(err)
	}
	m.run()
	select {
	case h := <-hit:
		if h.HitCount != 1 {
			t.Fatalf("hit count = %d", h.HitCount)
		}
	default:
		t.Fatal("multi-hop query found nothing")
	}
	var received uint64
	for _, c := range m.Cores {
		received += c.Stats().QueriesReceived
	}
	if want := uint64(2*g.NumEdges() - (g.NumNodes() - 1)); received != want {
		t.Errorf("the overlay received %d copies, want 2E - (N-1) = %d", received, want)
	}
}

// TestDuplicateSuppression: on a triangle, 1's query reaches 2 and 3
// first from 1, then once more from each other; each drops that copy, and
// no copy returns to 1.
func TestDuplicateSuppression(t *testing.T) {
	b := topology.NewBuilder(3)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	m := newMesh(t)
	m.build(b.Build(), nil)
	m.Cores[1].SendRaw(m.Now, "x")
	m.run()
	var dups []uint64
	for id := int32(1); id <= 3; id++ {
		dups = append(dups, m.Cores[id].Stats().DupDropped)
	}
	if !slices.Equal(dups, []uint64{0, 1, 1}) {
		t.Errorf("duplicates dropped by 1, 2 and 3: %v, want [0 1 1]", dups)
	}
}

// TestFig5PipelineSaturation reproduces the paper's A -> B -> C testbed
// at a reduced rate: A offers B three times its capacity for a virtual
// minute, and B processes at capacity and drops the rest (Figures 5 and
// 6). Its queries draw on 95% of capacity, the control reserve keeping
// the rest, from a bucket that starts full with one second of it: over T
// seconds B processes 0.95·capacity·T plus that one burst, and C receives
// exactly what B processed.
func TestFig5PipelineSaturation(t *testing.T) {
	const (
		capPerMin = 1200 // 20/s at B
		offerRate = 60   // queries A offers per second
		secs      = 60
	)
	m := newMesh(t)
	a := m.add(1, nil)
	b := m.add(2, func(cfg *core.Config) { cfg.CapacityPerMin = capPerMin })
	c := m.add(3, nil)
	m.Connect(1, 2)
	m.Connect(2, 3)
	m.run()
	for i := 0; i < offerRate*secs; i++ {
		m.advance(time.Second / offerRate)
		a.SendRaw(m.Now, "bogus query")
		m.run()
	}
	st := b.Stats()
	if got := st.QueriesProcessed + st.QueriesDropped; got != offerRate*secs {
		t.Fatalf("B accounted for %d queries, A offered %d", got, offerRate*secs)
	}
	perSec := 0.95 * capPerMin / 60
	if want := perSec*secs + perSec; math.Abs(float64(st.QueriesProcessed)-want) > 1 {
		t.Errorf("B processed %d of %d, want 0.95·capacity·T + one burst = %.0f (drop rate %.3f)",
			st.QueriesProcessed, offerRate*secs, want, float64(st.QueriesDropped)/(offerRate*secs))
	}
	if got := c.Stats().QueriesReceived; got != st.QueriesProcessed {
		t.Errorf("C received %d, B processed %d", got, st.QueriesProcessed)
	}
}

// TestLiveDDPoliceDetection: a star of good peers around a hub, and an
// agent among them that floods a distinct query every 2 ms. The hub's
// DD-POLICE monitor must cut the agent within 15 virtual seconds and keep
// both good peers.
func TestLiveDDPoliceDetection(t *testing.T) {
	const agent = 66
	m := newMesh(t)
	policed := func(cfg *core.Config) {
		cfg.Police = testPolice()
		cfg.MinuteLength = 400 * time.Millisecond
	}
	hub := m.add(1, policed)
	// The agent is a stock client with an added flooding thread (§2.3):
	// it takes part in the list exchange like everyone else.
	for _, id := range []int32{2, 3, agent} {
		m.add(id, policed)
		m.Connect(id, 1)
	}
	m.run()
	start := m.Now
	for i := 0; len(hub.Stats().Disconnects) == 0; i++ {
		if m.Now.Sub(start) >= 15*time.Second {
			t.Fatal("the hub did not cut the agent in 15 s")
		}
		m.advance(2 * time.Millisecond)
		m.Cores[agent].SendRaw(m.Now, fmt.Sprintf("bogus %d", i))
		m.run()
	}
	if d := hub.Stats().Disconnects; len(d) != 1 || d[0].Code != protocol.ByeCodeDDoSSuspect {
		t.Errorf("hub's cuts %+v, want one DD-POLICE cut", d)
	}
	if nb := hub.Neighbors(); !slices.Equal(nb, []int32{2, 3}) {
		t.Errorf("hub's neighbors %v after the cut, want the good peers [2 3]", nb)
	}
}

// TestPoliceCutNeverReconnects: a neighbor this node cut by a DD-POLICE
// verdict is never re-dialed, although every node runs the reconnect
// supervisor and the observer has the lower id; nor does the suspect,
// told why by the cut's Bye, re-dial. The mesh runs on past the longest
// re-dial delay, and its log holds no dial.
func TestPoliceCutNeverReconnects(t *testing.T) {
	jr := journal.New(64)
	reg := telemetry.New()
	m := policeMesh(t, jr, reg, []int32{1, 2}, [2]int32{1, 2})
	m.flood(1, 2, 1000, 1)
	m.advance(window)     // a round with nobody else to ask
	m.advance(window / 2) // the verdict
	if nb := m.Cores[1].Neighbors(); len(nb) != 0 {
		t.Fatalf("observer's neighbors %v after the verdict, want the suspect cut", nb)
	}
	m.advance(2 * core.ReconnectMax)
	if d := m.dialed(0); len(d) != 0 {
		t.Errorf("dials after a DD-POLICE cut: %+v, want none", d)
	}
	if got := reg.Counter("gnet.reconnect_attempts").Load(); got != 0 {
		t.Errorf("reconnect_attempts = %d after a DD-POLICE cut, want 0", got)
	}
	if got := journalDetails(jr, journal.TypePeerDrop); !slices.Equal(got, []string{"cut", "orderly"}) {
		t.Errorf("peer_drop records %v, want the observer's cut, then the suspect's orderly drop", got)
	}
}

// TestShutdownIsNeverRedialed: a neighbor that shuts down says Bye, so the
// node drops it as orderly and never re-dials it, though the node has the
// lower id, which re-dials a link lost to a transport fault.
func TestShutdownIsNeverRedialed(t *testing.T) {
	jr := journal.New(64)
	m := newMesh(t)
	a := m.add(1, func(cfg *core.Config) { cfg.Journal = jr })
	b := m.add(2, nil)
	m.Connect(1, 2)
	m.run()
	b.Shutdown(m.Now)
	delete(m.Cores, 2) // gone: what is still sent to it vanishes
	m.run()
	m.advance(2 * core.ReconnectMax)
	if d := m.dialed(0); len(d) != 0 {
		t.Errorf("dials after a neighbor shut down: %+v, want none", d)
	}
	if nb := a.Neighbors(); len(nb) != 0 {
		t.Errorf("neighbors %v after the shutdown, want none", nb)
	}
	if got := journalDetails(jr, journal.TypePeerDrop); !slices.Equal(got, []string{"orderly"}) {
		t.Errorf("peer_drop records %v, want one orderly drop", got)
	}
}

// TestHotUncutPeerIsRedialed: a neighbor that sends well past the
// warning threshold, window after window, is still a neighbor until a
// DD-POLICE verdict cuts it: a good relay of an agent's flood sends as
// much. With ample capacity every copy it sends is processed, and when
// its link is lost to a transport fault the node, the lower id, dials it
// again.
func TestHotUncutPeerIsRedialed(t *testing.T) {
	m := newMesh(t)
	a := m.add(1, func(cfg *core.Config) {
		cfg.CapacityPerMin = 1e12
		cfg.MinuteLength = window
	})
	m.Connect(1, 2) // 2 is scripted: it floods 1 by injection
	m.run()
	const hot, windows = 600, 4 // past the paper's 500-query warning threshold
	for i := 0; i < windows; i++ {
		m.flood(1, 2, hot, 1)
		m.advance(window)
	}
	if st := a.Stats(); st.QueriesProcessed != hot*windows || st.QueriesDropped != 0 || st.ShedQuery != 0 {
		t.Fatalf("processed %d, dropped %d, shed %d of %d copies; want every copy processed",
			st.QueriesProcessed, st.QueriesDropped, st.ShedQuery, hot*windows)
	}
	a.Down(m.Now, core.Link{ID: 2, Conn: vnet.LinkConn})
	m.run()
	m.advance(core.ReconnectMax)
	if d := m.dialed(0); len(d) != 1 || d[0].To != 2 {
		t.Errorf("dials after the fault %+v, want one, of peer 2", d)
	}
}

// The flooded overlay: BA(8, 2) from seed 11, vertex i as node i+1, every
// node policing on 400 ms windows, and the agent at vertex 7 flooding a
// distinct query every 3 ms until an honest node cuts it. A row adds its
// conditions and its checks.
type floodedRow struct {
	name     string
	mutate   func(cfg *core.Config) // after the shared police settings
	faults   func(f *flooded)       // installs the row's Drop hook
	deadline time.Duration          // of virtual time, for the cut
	check    func(t *testing.T, f *flooded)
}

// flooded is one run of a row.
type flooded struct {
	mesh
	g     *topology.Graph
	reg   *telemetry.Registry
	jr    *journal.Journal
	start time.Time
	sent  int // queries the agent sent
	// Frames the chaos row lost to random loss and to its partition.
	lost, parted int
}

const floodAgent = 8 // vertex 7

// step moves the mesh 3 ms on, and the agent floods one more query.
func (f *flooded) step() {
	f.advance(3 * time.Millisecond)
	f.Cores[floodAgent].SendRaw(f.Now, fmt.Sprintf("junk-%d", f.sent))
	f.sent++
	f.run()
}

// cut reports whether an honest node has cut a neighbor.
func (f *flooded) cut() bool {
	for id, c := range f.Cores {
		if id != floodAgent && len(c.Stats().Disconnects) > 0 {
			return true
		}
	}
	return false
}

func runFlooded(t *testing.T, row floodedRow) *flooded {
	t.Helper()
	g, err := topology.BarabasiAlbert(rng.New(11), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 40
	pcfg.CutThreshold = 5
	f := &flooded{mesh: newMesh(t), g: g, reg: telemetry.New(), jr: journal.New(1024)}
	f.start = f.Now
	if row.faults != nil {
		row.faults(f)
	}
	f.build(g, func(_ int, cfg *core.Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = 400 * time.Millisecond
		cfg.Telemetry = f.reg
		cfg.Journal = f.jr
		if row.mutate != nil {
			row.mutate(cfg)
		}
	})
	for !f.cut() {
		if f.Now.Sub(f.start) >= row.deadline {
			t.Fatalf("no honest node cut the agent in %v", row.deadline)
		}
		f.step()
	}
	// Only the agent is cut: a cut good peer is the false alarm the
	// defense must not raise.
	for _, e := range f.jr.Events() {
		if e.Type == journal.TypeCut && e.Peer != floodAgent {
			t.Errorf("node %d cut good peer %d", e.Node, e.Peer)
		}
	}
	row.check(t, f)
	return f
}

var floodedRows = []floodedRow{{
	// The end-to-end validation: every node shares the needle, and good
	// queries are still answered after the defense acts.
	name:     "LiveDefenseUnderWorkload",
	mutate:   func(cfg *core.Config) { cfg.SharedObjects = []string{"needle"} },
	deadline: 15 * time.Second,
	check: func(t *testing.T, f *flooded) {
		for q := 0; q < 5; q++ {
			hit := make(chan protocol.QueryHit, 1)
			if err := f.Cores[1].Issue(f.Now, "needle", hit); err != nil {
				t.Fatal(err)
			}
			f.step()
			if len(hit) == 0 {
				t.Errorf("good query %d unanswered after the cut", q)
			}
		}
		for i := 0; i < f.g.NumNodes(); i++ {
			if id := int32(i + 1); id != floodAgent && len(f.Cores[id].Neighbors()) == 0 && f.g.Degree(topology.NodeID(i)) > 0 {
				t.Errorf("good node %d fully isolated", id)
			}
		}
	},
}, {
	// Three times over capacity: nodes process 3,000 queries/min and the
	// agent offers 20,000. The control plane loses nothing (neither the
	// reserve nor a control queue sheds a frame), query traffic is
	// visibly dropped, and the agent is still cut: saturation degrades
	// the data plane, not the detection machinery. At the default 0.05
	// reserve this row sheds 11 control frames before the cut; a fifth
	// of capacity, 600/min against the handful of control messages per
	// window an 8-node overlay sends, sheds none.
	name: "OverloadFloodBoundedCut",
	mutate: func(cfg *core.Config) {
		cfg.CapacityPerMin = 3000
		cfg.ControlReserveFrac = 0.2
	},
	deadline: 20 * time.Second,
	check: func(t *testing.T, f *flooded) {
		var queryDrops uint64
		for id, c := range f.Cores {
			if id != floodAgent {
				st := c.Stats()
				queryDrops += st.QueriesDropped + st.ShedQuery
			}
		}
		if queryDrops == 0 {
			t.Error("no query traffic shed or dropped under a 3x flood")
		}
		if got := f.reg.Counter("gnet.shed_control").Load(); got > 0 {
			t.Errorf("gnet.shed_control = %d, want 0: the reserve failed", got)
		}
	},
}, {
	// The overlay loses 20% of its Query, QueryHit, Neighbor_List and
	// Neighbor_Traffic frames, and holds two honest nodes apart from the
	// rest for two windows from 100 ms, before the first window closes.
	// A report that never comes back counts as zero (§3.3), so loss and
	// the partition slow the verdict but cannot stop it.
	name: "ChaosDetectionConverges",
	faults: func(f *flooded) {
		loss := rng.New(77)
		isolated := func(id int32) bool { return id == 2 || id == 3 } // vertices 1 and 2
		f.Drop = func(from, to int32, typ byte) bool {
			if at := f.Now.Sub(f.start); at >= 100*time.Millisecond && at < 900*time.Millisecond && isolated(from) != isolated(to) {
				f.parted++
				return true
			}
			switch typ {
			case protocol.TypeQuery, protocol.TypeQueryHit, protocol.TypeNeighborList, protocol.TypeNeighborTraffic:
				if loss.Bool(0.2) {
					f.lost++
					return true
				}
			}
			return false
		}
	},
	deadline: 20 * time.Second,
	check: func(t *testing.T, f *flooded) {
		if f.lost == 0 || f.parted == 0 {
			t.Errorf("before the cut the mesh lost %d frames at random and %d to the partition, want both > 0", f.lost, f.parted)
		}
	},
}}

func TestFloodedOverlay(t *testing.T) {
	for _, row := range floodedRows {
		t.Run(row.name, func(t *testing.T) {
			f := runFlooded(t, row)
			t.Logf("cut after %v, %d agent queries", f.Now.Sub(f.start), f.sent)
		})
	}
}

// TestFloodedOverlayIsDeterministic runs every row twice: the journals
// must be byte-identical.
func TestFloodedOverlayIsDeterministic(t *testing.T) {
	for _, row := range floodedRows {
		var runs [2]bytes.Buffer
		for i := range runs {
			if err := runFlooded(t, row).jr.WriteNDJSON(&runs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
			t.Errorf("%s: two runs wrote different journals", row.name)
		}
	}
}
