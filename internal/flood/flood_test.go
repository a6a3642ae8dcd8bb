package flood

import (
	"math"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
	"ddpolice/internal/workload"
)

// lineGraph builds 0-1-2-...-n-1.
func lineGraph(t *testing.T, n int) *overlay.Overlay {
	t.Helper()
	b := topology.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(topology.NodeID(i), topology.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return overlay.New(b.Build())
}

// star builds hub 0 with n-1 leaves.
func star(t *testing.T, n int) *overlay.Overlay {
	t.Helper()
	b := topology.NewBuilder(n)
	for i := 1; i < n; i++ {
		if err := b.AddEdge(0, topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return overlay.New(b.Build())
}

func bigBudget(n int) *Budget { return NewBudget(n, 1e9) }

func TestFloodQueryReachesTTL(t *testing.T) {
	ov := lineGraph(t, 10)
	e := NewEngine(ov)
	res := e.FloodQuery(0, 3, workload.Replicas{}, bigBudget(10), DelayModel{HopDelay: 0.05})
	// Peers 1, 2, 3 processed; messages = 3 (no branching, no dups).
	if res.Processed != 3 {
		t.Fatalf("processed = %d, want 3", res.Processed)
	}
	if res.QueryMessages != 3 || res.DupMessages != 0 {
		t.Fatalf("messages = %v dups = %v", res.QueryMessages, res.DupMessages)
	}
	if res.Hit {
		t.Fatal("hit with no holders")
	}
	if res.FirstHitHops != -1 {
		t.Fatalf("FirstHitHops = %d", res.FirstHitHops)
	}
}

func TestFloodQueryHitAccounting(t *testing.T) {
	ov := lineGraph(t, 10)
	e := NewEngine(ov)
	holders := replicas(t, 10, 2, 5, 9)
	res := e.FloodQuery(0, 7, holders, bigBudget(10), DelayModel{HopDelay: 0.05})
	if !res.Hit {
		t.Fatal("no hit")
	}
	if res.FirstHitHops != 2 {
		t.Fatalf("first hit at %d hops, want 2", res.FirstHitHops)
	}
	if res.HitHolders != 2 { // peers 2 and 5 are within TTL 7; peer 9 is not
		t.Fatalf("hit holders = %d, want 2", res.HitHolders)
	}
	if res.HitMessages != 7 { // 2 + 5 reverse-path messages
		t.Fatalf("hit messages = %v, want 7", res.HitMessages)
	}
	// Uncongested delay: 2 hops forward + 2 hops back at 50 ms.
	if math.Abs(res.ResponseDelay-0.2) > 1e-9 {
		t.Fatalf("response delay = %v, want 0.2", res.ResponseDelay)
	}
}

func TestIssuerNotCountedAsResponder(t *testing.T) {
	ov := lineGraph(t, 5)
	e := NewEngine(ov)
	res := e.FloodQuery(0, 7, replicas(t, e.ov.NumPeers(), 0), bigBudget(5), DefaultDelayModel())
	if res.Hit {
		t.Fatal("issuer's own replica must not count as a hit")
	}
}

func TestFloodQueryDuplicates(t *testing.T) {
	// Triangle 0-1-2: 1 and 2 exchange duplicate copies.
	b := topology.NewBuilder(3)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ov := overlay.New(b.Build())
	e := NewEngine(ov)
	res := e.FloodQuery(0, 7, workload.Replicas{}, bigBudget(3), DefaultDelayModel())
	if res.Processed != 2 {
		t.Fatalf("processed = %d", res.Processed)
	}
	// Messages: 0->1, 0->2, then 1->2 and 2->1 (both dups). Total 4, 2 dups.
	if res.QueryMessages != 4 || res.DupMessages != 2 {
		t.Fatalf("messages = %v dups = %v", res.QueryMessages, res.DupMessages)
	}
}

func TestNeverSendsBackToParent(t *testing.T) {
	ov := lineGraph(t, 3)
	e := NewEngine(ov)
	res := e.FloodQuery(0, 7, workload.Replicas{}, bigBudget(3), DefaultDelayModel())
	// 0->1, 1->2. Peer 1 must not send back to 0, peer 2 has no other
	// neighbor: exactly 2 messages, no dups.
	if res.QueryMessages != 2 || res.DupMessages != 0 {
		t.Fatalf("messages = %v dups = %v", res.QueryMessages, res.DupMessages)
	}
}

func TestCapacityDropsTruncateFlood(t *testing.T) {
	ov := lineGraph(t, 10)
	e := NewEngine(ov)
	budget := bigBudget(10)
	budget.remaining[3] = 0 // peer 3 saturated
	res := e.FloodQuery(0, 9, replicas(t, e.ov.NumPeers(), 5), budget, DefaultDelayModel())
	if res.Processed != 2 { // peers 1, 2
		t.Fatalf("processed = %d, want 2", res.Processed)
	}
	if res.CapacityDrops != 1 {
		t.Fatalf("capacity drops = %d", res.CapacityDrops)
	}
	if res.Hit {
		t.Fatal("query must not reach holder past a saturated peer on a line")
	}
}

func TestSaturatedHolderDoesNotRespond(t *testing.T) {
	ov := lineGraph(t, 5)
	e := NewEngine(ov)
	budget := bigBudget(5)
	budget.remaining[2] = 0
	res := e.FloodQuery(0, 7, replicas(t, e.ov.NumPeers(), 2), budget, DefaultDelayModel())
	if res.Hit {
		t.Fatal("a peer that dropped the query cannot answer it")
	}
}

func TestBudgetConsumption(t *testing.T) {
	ov := star(t, 6)
	e := NewEngine(ov)
	budget := NewBudget(6, 10)
	e.FloodQuery(1, 7, workload.Replicas{}, budget, DefaultDelayModel())
	// Flood from leaf 1: hub 0 processes (9 left), leaves 2-5 process.
	if budget.remaining[0] != 9 {
		t.Fatalf("hub budget = %v", budget.remaining[0])
	}
	for p := 2; p < 6; p++ {
		if budget.remaining[p] != 9 {
			t.Fatalf("leaf %d budget = %v", p, budget.remaining[p])
		}
	}
	if budget.remaining[1] != 10 {
		t.Fatal("issuer consumed its own budget")
	}
	budget.Refill()
	if budget.remaining[0] != 10 {
		t.Fatal("refill failed")
	}
}

func TestUtilization(t *testing.T) {
	b := NewBudget(2, 10)
	b.remaining[0] = 2.5
	if got := b.Utilization(0); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("utilization = %v", got)
	}
	b.remaining[1] = 15 // over-full clamps to 0
	if got := b.Utilization(1); got != 0 {
		t.Fatalf("overfull utilization = %v", got)
	}
	b.perTick[1] = 0
	if got := b.Utilization(1); got != 0 {
		t.Fatalf("idle zero-capacity utilization = %v, want 0", got)
	}
}

func TestQueueingDelayGrowsWithUtilization(t *testing.T) {
	ov := lineGraph(t, 4)
	e := NewEngine(ov)
	dm := DelayModel{HopDelay: 0.05, QueueFactor: 0.3, MaxQueue: 12}
	fast := e.FloodQuery(0, 7, replicas(t, e.ov.NumPeers(), 3), bigBudget(4), dm)
	// Now a nearly-exhausted budget: utilization ~1 at every hop.
	tight := NewBudget(4, 1.0)
	slow := e.FloodQuery(0, 7, replicas(t, e.ov.NumPeers(), 3), tight, dm)
	if !fast.Hit || !slow.Hit {
		t.Fatal("both floods should hit")
	}
	if slow.ResponseDelay <= fast.ResponseDelay*1.5 {
		t.Fatalf("congested delay %v not much larger than idle %v", slow.ResponseDelay, fast.ResponseDelay)
	}
}

func TestFloodFromOfflinePeerIsNoop(t *testing.T) {
	ov := lineGraph(t, 5)
	ov.SetOnline(0, false)
	e := NewEngine(ov)
	res := e.FloodQuery(0, 7, workload.Replicas{}, bigBudget(5), DefaultDelayModel())
	if res.QueryMessages != 0 || res.Processed != 0 {
		t.Fatalf("offline flood produced traffic: %+v", res)
	}
	if res := e.FloodBatch(0, -1, 7, 100, bigBudget(5)); res.QueryMessages != 0 {
		t.Fatalf("offline batch produced traffic: %+v", res)
	}
}

func TestZeroTTLIsNoop(t *testing.T) {
	ov := lineGraph(t, 5)
	e := NewEngine(ov)
	if res := e.FloodQuery(0, 0, workload.Replicas{}, bigBudget(5), DefaultDelayModel()); res.QueryMessages != 0 {
		t.Fatalf("TTL 0 flood produced traffic: %+v", res)
	}
}

// TestFloodRefusesTTLAboveMax: both entry points refuse a TTL the wire
// header cannot carry, and accept MaxTTL itself. A batch keys its tree
// by int32(ttl), so an unchecked TTL of 2^32+3 would record and replay
// under TTL 3's key.
func TestFloodRefusesTTLAboveMax(t *testing.T) {
	e := NewEngine(lineGraph(t, 5))
	b, dm := bigBudget(5), DefaultDelayModel()
	for _, tc := range []struct {
		name  string
		flood func(ttl int)
	}{
		{"FloodQuery", func(ttl int) { e.FloodQuery(0, ttl, workload.Replicas{}, b, dm) }},
		{"FloodBatch", func(ttl int) { e.FloodBatch(0, -1, ttl, 1, b) }},
	} {
		tc.flood(MaxTTL)
		for _, ttl := range []int{MaxTTL + 1, 1<<32 + 3} {
			func() {
				defer func() {
					want := "flood: " + tc.name + " ttl exceeds MaxTTL"
					if r := recover(); r != want {
						t.Errorf("%s at TTL %d: recovered %v, want panic %q", tc.name, ttl, r, want)
					}
				}()
				tc.flood(ttl)
			}()
		}
	}
}

func TestFloodBatchMatchesUnitFlood(t *testing.T) {
	// On an uncongested network, a batch of weight W produces exactly
	// W times the messages of a unit query (identical routing).
	g, err := topology.BarabasiAlbert(rng.New(4), 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	ov := overlay.New(g)
	e := NewEngine(ov)
	unit := e.FloodQuery(0, 7, workload.Replicas{}, bigBudget(200), DefaultDelayModel())
	batch := e.FloodBatch(0, -1, 7, 50, bigBudget(200))
	if math.Abs(batch.QueryMessages-50*unit.QueryMessages) > 1e-6 {
		t.Fatalf("batch messages %v != 50 * unit %v", batch.QueryMessages, unit.QueryMessages)
	}
	if math.Abs(batch.DupMessages-50*unit.DupMessages) > 1e-6 {
		t.Fatalf("batch dups %v != 50 * unit %v", batch.DupMessages, unit.DupMessages)
	}
	if batch.PeersReached != unit.Processed {
		t.Fatalf("batch reached %d peers, unit processed %d", batch.PeersReached, unit.Processed)
	}
}

func TestFloodBatchCapacityClippingPhysical(t *testing.T) {
	ov := lineGraph(t, 5)
	e := NewEngine(ov)
	e.SetCounterMode(CounterPhysical)
	budget := NewBudget(5, 1e9)
	budget.remaining[2] = 30 // clip point
	res := e.FloodBatch(0, -1, 7, 100, budget)
	// Peer 1 processes 100, peer 2 processes 30, peers 3, 4 process 30.
	if math.Abs(res.ProcessedMass-(100+30+30+30)) > 1e-9 {
		t.Fatalf("processed mass = %v", res.ProcessedMass)
	}
	if math.Abs(res.CapacityDrops-70) > 1e-9 {
		t.Fatalf("capacity drops = %v", res.CapacityDrops)
	}
	// Physical messages: 0->1 (100), 1->2 (100), 2->3 (30), 3->4 (30).
	if math.Abs(res.QueryMessages-260) > 1e-9 {
		t.Fatalf("query messages = %v, want 260", res.QueryMessages)
	}
}

func TestFloodBatchEntryRestriction(t *testing.T) {
	ov := star(t, 5) // hub 0, leaves 1..4
	e := NewEngine(ov)
	// Attacker is leaf 1; entry restricted to hub 0 trivially. Attack
	// from the hub with entry = 2: only leaf 2 receives.
	res := e.FloodBatch(0, 2, 7, 40, bigBudget(5))
	if res.QueryMessages != 40 {
		t.Fatalf("messages = %v, want 40 on the single entry edge", res.QueryMessages)
	}
	if res.PeersReached != 1 {
		t.Fatalf("reached %d peers", res.PeersReached)
	}
}

func TestFloodBatchZeroWeight(t *testing.T) {
	ov := lineGraph(t, 3)
	e := NewEngine(ov)
	if res := e.FloodBatch(0, -1, 7, 0, bigBudget(3)); res.QueryMessages != 0 {
		t.Fatalf("zero-weight batch produced traffic: %+v", res)
	}
}

func TestFig1TrafficMultiplication(t *testing.T) {
	// Fig 1's insight: flooding multiplies volume downstream, so the
	// network-wide message count far exceeds what crosses the bad
	// peer's own links. Chain: bad(0) - good(1) - good(2), where 2 has
	// further neighbors 3, 4.
	b := topology.NewBuilder(5)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {2, 3}, {2, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ov := overlay.New(b.Build())
	e := NewEngine(ov)
	res := e.FloodBatch(0, -1, 7, 1000, bigBudget(5))
	// Source link carries 1000; total = 0->1, 1->2, 2->3, 2->4 = 4000.
	if res.QueryMessages != 4000 {
		t.Fatalf("total messages = %v, want 4x the source link volume", res.QueryMessages)
	}
}

func TestRepeatedFloodsIsolated(t *testing.T) {
	// Epoch bumping must isolate floods: a second flood must behave
	// identically to the first.
	g, err := topology.BarabasiAlbert(rng.New(9), 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	ov := overlay.New(g)
	e := NewEngine(ov)
	first := e.FloodQuery(5, 7, workload.Replicas{}, bigBudget(100), DefaultDelayModel())
	second := e.FloodQuery(5, 7, workload.Replicas{}, bigBudget(100), DefaultDelayModel())
	if first.QueryMessages != second.QueryMessages || first.Processed != second.Processed {
		t.Fatalf("floods differ: %+v vs %+v", first, second)
	}
}

func BenchmarkFloodQuery2000(b *testing.B) {
	g, err := topology.BarabasiAlbert(rng.New(1), 2000, 3)
	if err != nil {
		b.Fatal(err)
	}
	ov := overlay.New(g)
	e := NewEngine(ov)
	budget := NewBudget(2000, 1e9)
	dm := DefaultDelayModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FloodQuery(PeerID(i%2000), 7, workload.Replicas{}, budget, dm)
	}
}

func BenchmarkFloodBatch2000(b *testing.B) {
	g, err := topology.BarabasiAlbert(rng.New(1), 2000, 3)
	if err != nil {
		b.Fatal(err)
	}
	ov := overlay.New(g)
	e := NewEngine(ov)
	budget := NewBudget(2000, 1e9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FloodBatch(PeerID(i%2000), -1, 7, 333, budget)
	}
}

func TestFloodBatchIdealCountersUnclipped(t *testing.T) {
	// In the paper's measurement plane the counters see the full flow
	// even past a saturated peer, while the surviving (success-plane)
	// mass thins.
	ov := lineGraph(t, 5)
	e := NewEngine(ov)
	if e.mode != CounterPhysical {
		t.Fatal("default mode must be CounterPhysical")
	}
	e.SetCounterMode(CounterIdeal)
	budget := NewBudget(5, 1e9)
	budget.remaining[2] = 30
	res := e.FloodBatch(0, -1, 7, 100, budget)
	// Ideal plane: every edge on the line carries the full 100.
	if res.QueryMessages != 400 {
		t.Errorf("ideal messages = %v, want 400", res.QueryMessages)
	}
	// Success plane: peer 1 processes 100, peer 2 clips to 30, 3 and 4
	// inherit 30.
	if math.Abs(res.ProcessedMass-(100+30+30+30)) > 1e-9 {
		t.Errorf("processed mass = %v", res.ProcessedMass)
	}
	if math.Abs(res.CapacityDrops-70) > 1e-9 {
		t.Errorf("capacity drops = %v", res.CapacityDrops)
	}
}

func TestFloodQueryIdealCountersPastSaturation(t *testing.T) {
	// A saturated peer kills the real query but the counter plane keeps
	// flowing: downstream edges still record the message and downstream
	// holders cannot answer.
	ov := lineGraph(t, 6)
	e := NewEngine(ov)
	e.SetCounterMode(CounterIdeal)
	budget := bigBudget(6)
	budget.remaining[2] = 0
	res := e.FloodQuery(0, 7, replicas(t, e.ov.NumPeers(), 4), budget, DefaultDelayModel())
	if res.Hit {
		t.Fatal("query answered past a saturated peer")
	}
	// Peer 1 survives; peer 2 drops the query; peers 3..5 see only the
	// phantom counter-plane flow.
	if res.Processed != 1 {
		t.Fatalf("processed = %d, want 1", res.Processed)
	}
	if res.CapacityDrops != 1 {
		t.Fatalf("capacity drops = %d, want 1", res.CapacityDrops)
	}
	// Ideal plane keeps flowing past the saturated peer: all 5 line
	// edges carry the message.
	if res.QueryMessages != 5 {
		t.Fatalf("ideal plane stopped at saturation: messages = %v, want 5", res.QueryMessages)
	}
}

func TestFairShareProtectsOtherLinks(t *testing.T) {
	// Star hub with 4 leaves, fair-share on: leaf 1 floods a huge batch
	// but can only consume its per-connection share of the hub's
	// capacity; a later query from leaf 2 still gets through.
	ov := star(t, 5)
	e := NewEngine(ov)
	budget := NewBudget(5, 40)
	budget.EnableFairShare(ov)
	// Hub capacity 40, degree 4: each inbound link may deliver 10.
	e.FloodBatch(1, -1, 7, 1000, budget)
	if got := budget.remaining[0]; got != 30 {
		t.Fatalf("hub remaining = %v, want 30 (one link's share consumed)", got)
	}
	res := e.FloodQuery(2, 7, replicas(t, e.ov.NumPeers(), 3), budget, DefaultDelayModel())
	if !res.Hit {
		t.Fatal("fair share failed to protect the other links")
	}
}

func TestFairShareVsFCFS(t *testing.T) {
	// Same scenario without fair share: the batch drains the hub
	// completely and the good query dies.
	ov := star(t, 5)
	e := NewEngine(ov)
	budget := NewBudget(5, 40)
	e.FloodBatch(1, -1, 7, 1000, budget)
	if got := budget.remaining[0]; got != 0 {
		t.Fatalf("hub remaining = %v, want 0 under FCFS", got)
	}
	res := e.FloodQuery(2, 7, replicas(t, e.ov.NumPeers(), 3), budget, DefaultDelayModel())
	if res.Hit {
		t.Fatal("FCFS hub should have been drained by the flood")
	}
}

func TestFairShareRefill(t *testing.T) {
	ov := star(t, 3)
	budget := NewBudget(3, 20)
	budget.EnableFairShare(ov)
	e := NewEngine(ov)
	e.FloodBatch(1, -1, 7, 100, budget)
	budget.Refill()
	eid := ov.EdgeID(1, 0) // leaf 1's one edge, to the hub
	if got := budget.arrivalCap(0, eid); got != 10 {
		t.Fatalf("per-link share after refill = %v, want 10", got)
	}
}

func TestEngineTelemetryCounters(t *testing.T) {
	// Triangle 0-1-2: one flood from 0 traverses 4 edges at TTL 2
	// (0->1, 0->2, then 1<->2 duplicates) and suppresses 2 duplicates.
	b := topology.NewBuilder(3)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ov := overlay.New(b.Build())
	eng := NewEngine(ov)
	reg := telemetry.New()
	eng.AttachTelemetry(reg)

	eng.FloodQuery(0, 2, workload.Replicas{}, bigBudget(3), DelayModel{HopDelay: 0.05})
	if got := reg.Counter("flood.floods").Load(); got != 1 {
		t.Errorf("floods = %d, want 1", got)
	}
	if got := reg.Counter("flood.edges_traversed").Load(); got != 4 {
		t.Errorf("edges = %d, want 4", got)
	}
	if got := reg.Counter("flood.dup_suppressed").Load(); got != 2 {
		t.Errorf("dups = %d, want 2", got)
	}
	if got := reg.Counter("flood.budget_drops").Load(); got != 0 {
		t.Errorf("drops = %d, want 0 with a large budget", got)
	}

	// A starving budget records drop events (batch plane too).
	eng.FloodQuery(0, 2, workload.Replicas{}, NewBudget(3, 0), DelayModel{HopDelay: 0.05})
	if got := reg.Counter("flood.budget_drops").Load(); got == 0 {
		t.Error("no drop events under a zero budget")
	}
	before := reg.Counter("flood.floods").Load()
	eng.FloodBatch(0, -1, 2, 100, bigBudget(3))
	if got := reg.Counter("flood.floods").Load(); got != before+1 {
		t.Errorf("batch flood not counted: %d", got)
	}

	// Detach: recording must stop, not crash.
	eng.AttachTelemetry(nil)
	eng.FloodQuery(0, 2, workload.Replicas{}, bigBudget(3), DelayModel{HopDelay: 0.05})
}
