package overlay

import (
	"fmt"
	"testing"

	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

func ring(t *testing.T, n, k int) *topology.Graph {
	t.Helper()
	g, err := topology.RingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewAllOnline(t *testing.T) {
	o := New(ring(t, 10, 2))
	if o.NumPeers() != 10 || o.OnlineCount() != 10 {
		t.Fatalf("peers=%d online=%d", o.NumPeers(), o.OnlineCount())
	}
	if o.NumDirectedEdges() != 40 { // 20 undirected edges
		t.Fatalf("directed edges = %d", o.NumDirectedEdges())
	}
}

func TestEdgeLookupAndEndpoints(t *testing.T) {
	g := ring(t, 10, 2)
	o := New(g)
	for v := topology.NodeID(0); v < 10; v++ {
		for k, w := range g.Neighbors(v) {
			e := o.EdgeID(v, k)
			from, to := o.Endpoints(e)
			if from != v || to != w {
				t.Fatalf("endpoints(%d) = (%d,%d), want (%d,%d)", e, from, to, v, w)
			}
			fe, ok := o.FindEdge(v, w)
			if !ok || fe != e {
				t.Fatalf("FindEdge(%d,%d) = %d,%v want %d", v, w, fe, ok, e)
			}
			// Reverse must point back.
			rf, rt := o.Endpoints(o.Reverse(e))
			if rf != w || rt != v {
				t.Fatalf("reverse(%d) endpoints = (%d,%d)", e, rf, rt)
			}
		}
	}
	if _, ok := o.FindEdge(0, 5); ok {
		t.Fatal("found non-existent edge")
	}
}

// TestReverseEdgesMatchLookup holds New's reverse-edge cursor to the
// binary search it replaced: Reverse is an involution and Reverse(e) is
// the lookupEdge of e's swapped endpoints, on BA and ring graphs.
func TestReverseEdgesMatchLookup(t *testing.T) {
	type named struct {
		name string
		g    *topology.Graph
	}
	graphs := []named{{"ring(10,2)", ring(t, 10, 2)}, {"ring(101,7)", ring(t, 101, 7)}}
	for _, c := range []struct{ n, m int }{{12, 2}, {300, 3}, {2000, 5}} {
		g, err := topology.BarabasiAlbert(rng.New(uint64(c.n)), c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, named{fmt.Sprintf("BA(%d,%d)", c.n, c.m), g})
	}
	for _, c := range graphs {
		name, o := c.name, New(c.g)
		for e := EdgeID(0); int(e) < o.NumDirectedEdges(); e++ {
			re := o.Reverse(e)
			if o.Reverse(re) != e {
				t.Fatalf("%s: Reverse(Reverse(%d)) = %d", name, e, o.Reverse(re))
			}
			from, to := o.Endpoints(e)
			if want, ok := o.lookupEdge(to, from); !ok || re != want {
				t.Fatalf("%s: Reverse(%d) = %d, lookupEdge(%d,%d) = %d,%v", name, e, re, to, from, want, ok)
			}
		}
	}
}

func TestActiveNeighborsRespectOnlineAndCuts(t *testing.T) {
	o := New(ring(t, 10, 2))
	// Node 0's ring-lattice neighbors are 1, 2, 8, 9.
	ns := o.ActiveNeighbors(0, nil)
	if len(ns) != 4 {
		t.Fatalf("active neighbors = %v", ns)
	}
	o.SetOnline(1, false)
	if err := o.Cut(0, 2); err != nil {
		t.Fatal(err)
	}
	ns = o.ActiveNeighbors(0, nil)
	if len(ns) != 2 || ns[0] != 8 || ns[1] != 9 {
		t.Fatalf("after offline+cut: %v", ns)
	}
	if peers, edges := o.Active(0); len(peers) != 2 || len(edges) != 2 {
		t.Fatalf("active row = %v %v", peers, edges)
	}
	if o.Connected(0, 2) || o.Connected(0, 1) || !o.Connected(0, 9) {
		t.Fatal("Connected wrong")
	}
	// Offline peer has no active neighbors.
	if got := o.ActiveNeighbors(1, nil); len(got) != 0 {
		t.Fatalf("offline peer neighbors = %v", got)
	}
	if peers, _ := o.Active(1); len(peers) != 0 {
		t.Fatal("offline peer has an active row")
	}
}

func TestCutSymmetricAndCount(t *testing.T) {
	o := New(ring(t, 10, 2))
	if err := o.Cut(3, 4); err != nil {
		t.Fatal(err)
	}
	if !o.IsCut(3, 4) || !o.IsCut(4, 3) {
		t.Fatal("cut not symmetric")
	}
	if o.CutCount() != 1 {
		t.Fatalf("cut count = %d", o.CutCount())
	}
	if err := o.Cut(0, 5); err == nil {
		t.Fatal("cut of non-edge accepted")
	}
}

func TestRejoinClearsCutsAndCounters(t *testing.T) {
	o := New(ring(t, 10, 2))
	o.CountTraffic()
	if err := o.Cut(3, 4); err != nil {
		t.Fatal(err)
	}
	if err := o.AddTrafficBetween(3, 4, 100); err != nil {
		t.Fatal(err)
	}
	o.RollMinute()
	e, _ := o.FindEdge(3, 4)
	if o.LastMinute(e) != 100 {
		t.Fatal("counter lost before rejoin")
	}
	o.SetOnline(3, false)
	o.SetOnline(3, true)
	if o.IsCut(3, 4) {
		t.Fatal("cut survived rejoin")
	}
	if o.LastMinute(e) != 0 {
		t.Fatal("counters survived rejoin")
	}
}

func TestSetOnlineIdempotent(t *testing.T) {
	o := New(ring(t, 10, 2))
	if err := o.Cut(0, 1); err != nil {
		t.Fatal(err)
	}
	o.SetOnline(0, true) // no-op: must NOT clear the cut
	if !o.IsCut(0, 1) {
		t.Fatal("no-op SetOnline cleared cut state")
	}
}

func TestTrafficWindows(t *testing.T) {
	o := New(ring(t, 10, 2))
	o.CountTraffic()
	e, _ := o.FindEdge(0, 1)
	o.AddTraffic(e, 30)
	o.AddTraffic(e, 12.5)
	if got := o.CurrentMinuteEdge(e); got != 42.5 {
		t.Fatalf("current = %v", got)
	}
	if got := o.LastMinute(e); got != 0 {
		t.Fatalf("last before roll = %v", got)
	}
	o.RollMinute()
	if got := o.LastMinute(e); got != 42.5 {
		t.Fatalf("last after roll = %v", got)
	}
	if got := o.CurrentMinuteEdge(e); got != 0 {
		t.Fatalf("current after roll = %v", got)
	}
	o.RollMinute()
	if got := o.LastMinute(e); got != 0 {
		t.Fatalf("stale count survived second roll: %v", got)
	}
	if err := o.AddTrafficBetween(0, 5, 1); err == nil {
		t.Fatal("traffic on non-edge accepted")
	}
	o.AddTraffic(e, 7)
	o.CountTraffic() // a second call keeps the counts
	if got := o.CurrentMinuteEdge(e); got != 7 {
		t.Fatalf("second CountTraffic reset the window: %v", got)
	}
}

// TestUncountedOverlay: an overlay that never called CountTraffic
// holds no counters. Writes are no-ops or errors, and a read panics
// rather than return a zero that looks like a quiet minute.
func TestUncountedOverlay(t *testing.T) {
	o := New(ring(t, 10, 2))
	e, _ := o.FindEdge(0, 1)
	o.AddTraffic(e, 5)
	o.RollMinute()
	o.SetOnline(0, false)
	o.SetOnline(0, true)
	if err := o.AddTrafficBetween(0, 1, 5); err == nil {
		t.Fatal("AddTrafficBetween accepted on an uncounted overlay")
	}
	for name, read := range map[string]func(){
		"LastMinute":        func() { o.LastMinute(e) },
		"CurrentMinuteEdge": func() { o.CurrentMinuteEdge(e) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s read an uncounted overlay without panicking", name)
				}
			}()
			read()
		}()
	}
	o.CountTraffic()
	if o.CurrentMinuteEdge(e) != 0 || o.LastMinute(e) != 0 {
		t.Fatal("CountTraffic did not start every counter at zero")
	}
}

func TestChurnTogglesPeers(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(1), 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := New(g)
	c := NewChurn(o, ChurnConfig{MeanLifetime: 60, StddevLifetime: 13, MeanOffline: 60}, rng.New(2))
	joins, leaves := 0, 0
	for i := 0; i < 600; i++ { // 10 simulated minutes
		c.Tick(1)
		for _, v := range c.Flips() {
			if o.Online(v) {
				joins++
			} else {
				leaves++
			}
		}
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("no churn: joins=%d leaves=%d", joins, leaves)
	}
	// With equal on/off means, roughly half the peers are online.
	on := o.OnlineCount()
	if on < 90 || on > 210 {
		t.Fatalf("online count = %d, want around 150", on)
	}
}

func TestChurnPinnedPeerStaysOnline(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(3), 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := New(g)
	c := NewChurn(o, ChurnConfig{MeanLifetime: 5, StddevLifetime: 1, MeanOffline: 5}, rng.New(4))
	c.Pin(7)
	for i := 0; i < 300; i++ {
		c.Tick(1)
		if !o.Online(7) {
			t.Fatal("pinned peer went offline")
		}
	}
}

func TestChurnNoRejoinWhenMeanOfflineZero(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(5), 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := New(g)
	c := NewChurn(o, ChurnConfig{MeanLifetime: 10, StddevLifetime: 2, MeanOffline: 0}, rng.New(6))
	for i := 0; i < 200; i++ {
		c.Tick(1)
		for _, v := range c.Flips() {
			if o.Online(v) {
				t.Fatalf("peer %d rejoined despite MeanOffline=0", v)
			}
		}
	}
	if o.OnlineCount() != 0 {
		t.Fatalf("%d peers still online after 20 mean lifetimes", o.OnlineCount())
	}
}

func BenchmarkActiveNeighbors(b *testing.B) {
	g, err := topology.BarabasiAlbert(rng.New(1), 2000, 3)
	if err != nil {
		b.Fatal(err)
	}
	o := New(g)
	buf := make([]PeerID, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = o.ActiveNeighbors(PeerID(i%2000), buf[:0])
	}
	_ = buf
}

func BenchmarkRollMinute2000(b *testing.B) {
	g, err := topology.BarabasiAlbert(rng.New(1), 2000, 3)
	if err != nil {
		b.Fatal(err)
	}
	o := New(g)
	o.CountTraffic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.RollMinute()
	}
}

// TestRandomOpSequenceInvariants drives the overlay with random
// operations and checks structural invariants after every step.
func TestRandomOpSequenceInvariants(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(77), 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := New(g)
	o.CountTraffic()
	src := rng.New(78)
	check := func(step int) {
		for v := 0; v < 150; v++ {
			id := PeerID(v)
			row, _ := o.Active(id)
			ad := len(row)
			if ad < 0 || ad > g.Degree(id) {
				t.Fatalf("step %d: active degree %d outside [0,%d]", step, ad, g.Degree(id))
			}
			if !o.Online(id) && ad != 0 {
				t.Fatalf("step %d: offline peer %d has active degree %d", step, v, ad)
			}
			for k, w := range g.Neighbors(id) {
				if o.IsCut(id, w) != o.IsCut(w, id) {
					t.Fatalf("step %d: asymmetric cut (%d,%d)", step, v, w)
				}
				if o.Connected(id, w) != o.Connected(w, id) {
					t.Fatalf("step %d: asymmetric connectivity (%d,%d)", step, v, w)
				}
				if o.LastMinute(o.EdgeID(id, k)) < 0 {
					t.Fatalf("step %d: negative counter", step)
				}
			}
		}
	}
	for step := 0; step < 400; step++ {
		v := PeerID(src.Intn(150))
		switch src.Intn(5) {
		case 0:
			o.SetOnline(v, true)
		case 1:
			o.SetOnline(v, false)
		case 2:
			ns := g.Neighbors(v)
			if len(ns) > 0 {
				_ = o.Cut(v, ns[src.Intn(len(ns))])
			}
		case 3:
			ns := g.Neighbors(v)
			if len(ns) > 0 {
				_ = o.AddTrafficBetween(v, ns[src.Intn(len(ns))], src.Float64()*100)
			}
		case 4:
			o.RollMinute()
		}
		check(step)
	}
}

// TestVersionCountsConnectivityMutations pins the mutation-counter
// contract that the flood traversal cache and the fair-share budget key
// their validity on: every state-changing SetOnline/Cut/Uncut bumps it,
// and no-op mutations leave it alone.
func TestVersionCountsConnectivityMutations(t *testing.T) {
	o := New(ring(t, 10, 2))
	o.CountTraffic()
	v0 := o.Version()

	o.SetOnline(3, false)
	if o.Version() != v0+1 {
		t.Fatalf("leave: version %d, want %d", o.Version(), v0+1)
	}
	o.SetOnline(3, false) // no-op: already offline
	if o.Version() != v0+1 {
		t.Fatalf("no-op leave bumped version to %d", o.Version())
	}
	o.SetOnline(3, true)
	if o.Version() != v0+2 {
		t.Fatalf("rejoin: version %d, want %d", o.Version(), v0+2)
	}
	o.SetOnline(3, true) // no-op: already online
	if o.Version() != v0+2 {
		t.Fatalf("no-op join bumped version to %d", o.Version())
	}

	if err := o.Cut(0, 1); err != nil {
		t.Fatal(err)
	}
	if o.Version() != v0+3 {
		t.Fatalf("cut: version %d, want %d", o.Version(), v0+3)
	}
	if err := o.Cut(0, 1); err != nil {
		t.Fatal(err)
	}
	if o.Version() != v0+3 {
		t.Fatalf("re-cut of severed edge bumped version to %d", o.Version())
	}
	o.Uncut(0, 1)
	if o.Version() != v0+4 {
		t.Fatalf("heal: version %d, want %d", o.Version(), v0+4)
	}
	o.Uncut(0, 1) // no-op: edge intact
	if o.Version() != v0+4 {
		t.Fatalf("no-op heal bumped version to %d", o.Version())
	}
	o.Uncut(5, 9) // no-op: not an edge
	if o.Version() != v0+4 {
		t.Fatalf("uncut of non-edge bumped version to %d", o.Version())
	}

	// Traffic accounting and minute rolls are not connectivity.
	if err := o.AddTrafficBetween(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	o.RollMinute()
	if o.Version() != v0+4 {
		t.Fatalf("traffic/minute bookkeeping bumped version to %d", o.Version())
	}
}

// TestEdgeCutMatchesIsCut checks the O(1) edge-id form against the
// endpoint form.
func TestEdgeCutMatchesIsCut(t *testing.T) {
	o := New(ring(t, 10, 2))
	if err := o.Cut(2, 3); err != nil {
		t.Fatal(err)
	}
	e, ok := o.FindEdge(2, 3)
	if !ok {
		t.Fatal("edge 2-3 missing")
	}
	if !o.EdgeCut(e) || !o.EdgeCut(o.Reverse(e)) {
		t.Fatal("EdgeCut false for severed edge")
	}
	if f, _ := o.FindEdge(3, 4); o.EdgeCut(f) {
		t.Fatal("EdgeCut true for intact edge")
	}
}
