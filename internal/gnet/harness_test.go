package gnet

import (
	"fmt"
	"testing"
	"time"

	"ddpolice/internal/police"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

func TestHarnessRingOverlay(t *testing.T) {
	g, err := topology.RingLattice(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, 3*time.Second, func() bool {
		for i := 0; i < h.Len(); i++ {
			if len(h.Node(i).Neighbors()) != 2 {
				return false
			}
		}
		return true
	}, "ring fully connected")
}

func TestHarnessMultiHopSearch(t *testing.T) {
	// A 12-node random overlay over real TCP: a query from node 0 must
	// find the single sharer several hops away.
	g, err := topology.BarabasiAlbert(rng.New(3), 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sharer = 11
	h, err := NewHarness(g, func(i int, cfg *Config) {
		if i == sharer {
			cfg.SharedObjects = []string{"rare object"}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, 3*time.Second, func() bool {
		for i := 0; i < h.Len(); i++ {
			if len(h.Node(i).Neighbors()) != g.Degree(topology.NodeID(i)) {
				return false
			}
		}
		return true
	}, "overlay fully connected")

	hits, err := h.Node(0).IssueQuery("rare object")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case hit := <-hits:
		if hit.HitCount != 1 {
			t.Fatalf("hit count = %d", hit.HitCount)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("multi-hop query found nothing")
	}
	// The flood must have fanned out: total received across the overlay
	// reaches the edge count. The first hit can arrive while the flood is
	// still spreading, so wait for the count rather than reading it once.
	waitFor(t, 3*time.Second, func() bool {
		var received uint64
		for i := 0; i < h.Len(); i++ {
			received += h.Node(i).Stats().QueriesReceived
		}
		return received >= uint64(g.NumEdges())
	}, "flood reached too little of the overlay")
}

func TestHarnessDuplicateSuppression(t *testing.T) {
	// Triangle: exactly two duplicate copies per query. Usually each far
	// endpoint drops the other's forward; when one endpoint's forward
	// outruns the issuer's own copy, the issuer drops the echo instead —
	// so the count is over all three nodes.
	b := topology.NewBuilder(3)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	h, err := NewHarness(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, 3*time.Second, func() bool {
		return len(h.Node(0).Neighbors()) == 2 &&
			len(h.Node(1).Neighbors()) == 2 && len(h.Node(2).Neighbors()) == 2
	}, "triangle connected")
	h.Node(0).SendRawQuery("x")
	waitFor(t, 3*time.Second, func() bool {
		return h.Node(0).Stats().DupDropped+h.Node(1).Stats().DupDropped+h.Node(2).Stats().DupDropped == 2
	}, "the triangle dropped two duplicates")
}

// TestLiveDefenseUnderWorkload is the end-to-end live validation: an
// 8-node TCP overlay serves a steady stream of good queries while an
// agent floods; DD-POLICE must cut the agent and the good queries must
// keep being answered afterwards.
func TestLiveDefenseUnderWorkload(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(11), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 40
	const agentIdx = 7
	h, err := NewHarness(g, func(i int, cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = 400 * time.Millisecond
		cfg.SharedObjects = []string{"needle"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, 3*time.Second, func() bool {
		for i := 0; i < h.Len(); i++ {
			if len(h.Node(i).Neighbors()) != g.Degree(topology.NodeID(i)) {
				return false
			}
		}
		return true
	}, "overlay connected")

	// Attack: node 7 floods distinct bogus queries.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(3 * time.Millisecond)
		defer tick.Stop()
		i := 0
		for {
			select {
			case <-tick.C:
				h.Node(agentIdx).SendRawQuery(fmt.Sprintf("junk-%d", i))
				i++
			case <-stop:
				return
			}
		}
	}()

	// Wait until some node cuts the agent.
	agentID := int32(agentIdx + 1)
	waitFor(t, 15*time.Second, func() bool {
		for i := 0; i < h.Len(); i++ {
			if i == agentIdx {
				continue
			}
			for _, d := range h.Node(i).Stats().Disconnects {
				if d.Code == 451 {
					return true
				}
			}
		}
		return false
	}, "an observer cut the agent")

	// Good queries still succeed from a peer far from the agent.
	answered := 0
	for q := 0; q < 5; q++ {
		hits, err := h.Node(0).IssueQuery("needle")
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-hits:
			answered++
		case <-time.After(2 * time.Second):
		}
	}
	if answered == 0 {
		t.Fatal("no good query answered after the defense acted")
	}
	// No good peer should have lost ALL its links.
	for i := 0; i < h.Len()-1; i++ {
		if len(h.Node(i).Neighbors()) == 0 && g.Degree(topology.NodeID(i)) > 0 {
			t.Errorf("good node %d fully isolated", i)
		}
	}
	_ = agentID
}
