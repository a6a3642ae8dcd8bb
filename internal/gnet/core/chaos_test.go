package core_test

import (
	"fmt"
	"testing"
	"time"

	"ddpolice/internal/gnet/core"
	"ddpolice/internal/journal"
	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/rng"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/topology"
)

// TestChaosDetectionConverges: an 8-node overlay that loses 20% of its
// Query, QueryHit, Neighbor_List and Neighbor_Traffic frames, and holds
// two honest nodes apart from the rest for two windows, must still cut
// a flooding agent. A report that never comes back counts as zero
// (§3.3), so loss slows the verdict but cannot stop it.
func TestChaosDetectionConverges(t *testing.T) {
	g, err := topology.BarabasiAlbert(rng.New(11), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10
	pcfg.WarnThreshold = 40
	pcfg.CutThreshold = 5
	const agent = 8 // vertex 7; vertex i is node i+1

	m := newMesh(t)
	start := m.Now
	loss, lost := rng.New(77), 0
	isolated := func(id int32) bool { return id == 2 || id == 3 } // vertices 1 and 2
	m.Drop = func(from, to int32, typ byte) bool {
		if at := m.Now.Sub(start); at >= time.Second && at < 1800*time.Millisecond && isolated(from) != isolated(to) {
			return true
		}
		switch typ {
		case protocol.TypeQuery, protocol.TypeQueryHit, protocol.TypeNeighborList, protocol.TypeNeighborTraffic:
			if loss.Bool(0.2) {
				lost++
				return true
			}
		}
		return false
	}
	for i := 0; i < g.NumNodes(); i++ {
		m.add(int32(i+1), func(cfg *core.Config) {
			cfg.Police = &pcfg
			cfg.MinuteLength = 400 * time.Millisecond
			cfg.Seed = uint64(i + 1)
		})
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(topology.NodeID(u)) {
			if int(v) > u {
				m.Connect(int32(u+1), int32(v+1))
			}
		}
	}
	m.run()

	cut := func() bool {
		for id, c := range m.Cores {
			if id == agent {
				continue
			}
			for _, d := range c.Stats().Disconnects {
				if d.Code == protocol.ByeCodeDDoSSuspect {
					return true
				}
			}
		}
		return false
	}
	// The agent floods a distinct query every 3 ms.
	for i := 0; m.Now.Sub(start) < 20*time.Second; i++ {
		m.advance(3 * time.Millisecond)
		m.Cores[agent].SendRaw(m.Now, fmt.Sprintf("junk-%d", i))
		m.run()
		if cut() {
			if lost == 0 {
				t.Fatal("the agent was cut, but the mesh lost no frame")
			}
			return
		}
	}
	t.Fatal("no observer cut the agent in 20 s despite 20% loss and a partition")
}

// TestDroppedAskIsAMissingSeat: the observer asks the suspect's two
// other neighbors out of band, and the ask to one of them is lost. That
// member files no report, and the verdict comes anyway at its deadline,
// with the silent seat scored as zero (§3.3's timeout-as-zero).
func TestDroppedAskIsAMissingSeat(t *testing.T) {
	jr := journal.New(1024)
	reg := telemetry.New()
	// Observer 1, suspect 2, buddies 3 and 4: neither buddy is the
	// observer's neighbor, so the round reaches both through Ask.
	m := policeMesh(t, jr, reg, []int32{1, 2, 3, 4}, [2]int32{1, 2}, [2]int32{3, 2}, [2]int32{4, 2})
	m.Drop = func(from, to int32, typ byte) bool {
		return dropQueries(from, to, typ) || (from == 1 && to == 4 && typ == protocol.TypeNeighborTraffic)
	}
	since := len(m.Log)
	m.flood(1, 2, 1000, 1)
	m.advance(window)
	asked := map[int32]bool{}
	for _, e := range m.Log[since:] {
		if e.From == 1 && e.Kind == "ask" {
			asked[e.To] = true
		}
	}
	if !asked[3] || !asked[4] {
		t.Fatalf("the observer asked %v out of band, want both buddies", asked)
	}
	m.advance(window)

	reported, indicator := map[int64]bool{}, false
	for _, e := range jr.Events() {
		if e.Node != 1 {
			continue
		}
		switch e.Type {
		case journal.TypeNTReport:
			reported[e.Member] = true
		case journal.TypeIndicator:
			indicator = indicator || e.Peer == 2
		}
	}
	if reported[4] || !reported[3] {
		t.Errorf("nt_report members %v, want buddy 3's and not 4's, whose ask was lost", reported)
	}
	if !indicator {
		t.Error("the round ended in no indicator record")
	}
	if got := reg.Counter("gnet.evaluations_timeout_zero").Load(); got < 1 {
		t.Errorf("gnet.evaluations_timeout_zero = %d, want >= 1", got)
	}
}
