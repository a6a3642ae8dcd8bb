package gnet

import (
	"testing"
	"time"

	"ddpolice/internal/police"
	"ddpolice/internal/protocol"
	"ddpolice/internal/topology"
)

// TestBenchNTRoundCollectsReports exercises the benchmark hook end to
// end: a star around the observer, a primed buddy-group view, and one
// driven Neighbor_Traffic round that must collect a report from every
// member over the live TCP links without cutting the suspect.
func TestBenchNTRoundCollectsReports(t *testing.T) {
	const members = 4
	b := topology.NewBuilder(2 + members)
	b.AddEdge(0, 1) // observer - suspect
	for i := 0; i < members; i++ {
		b.AddEdge(0, topology.NodeID(2+i)) // observer - member
	}
	pcfg := police.DefaultConfig()
	h, err := NewHarness(b.Build(), func(i int, cfg *Config) {
		cfg.Police = &pcfg
		cfg.MinuteLength = time.Hour // rounds are driven by hand
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	observer := h.Node(0)
	const suspect = int32(2) // vertex 1
	memberIDs := make([]int32, members)
	for i := range memberIDs {
		memberIDs[i] = int32(3 + i) // vertices 2..members+1
	}
	if err := observer.BenchPrimeSuspect(suspect, memberIDs, 20, 20); err != nil {
		t.Fatal(err)
	}
	rounds := func(phase string) {
		t.Helper()
		for round := 0; round < 3; round++ {
			got, err := observer.BenchNTRound(suspect, 2*time.Second)
			if err != nil {
				t.Fatalf("%s, round %d: %v", phase, round, err)
			}
			if got != members {
				t.Fatalf("%s, round %d: collected %d reports, want %d", phase, round, got, members)
			}
		}
	}
	rounds("primed")
	// The suspect's own neighbor list — the observer and nobody else —
	// delivered after the priming, as its initial exchange sometimes is:
	// it used to replace the primed group with one that has nobody to
	// ask, and every later round collected 0 reports.
	late := protocol.Encode(nil, protocol.GUID{9}, 1, 0,
		protocol.NeighborList{Neighbors: []protocol.PeerAddr{protocol.AddrFromNodeID(1, 0)}})
	hdr, err := protocol.DecodeHeader(late)
	if err != nil {
		t.Fatal(err)
	}
	runOnLoop(t, observer, func(now time.Time) {
		for _, pc := range observer.links {
			if pc.link.ID == suspect {
				observer.core.Frame(now, pc.link, hdr, late)
			}
		}
	})
	rounds("after a late list")
	// The verdict must not have cut the suspect: the star survives.
	if nb := observer.Neighbors(); len(nb) != members+1 {
		t.Fatalf("observer has %d neighbors after rounds, want %d", len(nb), members+1)
	}
}
