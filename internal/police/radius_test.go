package police

import (
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

func baOverlay(t *testing.T, seed uint64, n int) *overlay.Overlay {
	t.Helper()
	g, err := topology.BarabasiAlbert(rng.New(seed), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	return overlay.New(g)
}

// TestRadius2Bounded drives a Radius-1 and a Radius-2 instance through
// one seeded sequence of exchanges, leaves, joins and cuts on a shared
// BA overlay (neither instance cuts: EvaluateMinute is never called) and
// checks what makes Radius 2 a bounded extension of Radius 1:
//
//   - one exchangeFrom(v) sends at most deg(v)² list messages;
//   - every held list is addressed by an edge from its holder to its
//     owner, so state stays O(directed edges);
//   - Radius 2 holds a list at least as fresh wherever Radius 1 holds one
//     (both lose the same direct pushes: a relay draws no loss);
//   - NotifyJoin(v) clears exactly v's slots.
func TestRadius2Bounded(t *testing.T) {
	const peers, steps = 300, 4000
	ov := baOverlay(t, 7, peers)
	newPolice := func(radius int) *Police {
		cfg := DefaultConfig()
		cfg.Radius = radius
		p, err := New(ov, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.SetControlLoss(0.3, rng.New(11))
		return p
	}
	p1, p2 := newPolice(1), newPolice(2)
	src := rng.New(13)
	ne := ov.NumDirectedEdges()
	beforeAt := make([]float64, ne)
	beforeNT := make([]float64, ne)
	fresher := 0

	for step := 1; step <= steps; step++ {
		now := float64(step)
		v := PeerID(src.Intn(peers))
		switch op := src.Intn(10); {
		case !ov.Online(v):
			ov.SetOnline(v, true)
			copy(beforeAt, p2.listAt)
			copy(beforeNT, p2.lastNT)
			p1.NotifyJoin(v, now)
			p2.NotifyJoin(v, now)
			for e := 0; e < ne; e++ {
				holder, owner := ov.Endpoints(overlay.EdgeID(e))
				at, nt := p2.listAt[e], p2.lastNT[e]
				switch {
				case holder == v:
					if (at != listNone && at != now) || nt != ntNever {
						t.Fatalf("step %d: join of %d left its slot for %d at %v / NT %v", step, v, owner, at, nt)
					}
				case owner == v:
					if (at != beforeAt[e] && at != now) || nt != beforeNT[e] {
						t.Fatalf("step %d: join of %d rewrote %d's slot for it: %v -> %v", step, v, holder, beforeAt[e], at)
					}
				default:
					if at != beforeAt[e] || nt != beforeNT[e] {
						t.Fatalf("step %d: join of %d touched the slot %d->%d", step, v, holder, owner)
					}
				}
			}
		case op == 0:
			ov.SetOnline(v, false)
			p1.NotifyLeave(v, now)
			p2.NotifyLeave(v, now)
		case op == 1:
			if nbrs := ov.ActiveNeighbors(v, nil); len(nbrs) > 0 {
				if err := ov.Cut(v, nbrs[src.Intn(len(nbrs))]); err != nil {
					t.Fatal(err)
				}
			}
		default:
			p1.exchangeFrom(v, now)
			before := p2.Overhead().NeighborListMsgs
			p2.exchangeFrom(v, now)
			deg := uint64(ov.Graph().Degree(v))
			if sent := p2.Overhead().NeighborListMsgs - before; sent > deg*deg {
				t.Fatalf("step %d: exchangeFrom(%d) sent %d list messages, deg² = %d", step, v, sent, deg*deg)
			}
		}
		for e := 0; e < ne; e++ {
			if p2.listAt[e] == listNone {
				if p1.listAt[e] != listNone {
					t.Fatalf("step %d: Radius 1 holds a list on edge %d, Radius 2 none", step, e)
				}
				continue
			}
			holder, owner := ov.Endpoints(overlay.EdgeID(e))
			if !ov.Graph().HasEdge(holder, owner) {
				t.Fatalf("step %d: %d holds a list of %d, not its static neighbor", step, holder, owner)
			}
			if p2.listAt[e] < p1.listAt[e] {
				t.Fatalf("step %d: edge %d->%d: Radius 2 list from %v, Radius 1 from %v",
					step, holder, owner, p2.listAt[e], p1.listAt[e])
			}
			if p2.listAt[e] > p1.listAt[e] {
				fresher++
			}
		}
	}
	if fresher == 0 {
		t.Fatal("no relay ever beat a direct push: the run never exercised Radius 2")
	}
	if l1, l2 := p1.ControlLost(), p2.ControlLost(); l1 == 0 || l1 != l2 {
		t.Fatalf("loss draws diverged or never fired: Radius 1 lost %d, Radius 2 lost %d", l1, l2)
	}
}

// TestRadius2At40kPeers is the case the map-keyed Radius-2 state
// could not run: 40,000 peers. Every peer joins, one full exchange period
// elapses and a minute with a flooding hub is evaluated; the list traffic
// must stay under 3·Σ deg² (a join is an exchange plus one own-list push
// back per neighbor, the period one more exchange per peer).
func TestRadius2At40kPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("40,000-peer overlay")
	}
	ov := baOverlay(t, 1, 40000)
	cfg := DefaultConfig()
	cfg.Radius = 2
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < ov.NumPeers(); v++ {
		p.NotifyJoin(PeerID(v), 0)
	}
	for sec := 0; sec < int(cfg.ExchangePeriod); sec++ {
		p.Tick(float64(sec))
	}
	const hub = PeerID(0)
	p.SetBad(hub, CheatNone)
	for _, w := range ov.Graph().Neighbors(hub) {
		addTraffic(t, ov, hub, w, 3000)
	}
	ov.RollMinute()
	p.EvaluateMinute(cfg.ExchangePeriod)

	if p.DetectedBad() != 1 || p.FalseNegatives() != 0 {
		t.Fatalf("flooding hub: detected %d bad, %d good peers cut", p.DetectedBad(), p.FalseNegatives())
	}
	var bound uint64 // 3·Σ_v deg(v)²
	for v := 0; v < ov.NumPeers(); v++ {
		d := uint64(ov.Graph().Degree(PeerID(v)))
		bound += 3 * d * d
	}
	sent := p.Overhead().NeighborListMsgs
	t.Logf("list messages %d, 3·Σdeg² = %d", sent, bound)
	if sent > bound {
		t.Fatalf("list messages %d exceed 3·Σdeg² = %d", sent, bound)
	}
	if pushes := 3 * uint64(ov.NumDirectedEdges()); sent <= pushes {
		t.Fatalf("list messages %d do not exceed the %d own-list pushes: nothing was relayed", sent, pushes)
	}
}
