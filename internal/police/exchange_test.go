package police

import (
	"fmt"
	"slices"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
)

// copyRef is the list exchange as it was before snapshots, kept as the
// reference the snapshot exchange is held to: it recomputes the owner's
// list for every receiver, finds the receiver's edge by search, and
// copies the list into that edge's own backing array. Its methods shadow
// the embedded Police's exchange; everything else is the Police's own.
type copyRef struct {
	*Police
	exBuf, sendBuf, joinBuf []PeerID
}

func (r *copyRef) NotifyJoin(v PeerID, now float64) {
	for k := range r.ov.Graph().Neighbors(v) {
		e := r.ov.EdgeID(v, k)
		r.listAt[e] = listNone
		r.lastNT[e] = ntNever
	}
	r.exchangeFrom(v, now)
	r.joinBuf = r.ov.ActiveNeighbors(v, r.joinBuf[:0])
	for _, w := range r.joinBuf {
		r.sendList(w, v, now)
	}
	if r.cfg.EventDriven {
		r.joinBuf = r.ov.ActiveNeighbors(v, r.joinBuf[:0])
		for _, w := range r.joinBuf {
			r.exchangeFrom(w, now)
		}
	}
}

func (r *copyRef) NotifyLeave(v PeerID, now float64) {
	if r.cfg.EventDriven {
		for _, w := range r.ov.Graph().Neighbors(v) {
			if r.ov.Online(w) {
				r.exchangeFrom(w, now)
			}
		}
	}
}

func (r *copyRef) exchangeFrom(v PeerID, now float64) {
	r.exBuf = r.ov.ActiveNeighbors(v, r.exBuf[:0])
	for _, w := range r.exBuf {
		r.sendList(v, w, now)
		if r.cfg.Radius >= 2 {
			r.relayLists(v, w)
		}
	}
}

func (r *copyRef) relayLists(v, w PeerID) {
	for k, owner := range r.ov.Graph().Neighbors(v) {
		e := r.ov.EdgeID(v, k)
		if owner == w || r.listAt[e] == listNone {
			continue
		}
		r.overhead.NeighborListMsgs++
		r.storeList(w, owner, r.listMem[e], r.listAt[e])
	}
}

func (r *copyRef) sendList(v, w PeerID, now float64) {
	r.sendBuf = r.ov.ActiveNeighbors(v, r.sendBuf[:0])
	members := r.sendBuf
	if r.liar[v] {
		fakes := 0
		for fake := PeerID(0); fake < PeerID(r.ov.NumPeers()) && fakes < 4; fake++ {
			if fake != v && fake != w && !r.ov.Connected(v, fake) {
				members = append(members, fake)
				fakes++
			}
		}
	}
	r.overhead.NeighborListMsgs++
	if r.lost() {
		return
	}
	if r.cfg.VerifyLists {
		r.verifyList(w, v, members, now)
	}
	r.storeList(w, v, members, now)
}

func (r *copyRef) storeList(receiver, owner PeerID, members []PeerID, at float64) {
	e, ok := r.ov.FindEdge(receiver, owner)
	if !ok {
		return
	}
	if r.listAt[e] > at {
		return
	}
	r.listAt[e] = at
	r.listMem[e] = append(r.listMem[e][:0], members...)
}

// exchanger is what the equivalence test drives on both sides.
type exchanger interface {
	NotifyJoin(v PeerID, now float64)
	NotifyLeave(v PeerID, now float64)
	exchangeFrom(v PeerID, now float64)
	EvaluateMinute(now float64)
}

// TestListExchangeMatchesCopyingReference drives the snapshot exchange
// and copyRef through one seeded sequence of exchanges, joins, leaves,
// cuts, uncuts and attack minutes, each on its own copy of a BA(300, 3)
// overlay, and after every step requires the same held list on every
// edge (receipt time and contents), the same control-message counts and
// losses, the same detections and the same overlay version. It covers
// Radius 1 and 2, periodic and event-driven exchange, and the list
// check with two liars under 30 % control loss, whose cuts land in the
// middle of exchanges.
func TestListExchangeMatchesCopyingReference(t *testing.T) {
	for _, radius := range []int{1, 2} {
		for _, eventDriven := range []bool{false, true} {
			for _, hostile := range []bool{false, true} {
				name := fmt.Sprintf("r%d/event=%v/verify+liars+loss=%v", radius, eventDriven, hostile)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Radius = radius
					cfg.EventDriven = eventDriven
					cfg.VerifyLists = hostile
					matchCopyingReference(t, cfg, hostile)
				})
			}
		}
	}
}

func matchCopyingReference(t *testing.T, cfg Config, hostile bool) {
	const peers, steps, agent = 300, 1500, PeerID(0) // peer 0 is the BA seed clique's hub
	ovS, ovR := baOverlay(t, 5, peers), baOverlay(t, 5, peers)
	newSide := func(ov *overlay.Overlay) *Police {
		p, err := New(ov, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.SetBad(agent, CheatNone)
		if hostile {
			p.SetListLiar(17)
			p.SetListLiar(101)
			p.SetControlLoss(0.3, rng.New(23))
		}
		return p
	}
	snap, ref := newSide(ovS), &copyRef{Police: newSide(ovR)}
	sides := []struct {
		ov *overlay.Overlay
		p  exchanger
	}{{ovS, snap}, {ovR, ref}}

	src := rng.New(31)
	for step := 1; step <= steps; step++ {
		now := float64(step)
		v := PeerID(src.Intn(peers))
		op := src.Intn(12)
		// Pick the cut/uncut partner once, from the (still identical)
		// overlays, so both sides mutate the same edge.
		var partner PeerID = -1
		switch {
		case op == 1:
			if nbrs := ovS.ActiveNeighbors(v, nil); len(nbrs) > 0 {
				partner = nbrs[src.Intn(len(nbrs))]
			}
		case op == 2:
			for _, w := range ovS.Graph().Neighbors(v) {
				if ovS.IsCut(v, w) {
					partner = w
					break
				}
			}
		}
		for _, s := range sides {
			switch {
			case !s.ov.Online(v):
				s.ov.SetOnline(v, true)
				s.p.NotifyJoin(v, now)
			case op == 0:
				s.ov.SetOnline(v, false)
				s.p.NotifyLeave(v, now)
			case op == 1 && partner >= 0:
				if err := s.ov.Cut(v, partner); err != nil {
					t.Fatal(err)
				}
			case op == 2 && partner >= 0:
				s.ov.Uncut(v, partner)
			case op == 3:
				for _, w := range s.ov.ActiveNeighbors(agent, nil) {
					if err := s.ov.AddTrafficBetween(agent, w, 3000); err != nil {
						t.Fatal(err)
					}
				}
				s.ov.RollMinute()
				s.p.EvaluateMinute(now)
			default:
				s.p.exchangeFrom(v, now)
			}
		}
		compareSides(t, step, snap, ref.Police)
	}
	if len(snap.Detections()) == 0 {
		t.Fatal("no detections: the run never exercised the lists it exchanged")
	}
	if hostile && snap.ControlLost() == 0 {
		t.Fatal("no control message was lost")
	}
}

func compareSides(t *testing.T, step int, s, r *Police) {
	t.Helper()
	for e := range s.listAt {
		if s.listAt[e] != r.listAt[e] || !slices.Equal(s.listMem[e], r.listMem[e]) {
			holder, owner := s.ov.Endpoints(overlay.EdgeID(e))
			t.Fatalf("step %d: edge %d->%d holds %v at %v, reference %v at %v",
				step, holder, owner, s.listMem[e], s.listAt[e], r.listMem[e], r.listAt[e])
		}
	}
	if s.Overhead() != r.Overhead() || s.ControlLost() != r.ControlLost() {
		t.Fatalf("step %d: overhead %+v lost %d, reference %+v lost %d",
			step, s.Overhead(), s.ControlLost(), r.Overhead(), r.ControlLost())
	}
	if !slices.Equal(s.Detections(), r.Detections()) {
		t.Fatalf("step %d: %d detections, reference %d", step, len(s.Detections()), len(r.Detections()))
	}
	if s.ov.Version() != r.ov.Version() {
		t.Fatalf("step %d: overlay version %d, reference %d", step, s.ov.Version(), r.ov.Version())
	}
}

// TestHeldListSurvivesRepublish: a list a receiver holds is a published
// snapshot, so the owner republishing after its neighborhood changed must
// not reach into it.
func TestHeldListSurvivesRepublish(t *testing.T) {
	ov := baOverlay(t, 9, 200)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const owner = PeerID(0)
	nbrs := ov.Graph().Neighbors(owner)
	x, w := nbrs[0], nbrs[1]
	p.exchangeFrom(owner, 10)
	ex, _ := ov.FindEdge(x, owner)
	ew, _ := ov.FindEdge(w, owner)
	held := p.listMem[ex]
	want := slices.Clone(held)
	if !slices.Contains(want, x) {
		t.Fatalf("%d's list %v lacks %d", owner, want, x)
	}

	// x's edge goes: owner republishes without x, and x keeps the old list.
	if err := ov.Cut(x, owner); err != nil {
		t.Fatal(err)
	}
	p.exchangeFrom(owner, 20)
	if !slices.Equal(held, want) || !slices.Equal(p.listMem[ex], want) || p.listAt[ex] != 10 {
		t.Fatalf("held list changed under its holder: %v (edge holds %v at %v), want %v at 10",
			held, p.listMem[ex], p.listAt[ex], want)
	}
	if got := p.listMem[ew]; slices.Contains(got, x) || len(got) != len(want)-1 || p.listAt[ew] != 20 {
		t.Fatalf("w holds %v at %v, want %v without %d at 20", got, p.listAt[ew], want, x)
	}
}

// TestUnchangedExchangeAllocatesNothing: an exchange whose owner's
// neighborhood did not change publishes nothing, so it allocates nothing
// — also when the overlay's version moved elsewhere in between, which
// costs a recompute into scratch and a compare.
func TestUnchangedExchangeAllocatesNothing(t *testing.T) {
	ov := baOverlay(t, 3, 300)
	cfg := DefaultConfig()
	cfg.Radius = 2
	p, err := New(ov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exchangeAll(p, ov, 0)
	// A cut and heal of an edge {a, b} that owner is not on: two version
	// bumps, owner's list unchanged.
	const owner, a = PeerID(0), PeerID(299)
	b := ov.Graph().Neighbors(a)[0]
	if b == owner {
		b = ov.Graph().Neighbors(a)[1]
	}
	bump := func() {
		if err := ov.Cut(a, b); err != nil {
			t.Fatal(err)
		}
		ov.Uncut(a, b)
	}
	// Fill the overlay's change log to its steady state, so that the
	// bumps below reuse its capacity.
	for range 2 * ov.NumPeers() {
		bump()
	}
	if n := testing.AllocsPerRun(100, func() { p.exchangeFrom(owner, 60) }); n != 0 {
		t.Errorf("exchange at an unchanged version: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { bump(); p.exchangeFrom(owner, 60) }); n != 0 {
		t.Errorf("exchange after a version bump elsewhere: %v allocs", n)
	}
}
