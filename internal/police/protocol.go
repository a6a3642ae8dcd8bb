package police

// This file is the simulator's side of the protocol: list exchange (step
// 1), how a simulated member answers, and the minute sweep that drives
// step 3, whose rules and records are round.go's. Step 2, the per-minute
// Out_query/In_query counters, lives in internal/overlay (LastMinute).

import (
	"slices"

	"ddpolice/internal/overlay"
)

// Tick runs time-driven protocol work for the second ending at now
// (seconds). In periodic mode it fires due neighbor-list exchanges, in
// ascending peer order.
//
// Only Tick writes nextExchange, and it adds the same period to every
// peer it fires. Read cyclically from nextDue, the schedule therefore
// never decreases (float addition of one constant keeps order) and ends
// at most one period past its start. So the due peers are the run from
// nextDue up to the first peer not yet due: Tick walks that run, no
// further, and fires it in ascending peer order, the part that wrapped
// past the last peer first.
func (p *Police) Tick(now float64) {
	if p.cfg.EventDriven {
		return
	}
	n, start, due := len(p.nextExchange), p.nextDue, 0
	for v := start; due < n && !(now < p.nextExchange[v]); due++ {
		if v++; v == n {
			v = 0
		}
	}
	stop := start + due
	p.nextDue = stop
	if stop >= n { // the run wrapped: its low peers fire first
		p.nextDue -= n
		p.fire(0, p.nextDue, now)
		stop = n
	}
	p.fire(start, stop, now)
}

// fire runs the periodic exchange of peers [from, to) and reschedules
// them one period on.
func (p *Police) fire(from, to int, now float64) {
	for v := from; v < to; v++ {
		p.nextExchange[v] += p.cfg.ExchangePeriod
		if p.ov.Online(PeerID(v)) {
			p.exchangeFrom(PeerID(v), now)
		}
	}
}

// NotifyJoin must be called when peer v comes online. The joining peer
// performs its first neighbor-list exchange immediately ("a joining
// peer creates its BG membership after its first neighbor list
// exchanging operation"), and in event-driven mode its neighbors push
// updates too.
func (p *Police) NotifyJoin(v PeerID, now float64) {
	// Reset v's received-list and rate-limit slots: one directed edge
	// per static neighbor, O(degree).
	for k := range p.ov.Graph().Neighbors(v) {
		e := p.ov.EdgeID(v, k)
		p.listAt[e] = listNone
		p.lastNT[e] = ntNever
	}
	p.exchangeFrom(v, now)
	// The new peer also learns its neighbors' lists right away (the
	// exchange is mutual on connect): each active neighbor w pushes its
	// own list back over v's slot edge v->w.
	if p.ov.Online(v) {
		for k, w := range p.ov.Graph().Neighbors(v) {
			if e := p.ov.EdgeID(v, k); p.ov.Online(w) && !p.ov.EdgeCut(e) {
				p.push(w, v, e, now)
			}
		}
	}
	if p.cfg.EventDriven {
		// A copy, not the overlay's row: a VerifyLists cut inside
		// exchangeFrom rewrites the rows mid-loop.
		p.joinBuf = p.ov.ActiveNeighbors(v, p.joinBuf[:0])
		for _, w := range p.joinBuf {
			p.exchangeFrom(w, now)
		}
	}
}

// NotifyLeave must be called when peer v goes offline. In event-driven
// mode the departed peer's neighbors push updated lists.
func (p *Police) NotifyLeave(v PeerID, now float64) {
	if p.cfg.EventDriven {
		for _, w := range p.ov.Graph().Neighbors(v) {
			if p.ov.Online(w) {
				p.exchangeFrom(w, now)
			}
		}
	}
}

// exchangeFrom makes peer v push its neighbor list to all its active
// neighbors (and, for Radius 2, relay the lists it holds one hop on).
// It walks v's static slots, so receiver w's edge w->v is the reverse of
// the slot's edge, found in O(1). The only mutation an exchange makes is
// a VerifyLists cut of the edge just pushed over, so testing each slot
// as it comes up sees the same receivers as listing them first.
func (p *Police) exchangeFrom(v PeerID, now float64) {
	if !p.ov.Online(v) {
		return
	}
	for k, w := range p.ov.Graph().Neighbors(v) {
		e := p.ov.EdgeID(v, k)
		if !p.ov.Online(w) || p.ov.EdgeCut(e) {
			continue
		}
		p.push(v, w, p.ov.Reverse(e), now)
		if p.cfg.Radius >= 2 {
			p.relayLists(v, w)
		}
	}
}

// advertised returns v's active-neighbor list as a published snapshot:
// a slice that is never written again, so every receiver stores its
// header instead of a copy. While the overlay's version is unchanged it
// is returned as is; otherwise it is compared with v's active row and
// republished, as a fresh clone of the row, only if its contents
// changed. A VerifyLists cut in mid-exchange bumps the version, so the
// next push re-reads the list.
func (p *Police) advertised(v PeerID) []PeerID {
	ver := p.ov.Version() + 1 // snapVer 0 = never computed
	if p.snapVer[v] == ver {
		return p.snap[v]
	}
	p.snapVer[v] = ver
	if row, _ := p.ov.Active(v); !slices.Equal(row, p.snap[v]) {
		p.snap[v] = slices.Clip(slices.Clone(row))
	}
	return p.snap[v]
}

// push delivers owner v's own current list to receiver w, to be held on
// w's edge e (w->v).
func (p *Police) push(v, w PeerID, e overlay.EdgeID, now float64) {
	members := p.advertised(v)
	if p.liar[v] {
		members = p.padded(v, w, members)
	}
	p.overhead.NeighborListMsgs++
	if p.lost() {
		return // the push never reached w
	}
	if p.cfg.VerifyLists {
		p.verifyList(w, v, members, now)
	}
	p.storeList(e, members, now)
}

// padded is a lying peer's list for receiver w: a copy of its true list
// (members, a snapshot it must not write) padded with fabricated claims,
// peers it is not actually connected to.
func (p *Police) padded(v, w PeerID, members []PeerID) []PeerID {
	out := append(make([]PeerID, 0, len(members)+4), members...)
	fakes := 0
	for fake := PeerID(0); fake < PeerID(p.ov.NumPeers()) && fakes < 4; fake++ {
		if fake != v && fake != w && !p.ov.Connected(v, fake) {
			out = append(out, fake)
			fakes++
		}
	}
	return out
}

// relayLists is the r=2 step of DD-POLICE-r: v forwards to w, in v's
// static neighbor order, each list it holds from a neighbor other than
// w, with the time v received it. Every relayed list is a message, and
// w holds the same snapshot v does. w keeps only the lists whose owner
// it is itself a neighbor of: for any other owner it has no edge, and it
// could never be asked to judge that owner.
func (p *Police) relayLists(v, w PeerID) {
	for k, owner := range p.ov.Graph().Neighbors(v) {
		e := p.ov.EdgeID(v, k)
		if owner == w || p.listAt[e] == listNone {
			continue
		}
		p.overhead.NeighborListMsgs++
		if we, ok := p.ov.FindEdge(w, owner); ok {
			p.storeList(we, p.listMem[e], p.listAt[e])
		}
	}
}

// storeList records on edge e (receiver->owner) the list members the
// receiver got from owner at time at, unless it holds a fresher one.
// members is immutable and shared; the edge keeps its header.
func (p *Police) storeList(e overlay.EdgeID, members []PeerID, at float64) {
	if p.listAt[e] > at {
		return // keep the fresher list (listNone is older than any)
	}
	p.listAt[e] = at
	p.listMem[e] = members
}

// verifyList performs the §3.1 consistency check at the receiver: each
// claimed neighbor is confirmed with the corresponding peer. "If a peer
// finds out that the claim of a pair of neighboring peers are not
// consistent, it will disconnect with the one which is its neighbor."
func (p *Police) verifyList(receiver, owner PeerID, members []PeerID, now float64) {
	for _, claimed := range members {
		p.overhead.VerifyMsgs++
		if claimed == receiver {
			continue // the receiver can check its own edge directly
		}
		if !p.ov.Connected(owner, claimed) {
			if p.ov.Connected(receiver, owner) {
				_ = p.ov.Cut(receiver, owner)
				p.recordCut(Verdict{Observer: receiver, Suspect: owner, Window: int(now) / 60, Cut: true}, now)
			}
			return
		}
	}
}

// report produces member m's Neighbor_Traffic answer about suspect j:
// (Out = Q_{m->j}, In = Q_{j->m}) for the last closed minute. ok is
// false when no report arrives (member offline, edge gone, or the
// member stonewalls) — the collector then assumes zero, exactly as the
// paper prescribes for silent peers.
func (p *Police) report(m, suspect PeerID, now float64) (out, in float64, ok bool) {
	// The member must be online and must actually be a logical neighbor
	// of the suspect. A cut edge does not silence the report: the
	// counters describe the minute that already elapsed, during which
	// the member observed the suspect directly.
	if !p.ov.Online(m) || !p.ov.Online(suspect) {
		return 0, 0, false
	}
	e, isEdge := p.ov.FindEdge(m, suspect)
	if !isEdge {
		return 0, 0, false
	}
	if p.lost() {
		return 0, 0, false // report lost on a congested link
	}
	out = p.ov.LastMinute(e)
	in = p.ov.LastMinute(p.ov.Reverse(e))
	if p.isBad[m] {
		switch p.cheat[m] {
		case CheatSilent:
			return 0, 0, false
		case CheatDeflate:
			// Case 2: under-report what the cheater sent to the suspect
			// so the suspect appears to have generated the traffic.
			out = 0
		case CheatInflate:
			// Case 1: over-report.
			out *= 10
		}
	}
	p.overhead.NeighborTrafficMsgs++
	return out, in, true
}

// collect is the simulator's transport for the evaluation p.round has
// begun on edge e (observer->suspect): synchronous, so the members asked
// answer from report(), or stay silent, at once, and the deadline is final.
func (p *Police) collect(e overlay.EdgeID, now, sinceRound float64) (v Verdict, opened bool) {
	r := &p.round
	own := Report{
		Out: p.ov.LastMinute(e),               // Q_{i->j}
		In:  p.ov.LastMinute(p.ov.Reverse(e)), // Q_{j->i}
	}
	if !r.Open(own, p.listMem[e], p.listAt[e] != listNone, now-p.listAt[e], sinceRound) {
		return Verdict{}, false
	}
	for _, m := range r.Asked() {
		if out, in, got := p.report(m, r.suspect, now); got {
			r.Report(now, m, Report{Out: out, In: in})
		}
	}
	return r.Deadline(now, true)
}

// EvaluateMinute runs bad-peer recognition for the minute that just
// closed (call immediately after overlay.RollMinute). Every online peer
// puts each neighbor's last-minute inbound volume to the round's warning
// gate; suspects that cross it are judged against the cut threshold.
//
// Decisions are collected first and applied after the sweep: the real
// protocol runs at all observers concurrently over the same minute's
// reports, so one observer's disconnect must not erase the evidence a
// later observer's computation depends on.
func (p *Police) EvaluateMinute(now float64) {
	cuts := p.cutBuf[:0]
	window := int(now) / 60
	r := &p.round
	// Online observers, in ascending order.
	p.obsBuf = p.ov.AppendOnline(p.obsBuf[:0])
	for _, observer := range p.obsBuf {
		// The overlay's own row: nothing in the sweep mutates the
		// overlay, since the cuts wait for its end.
		suspects, edges := p.ov.Active(observer)
		for i, suspect := range suspects {
			e := edges[i]
			if !r.Warn(observer, suspect, now, window, p.ov.LastMinute(p.ov.Reverse(e))) {
				continue
			}
			v, opened := p.collect(e, now, now-p.lastNT[e])
			if !opened {
				continue
			}
			p.lastNT[e] = now
			// The observer's own broadcast to the group.
			p.overhead.NeighborTrafficMsgs += uint64(v.K - 1)
			if v.Cut {
				cuts = append(cuts, v)
			}
		}
	}
	for _, v := range cuts {
		if err := p.ov.Cut(v.Observer, v.Suspect); err == nil {
			p.recordCut(v, now)
		}
	}
	p.cutBuf = cuts // keep the grown capacity for the next minute
}

// recordCut books a disconnect the overlay carried out: the detection
// list, the record, the error accounting against ground truth.
func (p *Police) recordCut(v Verdict, now float64) {
	p.detections = append(p.detections, Detection{
		At: now, Observer: v.Observer, Suspect: v.Suspect, General: v.G, Single: v.S,
	})
	p.round.RecordCut(now, v)
	if p.isBad[v.Suspect] {
		p.detected[v.Suspect] = true
	} else if !p.cutGood[v.Suspect] {
		p.cutGood[v.Suspect] = true
		p.cutGoodN++
	}
}
