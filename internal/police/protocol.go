package police

// This file is the simulator's side of the protocol: list exchange (step
// 1), how a simulated member answers, and the minute sweep that drives
// step 3, whose rules and records are round.go's. Step 2, the per-minute
// Out_query/In_query counters, lives in internal/overlay (LastMinute).

import (
	"math"
	"slices"

	"ddpolice/internal/overlay"
)

// Tick runs time-driven protocol work for the second ending at now
// (seconds). In periodic mode it fires due neighbor-list exchanges.
//
// On the simulator's integer-second cadence the due peers come from a
// calendar queue — O(due this tick) instead of an O(N) scan of every
// peer — and fire in ascending peer order, exactly the order the scan
// produced: for integer t, float64(t) >= nextExchange iff
// t >= ceil(nextExchange) (ceil of a float64 is exact), so bucketing
// peers by ceil(nextExchange) fires each peer on precisely the tick
// the scan would have. A call off that cadence (fractional now, or a
// skipped second) falls back to the scan and rebuilds the queue lazily.
func (p *Police) Tick(now float64) {
	if p.cfg.EventDriven {
		return
	}
	t := int64(now)
	if float64(t) != now || (p.exqReady && t != p.exqNext) {
		p.exqReady = false
		p.tickScan(now)
		return
	}
	if !p.exqReady {
		p.buildExchangeQueue(t)
	}
	p.exqNext = t + 1
	b := &p.exqBucket[t%int64(len(p.exqBucket))]
	due := *b
	*b = nil
	if len(due) == 0 {
		return
	}
	// Buckets receive refires from multiple earlier ticks, so restore
	// the scan's ascending-peer order before firing.
	slices.Sort(due)
	for _, v := range due {
		p.nextExchange[v] += p.cfg.ExchangePeriod
		if p.ov.Online(v) {
			p.exchangeFrom(v, now)
		}
		p.enqueueExchange(v, t+1)
	}
	// Keep the drained backing array for a future bucket.
	if cap(due) > 0 {
		*b = due[:0]
	}
}

// tickScan is the original O(N) exchange sweep, kept as the fallback
// for off-cadence Tick calls (tests driving fractional time).
func (p *Police) tickScan(now float64) {
	for v := range p.nextExchange {
		if now < p.nextExchange[v] {
			continue
		}
		p.nextExchange[v] += p.cfg.ExchangePeriod
		if p.ov.Online(PeerID(v)) {
			p.exchangeFrom(PeerID(v), now)
		}
	}
}

// buildExchangeQueue (re)derives the calendar buckets from the float
// schedule, starting service at integer tick t.
func (p *Police) buildExchangeQueue(t int64) {
	// A peer that just fired reschedules at most ceil(period) ticks
	// out, and overdue peers land in the current bucket, so
	// ceil(period)+2 buckets can never collide across rounds.
	nb := int64(math.Ceil(p.cfg.ExchangePeriod)) + 2
	if p.exqBucket == nil || int64(len(p.exqBucket)) != nb {
		p.exqBucket = make([][]PeerID, nb)
	}
	for i := range p.exqBucket {
		p.exqBucket[i] = p.exqBucket[i][:0]
	}
	for v := range p.nextExchange {
		p.enqueueExchange(PeerID(v), t)
	}
	p.exqReady = true
	p.exqNext = t
}

// enqueueExchange places v into the bucket for ceil(nextExchange),
// clamped to floor (the earliest tick the queue will still serve): an
// overdue peer fires once per tick until it catches up, exactly like
// the scan.
func (p *Police) enqueueExchange(v PeerID, floor int64) {
	fire := int64(math.Ceil(p.nextExchange[v]))
	if fire < floor {
		fire = floor
	}
	i := fire % int64(len(p.exqBucket))
	p.exqBucket[i] = append(p.exqBucket[i], v)
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
	// exchange is mutual on connect).
	p.joinBuf = p.ov.ActiveNeighbors(v, p.joinBuf[:0])
	for _, w := range p.joinBuf {
		p.sendList(w, v, now)
	}
	if p.cfg.EventDriven {
		// sendList above cannot shuffle joinBuf, but exchangeFrom fans
		// out through exBuf, so reusing joinBuf for this second pass is
		// still safe.
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
func (p *Police) exchangeFrom(v PeerID, now float64) {
	p.exBuf = p.ov.ActiveNeighbors(v, p.exBuf[:0])
	for _, w := range p.exBuf {
		p.sendList(v, w, now)
		if p.cfg.Radius >= 2 {
			p.relayLists(v, w)
		}
	}
}

// relayLists is the r=2 step of DD-POLICE-r: v forwards to w, in v's
// static neighbor order, each list it holds from a neighbor other than
// w, with the time v received it. Every relayed list is a message;
// storeList keeps the ones whose owner w is itself a neighbor of.
func (p *Police) relayLists(v, w PeerID) {
	for k, owner := range p.ov.Graph().Neighbors(v) {
		e := p.ov.EdgeID(v, k)
		if owner == w || p.listAt[e] == listNone {
			continue
		}
		p.overhead.NeighborListMsgs++
		p.storeList(w, owner, p.listMem[e], p.listAt[e])
	}
}

// sendList delivers v's own current neighbor list to receiver w.
func (p *Police) sendList(v, w PeerID, now float64) {
	p.sendBuf = p.ov.ActiveNeighbors(v, p.sendBuf[:0])
	members := p.sendBuf
	if p.liar[v] {
		// A lying peer pads its list with fabricated claims: peers it
		// is not actually connected to.
		fakes := 0
		for fake := PeerID(0); fake < PeerID(p.ov.NumPeers()) && fakes < 4; fake++ {
			if fake != v && fake != w && !p.ov.Connected(v, fake) {
				members = append(members, fake)
				fakes++
			}
		}
	}
	p.overhead.NeighborListMsgs++
	if p.lost() {
		return // the push never reached w
	}
	if p.cfg.VerifyLists {
		p.verifyList(w, v, members, now)
	}
	p.storeList(w, v, members, now)
}

// storeList records at receiver the advertised list of owner, on the
// directed edge receiver->owner, reusing that edge's backing array. A
// direct push always has such an edge; a relayed list whose owner is
// not the receiver's neighbor has none and is dropped, since the
// receiver could never be asked to judge that owner.
func (p *Police) storeList(receiver, owner PeerID, members []PeerID, at float64) {
	e, ok := p.ov.FindEdge(receiver, owner)
	if !ok {
		return
	}
	if p.listAt[e] > at {
		return // keep the fresher list (listNone is older than any)
	}
	p.listAt[e] = at
	p.listMem[e] = append(p.listMem[e][:0], members...)
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
	if _, isEdge := p.ov.FindEdge(m, suspect); !isEdge {
		return 0, 0, false
	}
	if p.lost() {
		return 0, 0, false // report lost on a congested link
	}
	out = p.ov.LastMinute(m, suspect)
	in = p.ov.LastMinute(suspect, m)
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
		Out: p.ov.LastMinute(r.observer, r.suspect), // Q_{i->j}
		In:  p.ov.LastMinute(r.suspect, r.observer), // Q_{j->i}
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
		p.evalBuf = p.ov.ActiveNeighbors(observer, p.evalBuf[:0])
		for _, suspect := range p.evalBuf {
			// An active neighbor is a static one, so here and below the
			// edge lookup cannot miss.
			if p.blackUntil != nil {
				if e, _ := p.ov.FindEdge(observer, suspect); now < p.blackUntil[e] {
					// Future-work extension: a previously-convicted
					// suspect that reconnected is cut on sight.
					cuts = append(cuts, Verdict{Observer: observer, Suspect: suspect, Window: window, Cut: true})
					continue
				}
			}
			if !r.Warn(observer, suspect, now, window, p.ov.LastMinute(suspect, observer)) {
				continue
			}
			e, _ := p.ov.FindEdge(observer, suspect)
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
	// Commit this minute's detection traces, after the cuts joined them.
	r.End()
}

// recordCut books a disconnect the overlay carried out: the ban, the
// detection list, the record, the error accounting against ground truth.
func (p *Police) recordCut(v Verdict, now float64) {
	if p.blackUntil != nil {
		// Only a connected neighbor is ever cut, so the edge exists.
		e, _ := p.ov.FindEdge(v.Observer, v.Suspect)
		p.blackUntil[e] = now + p.cfg.BlacklistSec
	}
	p.detections = append(p.detections, Detection{
		At: now, Observer: v.Observer, Suspect: v.Suspect, General: v.G, Single: v.S,
	})
	p.round.RecordCut(now, v)
	if p.isBad[v.Suspect] {
		if !p.detected[v.Suspect] {
			p.detected[v.Suspect] = true
			p.detectedN++
		}
	} else if !p.cutGood[v.Suspect] {
		p.cutGood[v.Suspect] = true
		p.cutGoodN++
	}
}
